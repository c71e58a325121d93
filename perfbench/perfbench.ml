(* perfbench: the repository's end-to-end benchmark.

   Each workload drives a real `tml serve` child process over a Unix
   socket with a closed loop of at most two connections, checks every
   reply against an in-process oracle, and prints one JSON result line.
   With [--trace 1] it also replays the same generated frames in-process
   through the public layer entry points (Wire, Router, Runtime, Job,
   Stream_hub, Inc_learn, Inc_check) with the library's own spans enabled,
   and reports each layer's self time, the unattributed residual and the
   tracing overhead.

   Usage (perfbench/run.py builds both programs and passes --tml, --dir
   and --commit):
     perfbench.exe --tml PATH [--dir D] [--commit C] --workload W --seed N --seconds S --trace 0|1
     perfbench.exe --tml PATH [--dir D] --smoke
*)

let now = Unix.gettimeofday

(* ------------------------------ samples ------------------------------ *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s
end

(* Nearest-rank percentile of a sorted array. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then 0.0
  else s.(min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median_of xs = pct (Array.of_list (List.sort compare xs)) 0.5
let mean_of xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let ratio a b = if b <= 0.0 then 0.0 else a /. b

(* ------------------------------ metrics ------------------------------ *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let m name unit_ value samples = { name; unit_; value; samples }

type run = {
  attempted : int;
  failed : int;  (** failed, refused and wrong replies *)
  e2e : metric list;  (** the workload-generic rows of BENCHMARK.json *)
  named : metric list;  (** the same measurements under their own names *)
  layers : metric list;  (** per-layer rows ([--trace 1] only) *)
  stats : Wire.json;  (** the server's own Stats reply at the end of the run *)
  inputs : string;  (** digest of the generated inputs *)
}

type ctx = {
  tml : string;
  dir : string;  (** scratch directory for the socket and result files *)
  seed : int;
  seconds : float;
  smoke : bool;
  trace : bool;
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let report_of o = Format.asprintf "%a" Job.pp_outcome o

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* Every REPAIRED verdict in a report must have been re-verified. *)
let verified rep = not (contains rep "REPAIRED" && contains rep "NOT verified")

let inputs_digest frames =
  Digest.to_hex (Digest.string (String.concat "\x00" frames))

let frame_of_request req = Wire.render (Wire.request_to_json ~id:1 req)

(* --------------------------- direct oracle --------------------------- *)

(* A job decoded and run on the calling domain — the reference the served
   report must equal byte for byte — with the time of each step. *)
type direct = {
  kind : string;
  report : (string, string) result;
  digest : string;
  digest_s : float;
  run_s : float;
  render_s : float;
}

let run_direct (jr : Wire.job_request) =
  let kind = Wire.kind_of_job_request jr in
  match Wire.job_of_request jr with
  | exception e ->
    { kind; report = Error (Printexc.to_string e); digest = ""; digest_s = 0.;
      run_s = 0.; render_s = 0. }
  | job -> (
      let t0 = now () in
      let digest = Job.digest job in
      let t1 = now () in
      match Job.run job with
      | exception e ->
        { kind; report = Error (Printexc.to_string e); digest; digest_s = t1 -. t0;
          run_s = now () -. t1; render_s = 0. }
      | o ->
        let t2 = now () in
        let rep = report_of o in
        { kind; report = Ok rep; digest; digest_s = t1 -. t0; run_s = t2 -. t1;
          render_s = now () -. t2 })

(* [f] over [xs] on two domains (the oracle is as parallel as the server
   it checks); order preserved. *)
let par_map f xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let out = Array.make n None in
  let part r () =
    for i = 0 to n - 1 do
      if i mod 2 = r then out.(i) <- Some (f a.(i))
    done
  in
  let d = Domain.spawn (part 1) in
  part 0 ();
  Domain.join d;
  Array.to_list (Array.map Option.get out)

let direct_rows directs =
  let kinds = [ "model-repair"; "data-repair"; "reward-repair"; "pipeline"; "check" ] in
  let rows =
    List.map
      (fun k ->
        let xs = List.filter (fun d -> d.kind = k) directs in
        m
          ("job.run_ms." ^ String.map (function '-' -> '_' | c -> c) k)
          "ms"
          (1e3 *. mean_of (List.map (fun d -> d.run_s) xs))
          (List.length xs))
      kinds
  in
  let n = List.length directs in
  m "job.digest_us" "us" (1e6 *. mean_of (List.map (fun d -> d.digest_s) directs)) n
  :: m "job.render_us" "us" (1e6 *. mean_of (List.map (fun d -> d.render_s) directs)) n
  :: rows

(* ------------------------------- set-up ------------------------------ *)

(* Set-up is repeated and its median reported, so a change that moves work
   into set-up shows in [setup_s]; only the last server is measured. *)
let setups ctx = if ctx.smoke then 1 else 9

let with_server ctx ~setup ~close f =
  let sock = Filename.concat ctx.dir (Printf.sprintf "pb-%d.sock" (Unix.getpid ())) in
  let rec go k times =
    let t0 = now () in
    let srv = Srv.spawn ~tml:ctx.tml ~sock in
    match setup srv with
    | exception e ->
      Srv.stop srv;
      raise e
    | st ->
      let times = (now () -. t0) :: times in
      if k > 1 then begin
        Fun.protect ~finally:(fun () -> Srv.stop srv) (fun () -> close st);
        go (k - 1) times
      end
      else
        Fun.protect
          ~finally:(fun () -> Fun.protect ~finally:(fun () -> Srv.stop srv) (fun () -> close st))
          (fun () -> f srv st (median_of times))
  in
  go (setups ctx) []

(* ----------------------------- Stats reply --------------------------- *)

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Wire.member k j) (fun v -> path v rest)

let num j keys = match path j keys with Some (Wire.Num f) -> f | _ -> 0.0

let stats_rows stats =
  let stage s =
    let count = num stats [ "stages"; s; "count" ] in
    [ m (s ^ ".ms") "ms" (1e3 *. ratio (num stats [ "stages"; s; "total_s" ]) count)
        (int_of_float count);
      m (s ^ ".count") "count" count 1 ]
  in
  [ m "runtime.queue_max_depth" "count" (num stats [ "queue"; "max_depth" ]) 1;
    m "runtime.report_cache_hit_ratio" "ratio" (num stats [ "caches"; "report"; "hit_rate" ]) 1;
    m "runtime.elim_cache_hit_ratio" "ratio" (num stats [ "caches"; "elimination"; "hit_rate" ]) 1;
    m "runtime.retries" "count" (num stats [ "resilience"; "retried" ]) 1;
    m "runtime.respawns" "count" (num stats [ "resilience"; "respawned" ]) 1 ]
  @ List.concat_map stage [ "learn"; "eliminate"; "solve"; "check" ]

let ping_rtt srv =
  Client.with_client (`Unix srv.Srv.sock) @@ fun cl ->
  let xs = List.init 500 (fun _ -> let t0 = now () in Client.ping cl; now () -. t0) in
  m "server.ping_rtt_us" "us" (1e6 *. median_of xs) 500

(* --------------------------- in-process replay ----------------------- *)

(* One replayed request: [await] makes a Submit wait for its job, timed
   as one operation (submit sent → report received). *)
type rop = { req : Wire.request; await : bool }

type replay = {
  ops : int;
  total_s : float;  (** Σ per-op latency *)
  decode_s : float;  (** Wire.parse + Wire.request_of_json *)
  handle_s : float;  (** the handler's first answer *)
  encode_s : float;  (** Wire.response_to_json + Wire.render *)
  bytes : int;  (** request frame bytes *)
  minor_words : float;
  major : int;
}

(* Replay [ops] through [handler] on [threads] threads (op i on thread
   i mod threads, as the served connections split them). *)
let replay_ops ?(threads = 1) (handler : Server.handler) (ops : rop array) =
  let n = Array.length ops in
  let frames = Array.mapi (fun i op -> Wire.render (Wire.request_to_json ~id:(i + 1) op.req)) ops in
  let acc = Array.make_matrix threads 4 0.0 in
  let worker t () =
    let a = acc.(t) in
    for i = 0 to n - 1 do
      if i mod threads = t then begin
        let t0 = now () in
        let _, req = Wire.request_of_json (Wire.parse frames.(i)) in
        let t1 = now () in
        let resp = handler.on_request ~client:(t + 1) req in
        let t2 = now () in
        let resp =
          match resp with
          | Wire.Accepted { job; _ } when ops.(i).await ->
            handler.on_request ~client:(t + 1) (Wire.Wait (job, None))
          | r -> r
        in
        let t3 = now () in
        ignore (Wire.render (Wire.response_to_json ~id:(i + 1) resp) : string);
        let t4 = now () in
        a.(0) <- a.(0) +. (t4 -. t0);
        a.(1) <- a.(1) +. (t1 -. t0);
        a.(2) <- a.(2) +. (t2 -. t1);
        a.(3) <- a.(3) +. (t4 -. t3)
      end
    done
  in
  let g0 = Gc.quick_stat () in
  let ths = List.init threads (fun t -> Thread.create (worker t) ()) in
  List.iter Thread.join ths;
  let g1 = Gc.quick_stat () in
  let sum k = Array.fold_left (fun s a -> s +. a.(k)) 0.0 acc in
  {
    ops = n;
    total_s = sum 0;
    decode_s = sum 1;
    handle_s = sum 2;
    encode_s = sum 3;
    bytes = Array.fold_left (fun s f -> s + String.length f + 4) 0 frames;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Per-name span totals: count, duration, and self time (duration minus
   the part covered by child spans); the queue wait of every job (its
   job:submit event to the start of its job:run span); and the number of
   solves that ran the NLP fallback ladder (distinct parents of nlp:rung
   spans). *)
type span_totals = { count : int; dur_s : float; self_s : float }

let analyse_spans (spans : Trace_span.t list) =
  let by_id = Hashtbl.create 1024 and child = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace_span.t) ->
      Hashtbl.replace by_id s.id s;
      Option.iter
        (fun p ->
          Hashtbl.replace child p (s.dur_s +. Option.value ~default:0.0 (Hashtbl.find_opt child p)))
        s.parent)
    spans;
  let tot = Hashtbl.create 32 and ladders = Hashtbl.create 64 in
  let queue = ref [] in
  List.iter
    (fun (s : Trace_span.t) ->
      let self = Float.max 0.0 (s.dur_s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)) in
      let c = Option.value ~default:{ count = 0; dur_s = 0.; self_s = 0. } (Hashtbl.find_opt tot s.name) in
      Hashtbl.replace tot s.name
        { count = c.count + 1; dur_s = c.dur_s +. s.dur_s; self_s = c.self_s +. self };
      if s.name = "nlp:rung" then Option.iter (fun p -> Hashtbl.replace ladders p ()) s.parent;
      if s.name = "job:run" then
        Option.iter
          (fun p ->
            match Hashtbl.find_opt by_id p with
            | Some (sub : Trace_span.t) when sub.name = "job:submit" ->
              queue := (s.rel_s -. sub.rel_s) :: !queue
            | _ -> ())
          s.parent)
    spans;
  let get name = Option.value ~default:{ count = 0; dur_s = 0.; self_s = 0. } (Hashtbl.find_opt tot name) in
  (get, !queue, Hashtbl.length ladders)

(* Run [setup] then [ops] in a fresh in-process runtime, twice: untraced
   (the baseline for the tracing overhead, and the GC counts) and traced
   (the per-layer self times).  [jobs_on_path] says whether the awaited
   jobs' queue wait and run lie on the ops' latency path (they do for
   submit+wait ops; a watch's repairs run beside the appends). *)
let replay_layers ?(threads = 1) ?(hub = false) ~jobs_on_path ~setup (ops : rop array) =
  let pass traced =
    Fault.install (Some Srv.dormant_plan);
    Fun.protect ~finally:(fun () -> Fault.install None) @@ fun () ->
    Runtime.with_runtime ~workers:Srv.workers @@ fun rt ->
    let router = Router.create rt in
    let base = Server.handler_of_router router in
    let h, finish =
      if hub then begin
        let hb = Stream_hub.create base in
        Stream_hub.set_push hb (fun ~client:_ _ -> true);
        let h = Stream_hub.handler hb in
        (h, fun () -> h.Server.on_drain ~timeout_s:120.0)
      end
      else (base, fun () -> ())
    in
    ignore (replay_ops h setup : replay);
    if traced then Trace_span.enable ();
    let r =
      Fun.protect
        ~finally:(fun () -> if traced then Trace_span.disable ())
        (fun () -> replay_ops ~threads h ops)
    in
    let spans = if traced then Trace_span.drain () else [] in
    finish ();
    (r, spans, Admission.shed_count (Router.admission router))
  in
  let plain, _, _ = pass false in
  let traced, spans, shed = pass true in
  let get, queue, ladders = analyse_spans spans in
  let ops = float_of_int (max 1 traced.ops) in
  let per_op_us s = 1e6 *. s /. ops in
  let job_run = get "job:run" and qsum = List.fold_left ( +. ) 0.0 queue in
  let on_path = if jobs_on_path then qsum +. job_run.dur_s else 0.0 in
  let covered = traced.decode_s +. traced.handle_s +. traced.encode_s +. on_path in
  let stage s = get ("stage:" ^ s) in
  let solve = stage "solve" and rung = get "nlp:rung" in
  let self name = m ("self." ^ name ^ "_us") "us" in
  let n = traced.ops in
  let rows =
    [ m "wire.decode_us" "us" (per_op_us traced.decode_s) n;
      m "wire.encode_us" "us" (per_op_us traced.encode_s) n;
      m "wire.request_kb" "KB" (float_of_int traced.bytes /. 1024.0 /. ops) n;
      m "router.handle_us" "us" (per_op_us traced.handle_s) n;
      m "admission.shed" "count" (float_of_int shed) 1;
      m "runtime.queue_wait_ms" "ms" (1e3 *. mean_of queue) (List.length queue);
      m "nlp.rungs_per_solve" "ratio" (ratio (float_of_int rung.count) (float_of_int ladders)) ladders;
      m "nlp.rung_ms" "ms" (1e3 *. ratio rung.dur_s (float_of_int rung.count)) rung.count;
      m "gc.minor_mwords_per_op" "Mwords" (plain.minor_words /. 1e6 /. ops) n;
      m "gc.major_collections" "count" (float_of_int plain.major) 1;
      (* self time per op along the blocking path; with the residual they
         add up to e2e.replay_us *)
      m "e2e.replay_us" "us" (per_op_us traced.total_s) n;
      self "decode" (per_op_us traced.decode_s) n;
      (* a watch's appends run inside the handler *)
      self "handle" (per_op_us (traced.handle_s -. (get "watch:append").dur_s)) n;
      self "queue" (per_op_us (if jobs_on_path then qsum else 0.0)) n;
      self "job_run" (per_op_us (if jobs_on_path then job_run.self_s else 0.0)) n;
      self "cache_fill" (per_op_us (if jobs_on_path then (get "cache:fill").self_s else 0.0)) n;
      self "learn" (per_op_us (if jobs_on_path then (stage "learn").self_s else 0.0)) n;
      self "eliminate" (per_op_us (if jobs_on_path then (stage "eliminate").self_s else 0.0)) n;
      self "solve" (per_op_us (if jobs_on_path then solve.self_s else 0.0)) n;
      self "nlp_rung" (per_op_us (if jobs_on_path then rung.self_s else 0.0)) n;
      self "check" (per_op_us (if jobs_on_path then (stage "check").self_s else 0.0)) n;
      self "watch_append" (per_op_us (get "watch:append").dur_s) n;
      self "encode" (per_op_us traced.encode_s) n;
      m "residual_pct" "%" (100.0 *. ratio (traced.total_s -. covered) traced.total_s) n;
      m "trace_overhead_pct" "%" (100.0 *. (ratio traced.total_s plain.total_s -. 1.0)) n ]
  in
  rows

(* -------------------------- result rendering ------------------------- *)

let metric_json x = Wire.Obj [ ("value", Wire.Num x.value); ("unit", Wire.Str x.unit_) ]

let print_rows title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-34s %14.4f %-6s (n=%d)\n" x.name x.value x.unit_ x.samples)
    rows

(* ---------------------------- workloads ------------------------------ *)

(* The rows every workload reports: its primary operation's rate, median
   and tail latency over [n] operations.  The tail is p90 for repair jobs
   (a run holds ~150) and p99 for RPCs.  For appends it is p90: their p99
   lies in a sparse tail of appends held up to one 5 ms poll tick (see
   [Srv.read_timeout]) and moved by ~30% between runs; p99 is still
   reported under its own name. *)
let e2e ctx ~setup_s ~rss ~ops_per_s ~p50_s ~tail_s ~n =
  [ m "setup_s" "s" setup_s (setups ctx);
    m "ops_per_s" "1/s" ops_per_s n;
    m "op_p50_ms" "ms" (1e3 *. p50_s) n;
    m "op_tail_ms" "ms" (1e3 *. tail_s) n;
    m "server_rss_mb" "MB" rss 1 ]

(* Rate, median and [tail_p] latency of operations given as (completion
   time, latency), each the median over the run's one-second windows of
   that window's own figure: a burst of outside load on the host that
   covers a few windows barely moves it.  For the short RPCs and appends,
   whose latency such bursts double. *)
let windowed ~t0 ~seconds ~tail_p done_lat =
  let bins = Array.make (max 1 (int_of_float seconds)) [] in
  List.iter
    (fun (t, l) ->
      let b = int_of_float (t -. t0) in
      if b >= 0 && b < Array.length bins then bins.(b) <- l :: bins.(b))
    done_lat;
  let figs =
    Array.map
      (fun ls ->
        let s = Array.of_list ls in
        Array.sort compare s;
        (float_of_int (Array.length s), pct s 0.5, pct s tail_p))
      bins
  in
  let med f = median_of (Array.to_list (Array.map f figs)) in
  (med (fun (c, _, _) -> c), med (fun (_, p, _) -> p), med (fun (_, _, t) -> t))

let failed_ratio ~attempted ~failed =
  m "failed_ratio" "ratio" (ratio (float_of_int failed) (float_of_int attempted)) attempted

(* ~~~ repair_mix: ~150 distinct jobs of all four kinds, each connection
   running submit + wait in sequence.  The repair stack does nearly all
   the work; the report cache misses by construction. ~~~ *)

type served_job = { idx : int; lat : float; got : (string * string, string) result }

let repair_mix ctx =
  let sizes = if ctx.smoke then Gen.smoke_sizes else Gen.full_sizes in
  let pregen = Array.init (int_of_float (ctx.seconds *. 16.0)) (Gen.repair_job ~sizes ctx.seed) in
  let job_at i = if i < Array.length pregen then pregen.(i) else Gen.repair_job ~sizes ctx.seed i in
  let connect srv = Array.init 2 (fun _ -> Client.connect (`Unix srv.Srv.sock)) in
  with_server ctx ~setup:connect ~close:(Array.iter Client.close) @@ fun srv clients setup_s ->
  let next = Atomic.make 0 and mu = Mutex.create () and results = ref [] and shed = Atomic.make 0 in
  let t0 = now () in
  let deadline = t0 +. ctx.seconds in
  let conn cl () =
    while now () < deadline do
      let idx = Atomic.fetch_and_add next 1 in
      let req = job_at idx in
      let ts = now () in
      let got =
        match Client.run cl req with
        | d, Wire.Job_done rep -> Ok (d, rep)
        | _, _ -> Error "job did not complete"
        | exception Client.Remote_error e ->
          if e.Wire.kind = "overloaded" then Atomic.incr shed;
          Error e.Wire.message
        | exception e -> Error (Printexc.to_string e)
      in
      let lat = now () -. ts in
      locked mu (fun () -> results := { idx; lat; got } :: !results)
    done
  in
  List.iter Thread.join (List.map (fun cl -> Thread.create (conn cl) ()) (Array.to_list clients));
  let elapsed = now () -. t0 in
  let stats = Client.stats clients.(0) in
  let rss = Srv.peak_rss_mb srv in
  let ping = if ctx.trace then [ ping_rtt srv ] else [] in
  let served = List.sort (fun a b -> compare a.idx b.idx) !results in
  (* oracle: byte-identical to the direct in-process run, and verified *)
  let directs = par_map (fun j -> run_direct (job_at j.idx)) served in
  let bad =
    List.fold_left2
      (fun bad j d ->
        match (j.got, d.report) with
        | Ok (dg, rep), Ok want when rep = want && dg = d.digest && verified rep -> bad
        | got, want ->
          let show = function Ok (_, r) | Error r -> r in
          Printf.eprintf "repair_mix job %d (%s) mismatch:\n--- served\n%s\n--- direct\n%s\n%!" j.idx d.kind
            (show got)
            (match want with Ok r | Error r -> r);
          bad + 1)
      0 served directs
  in
  let pooled = Array.of_list (List.map (fun j -> j.lat) served) in
  Array.sort compare pooled;
  let kind_p50 k =
    let xs = List.filter (fun j -> Gen.kinds.(j.idx mod 4) = k) served in
    m (String.map (function '-' -> '_' | c -> c) k ^ "_p50_ms") "ms"
      (1e3 *. median_of (List.map (fun j -> j.lat) xs)) (List.length xs)
  in
  let kinds = List.map kind_p50 (Array.to_list Gen.kinds) in
  (* The pooled median of the four kinds falls in the gap between the fast
     (model, data) and slow (reward, pipeline) kinds and jumps across it
     from seed to seed; the geometric mean of the kinds' medians is
     steady and moves with each of them. *)
  let p50_s = 1e-3 *. Float.exp (mean_of (List.map (fun x -> Float.log x.value) kinds)) in
  let attempted = List.length served in
  let rows =
    e2e ctx ~setup_s ~rss ~ops_per_s:(float_of_int attempted /. elapsed) ~p50_s
      ~tail_s:(pct pooled 0.9) ~n:attempted
  in
  let named =
    [ m "jobs_per_s" "jobs/s" (float_of_int attempted /. elapsed) attempted;
      m "job_p50_ms" "ms" (1e3 *. pct pooled 0.5) attempted;
      m "job_p90_ms" "ms" (1e3 *. pct pooled 0.9) attempted ]
    @ kinds
    @ [ failed_ratio ~attempted ~failed:bad ]
  in
  let layers =
    if not ctx.trace then []
    else
      let take = if ctx.smoke then 8 else 40 in
      let ops =
        Array.of_list
          (List.filteri (fun i _ -> i < take)
             (List.map (fun j -> { req = Wire.Submit (job_at j.idx); await = true }) served))
      in
      let rows = replay_layers ~threads:2 ~jobs_on_path:true ~setup:[||] ops in
      ping @ rows @ direct_rows directs
      @ [ m "admission.shed_served" "count" (float_of_int (Atomic.get shed)) 1 ]
  in
  { attempted; failed = bad; e2e = rows; named; layers; stats;
    inputs = inputs_digest (List.init 8 (fun i -> frame_of_request (Wire.Submit (job_at i)))) }

(* ~~~ warm_rpc: small requests against a filled report cache, a window
   of 8 outstanding per connection.  The serving path does nearly all the
   work; the repair stack is idle. ~~~ *)

type expect =
  | Cached_accept of string  (** resubmit: Accepted, cached, this digest *)
  | Done_report of string  (** wait/poll: Job_done with this report *)
  | Fresh_accept of int  (** fresh check submitted: follow with a wait *)
  | Fresh_done of int  (** fresh check's report *)

let window = 8

let warm_rpc ctx =
  let fill = if ctx.smoke then 6 else 24 in
  let fill_reqs = Array.init fill (Gen.fill_job ctx.seed) in
  let fill_jobs srv =
    let out = Array.make fill ("", "") in
    let conn r () =
      Client.with_client (`Unix srv.Srv.sock) @@ fun cl ->
      Array.iteri
        (fun i req ->
          if i mod 2 = r then
            match Client.run cl req with
            | d, Wire.Job_done rep -> out.(i) <- (d, rep)
            | _ -> failwith "set-up repair did not complete")
        fill_reqs
    in
    List.iter Thread.join (List.init 2 (fun r -> Thread.create (conn r) ()));
    (out, Array.init 2 (fun _ -> Srv.connect srv.Srv.sock))
  in
  with_server ctx ~setup:fill_jobs ~close:(fun (_, cs) -> Array.iter Srv.close cs)
  @@ fun srv (filled, conns) setup_s ->
  let next = Atomic.make 0 and mu = Mutex.create () in
  let done_lat = ref [] and bad = Atomic.make 0 and shed = Atomic.make 0 in
  let fresh = ref [] in
  let t0 = now () in
  let deadline = t0 +. ctx.seconds in
  let op_request i =
    match Gen.rpc_op ~fill ctx.seed i with
    | Gen.Resubmit f -> (Wire.Submit fill_reqs.(f), Cached_accept (fst filled.(f)))
    | Gen.Wait_done f -> (Wire.Wait (fst filled.(f), None), Done_report (snd filled.(f)))
    | Gen.Poll_done f -> (Wire.Poll (fst filled.(f)), Done_report (snd filled.(f)))
    | Gen.Fresh_check i -> (Wire.Submit (Gen.fresh_check ctx.seed i), Fresh_accept i)
  in
  let conn c () =
    let pending = Hashtbl.create 16 and ids = ref 0 and my_lat = ref [] and my_fresh = ref [] in
    let frame (req, ex) =
      incr ids;
      Hashtbl.replace pending !ids (now (), ex);
      Wire.request_to_json ~id:!ids req
    in
    let issue () =
      if now () < deadline then [ frame (op_request (Atomic.fetch_and_add next 1)) ] else []
    in
    Srv.send c (List.concat (List.init window (fun _ -> issue ())));
    while Hashtbl.length pending > 0 do
      let replies = Srv.recv c in
      let t = now () in
      let out =
        List.concat_map
          (fun j ->
            let id, resp = Wire.response_of_json j in
            let ts, ex = Hashtbl.find pending id in
            Hashtbl.remove pending id;
            my_lat := (t, t -. ts) :: !my_lat;
            let ok, follow =
              match (ex, resp) with
              | Cached_accept d, Wire.Accepted { job; cached } -> (job = d && cached, [])
              | Done_report r, Wire.Status { state = Wire.Job_done rep; _ } -> (rep = r, [])
              | Fresh_accept i, Wire.Accepted { job; _ } ->
                (true, [ frame (Wire.Wait (job, None), Fresh_done i) ])
              | Fresh_done i, Wire.Status { state = Wire.Job_done rep; _ } ->
                my_fresh := (i, rep) :: !my_fresh;
                (true, [])
              | _, Wire.Error_reply e ->
                if e.Wire.kind = "overloaded" then Atomic.incr shed;
                (false, [])
              | _ -> (false, [])
            in
            if not ok then begin
              Printf.eprintf "warm_rpc reply %d unexpected: %s\n%!" id (Wire.render (Wire.response_to_json ~id resp));
              Atomic.incr bad
            end;
            if follow <> [] then follow else issue ())
          replies
      in
      if out <> [] then Srv.send c out
    done;
    locked mu (fun () ->
        done_lat := List.rev_append !my_lat !done_lat;
        fresh := !my_fresh @ !fresh)
  in
  List.iter Thread.join (List.map (fun c -> Thread.create (conn c) ()) (Array.to_list conns));
  let stats = Client.with_client (`Unix srv.Srv.sock) Client.stats in
  let rss = Srv.peak_rss_mb srv in
  let ping = if ctx.trace then [ ping_rtt srv ] else [] in
  (* oracle: set-up reports against direct runs; fresh checks against a
     direct Check_dtmc run of the same job *)
  let fill_directs = par_map run_direct (Array.to_list fill_reqs) in
  let fill_bad =
    List.fold_left2
      (fun b (d, rep) dr ->
        match dr.report with
        | Ok want when rep = want && dr.digest = d && verified rep -> b
        | _ ->
          Printf.eprintf "warm_rpc set-up repair %s differs from the direct run:\n%s\n%!" d rep;
          b + 1)
      0 (Array.to_list filled) fill_directs
  in
  let model = Dtmc_io.parse Gen.wsn_model.(3) in
  let check_directs =
    List.map
      (fun (i, rep) ->
        let phi =
          match Gen.fresh_check ctx.seed i with Wire.Check_req { phi; _ } -> phi | _ -> assert false
        in
        let t0 = now () in
        let o = Job.run (Job.Check { model; phi = Pctl_parser.parse phi }) in
        let t1 = now () in
        let want = report_of o in
        ( rep = want,
          { kind = "check"; report = Ok want; digest = ""; digest_s = 0.; run_s = t1 -. t0;
            render_s = now () -. t1 } ))
      !fresh
  in
  let check_bad = List.length (List.filter (fun (ok, _) -> not ok) check_directs) in
  if check_bad > 0 then Printf.eprintf "warm_rpc: %d fresh checks differ from Check_dtmc\n%!" check_bad;
  let failed = Atomic.get bad + fill_bad + check_bad in
  let ops = List.length !done_lat in
  let attempted = ops + fill in
  let ops_per_s, p50_s, tail_s = windowed ~t0 ~seconds:ctx.seconds ~tail_p:0.99 !done_lat in
  let rows = e2e ctx ~setup_s ~rss ~ops_per_s ~p50_s ~tail_s ~n:ops in
  let named =
    [ m "rpc_per_s" "req/s" ops_per_s ops;
      m "rpc_p50_us" "us" (1e6 *. p50_s) ops;
      m "rpc_p99_us" "us" (1e6 *. tail_s) ops;
      m "fresh_checks" "count" (float_of_int (List.length !fresh)) 1;
      failed_ratio ~attempted ~failed ]
  in
  let layers =
    if not ctx.trace then []
    else
      let take = min ops (if ctx.smoke then 500 else 20_000) in
      let setup = Array.map (fun r -> { req = Wire.Submit r; await = true }) fill_reqs in
      let digests = Array.map (fun r -> Job.digest (Wire.job_of_request r)) fill_reqs in
      let ops =
        Array.init take (fun i ->
            match Gen.rpc_op ~fill ctx.seed i with
            | Gen.Resubmit f -> { req = Wire.Submit fill_reqs.(f); await = false }
            | Gen.Wait_done f -> { req = Wire.Wait (digests.(f), None); await = false }
            | Gen.Poll_done f -> { req = Wire.Poll digests.(f); await = false }
            | Gen.Fresh_check i -> { req = Wire.Submit (Gen.fresh_check ctx.seed i); await = true })
      in
      let rows = replay_layers ~jobs_on_path:true ~setup ops in
      ping @ rows
      @ direct_rows (fill_directs @ List.map snd check_directs)
      @ [ m "admission.shed_served" "count" (float_of_int (Atomic.get shed)) 1 ]
  in
  { attempted; failed; e2e = rows; named; layers; stats;
    inputs = inputs_digest (List.init 16 (fun i -> frame_of_request (fst (op_request i)))
                            @ Array.to_list (Array.map (fun r -> frame_of_request (Wire.Submit r)) fill_reqs)) }

(* ~~~ watch_stream: one connection appends seeded chunks round-robin to
   a few watches on the WSN n=3 data-repair spec, the other follows the
   pushes.  Loose watches mostly take the cached re-check; every
   [strict_every]-th append goes to the strict watch, violates, and
   submits a Data Repair of that watch's whole history. ~~~ *)

let loose_watches = 3

type appended = {
  aidx : int;
  watch : int;
  chunk : string;
  t_reply : float;
  lat_s : float;  (** append sent → verdict received *)
  reply : (Client.appended, string) result;
}

let watch_stream ctx =
  let strict_every = 200 in
  let pool = Array.init 512 (Gen.small_chunk ctx.seed) in
  let plan a =
    if a <= loose_watches then (a, Gen.first_chunk ctx.seed a)
    else if a mod strict_every = 0 then (0, Gen.strict_chunk ctx.seed a)
    else (1 + (a mod loose_watches), pool.(a mod Array.length pool))
  in
  let names = Array.of_list (Gen.watch_names (1 + loose_watches)) in
  let specs = Array.init (1 + loose_watches) (fun w -> Gen.watch_spec (Gen.watch_phi ctx.seed w)) in
  let pushes = ref [] and mu = Mutex.create () and stop = Atomic.make false in
  let setup srv =
    let fl = Client.connect ~timeout_s:0.2 (`Unix srv.Srv.sock) in
    Array.iteri (fun w name -> ignore (Client.watch fl ~spec:specs.(w) name : int * bool)) names;
    pushes := [];
    Atomic.set stop false;
    let follower () =
      try
        Client.follow fl
          ~on_idle:(fun () -> if Atomic.get stop then `Stop else `Continue)
          (fun n ->
            locked mu (fun () -> pushes := (now (), n) :: !pushes);
            if Atomic.get stop then `Stop else `Continue)
      with _ -> ()
    in
    let th = Thread.create follower () in
    let ap = Client.connect (`Unix srv.Srv.sock) in
    (fl, th, ap)
  in
  let close (fl, th, ap) =
    Atomic.set stop true;
    Thread.join th;
    Client.close fl;
    Client.close ap
  in
  with_server ctx ~setup ~close @@ fun srv (_, _, ap) setup_s ->
  let t0 = now () in
  let deadline = t0 +. ctx.seconds in
  let rec run a acc =
    if now () >= deadline then (a, List.rev acc)
    else
      let watch, chunk = plan a in
      let ts = now () in
      let reply =
        match Client.append_chunk ap ~watch:names.(watch) chunk with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      let t = now () in
      run (a + 1) ({ aidx = a; watch; chunk; t_reply = t; lat_s = t -. ts; reply } :: acc)
  in
  let n_appends, appends = run 0 [] in
  let violations =
    List.filter_map
      (fun a -> match a.reply with Ok { Client.violated = true; job = Some d; _ } -> Some (a, d) | _ -> None)
      appends
  in
  (* every violation's repair must be pushed before the server stops *)
  let pushed d =
    List.find_opt
      (fun (_, (n : Wire.notification)) -> n.job = Some d && n.event <> "violation")
      (locked mu (fun () -> !pushes))
  in
  let wait_deadline = now () +. 120.0 in
  while List.exists (fun (_, d) -> pushed d = None) violations && now () < wait_deadline do
    Thread.delay 0.01
  done;
  let stats = Client.stats ap in
  let rss = Srv.peak_rss_mb srv in
  let ping = if ctx.trace then [ ping_rtt srv ] else [] in
  (* oracle 1: each Appended verdict equals an in-process Inc_learn +
     Inc_check replay of the same chunks *)
  let learners = Array.init (1 + loose_watches) (fun _ -> Inc_learn.create ~n:9) in
  let checkers =
    Array.map
      (fun (s : Wire.watch_spec) ->
        Inc_check.create ~n:9 ~init:s.init ~labels:s.labels
          ?rewards:(Option.map (fun rs -> Array.of_list (List.map Ratio.of_float rs)) s.rewards)
          (Pctl_parser.parse s.phi))
      specs
  in
  let history = Array.make (1 + loose_watches) [] in
  let learn_t = Samples.create () and cached_t = Samples.create () and elim_t = Samples.create () in
  let bad = ref 0 and repairs = ref [] in
  List.iter
    (fun a ->
      let l = learners.(a.watch) in
      history.(a.watch) <- a.chunk :: history.(a.watch);
      let t0 = now () in
      let r = Inc_learn.append l a.chunk in
      let t1 = now () in
      let v =
        match Inc_check.check checkers.(a.watch) ~support_changed:r.Inc_learn.support_changed (Inc_learn.counts l) with
        | v -> Some v
        | exception _ -> None
      in
      let t2 = now () in
      Samples.add learn_t (t1 -. t0);
      (match v with
       | Some { Inc_check.path = `Cached; _ } -> Samples.add cached_t (t2 -. t1)
       | Some { Inc_check.path = `Eliminated; _ } -> Samples.add elim_t (t2 -. t1)
       | None -> ());
      match a.reply with
      | Error e ->
        Printf.eprintf "watch_stream append %d failed: %s\n%!" a.aidx e;
        incr bad
      | Ok got ->
        let value = Option.map (fun v -> v.Inc_check.value) v in
        let violated = match v with Some v -> v.Inc_check.violated | None -> false in
        if got.Client.value <> value || got.violated <> violated || got.lines <> r.Inc_learn.lines then begin
          Printf.eprintf "watch_stream append %d (watch %d) verdict differs from the replay\n%!" a.aidx a.watch;
          incr bad
        end;
        (match got.job with
         | Some d when violated ->
           (* the batch job parses the concatenated history; the watch
              submits it in Trace_io's canonical form *)
           let traces = Trace_io.to_string (Trace_io.parse (String.concat "" (List.rev history.(a.watch)))) in
           repairs := (d, specs.(a.watch), traces) :: !repairs
         | None when violated ->
           Printf.eprintf "watch_stream append %d violated but submitted no repair\n%!" a.aidx;
           incr bad
         | _ -> ()))
    appends;
  (* oracle 2: each repair push equals a batch Data Repair of the watch's
     concatenated history *)
  let directs =
    par_map
      (fun (d, spec, traces) ->
        let dr = run_direct (Wire.job_request_of_watch spec ~traces) in
        let ok =
          dr.digest = d
          && (match pushed d with
              | Some (_, { Wire.event = "repair"; report = Some rep; _ }) ->
                dr.report = Ok rep && verified rep
              | _ -> false)
        in
        if not ok then
          Printf.eprintf "watch_stream repair %s differs from the batch Data Repair: digest %b push %s\n%!" d (dr.digest = d)
            (match pushed d with
             | Some (_, { Wire.event; report = Some rep; _ }) -> event ^ "\n" ^ rep ^ "\n--- direct\n" ^ (match dr.report with Ok r | Error r -> r)
             | Some (_, { Wire.event; error; _ }) -> event ^ " " ^ (match error with Some e -> e.Wire.message | None -> "")
             | None -> "none");
        (ok, dr, String.length traces))
      (List.rev !repairs)
  in
  let failed = !bad + List.length (List.filter (fun (ok, _, _) -> not ok) directs) in
  let attempted = n_appends + List.length violations in
  let notify =
    List.filter_map
      (fun (a, d) -> Option.map (fun (t, _) -> t -. a.t_reply) (pushed d))
      violations
  in
  let done_lat = List.map (fun a -> (a.t_reply, a.lat_s)) appends in
  let ops_per_s, p50_s, tail_s = windowed ~t0 ~seconds:ctx.seconds ~tail_p:0.9 done_lat in
  let _, _, p99_s = windowed ~t0 ~seconds:ctx.seconds ~tail_p:0.99 done_lat in
  let rows = e2e ctx ~setup_s ~rss ~ops_per_s ~p50_s ~tail_s ~n:n_appends in
  let named =
    [ m "appends_per_s" "1/s" ops_per_s n_appends;
      m "append_p50_us" "us" (1e6 *. p50_s) n_appends;
      m "append_p90_us" "us" (1e6 *. tail_s) n_appends;
      m "append_p99_us" "us" (1e6 *. p99_s) n_appends;
      m "repair_notify_p50_ms" "ms" (1e3 *. median_of notify) (List.length notify);
      m "violations" "count" (float_of_int (List.length violations)) 1;
      failed_ratio ~attempted ~failed ]
  in
  let layers =
    if not ctx.trace then []
    else
      let take = min n_appends (if ctx.smoke then 200 else 20_000) in
      let setup =
        Array.mapi
          (fun w name -> { req = Wire.Watch_op { watch = name; spec = Some specs.(w); from_seq = None }; await = false })
          names
      in
      let ops =
        Array.init take (fun a ->
            let w, chunk = plan a in
            { req = Wire.Append_chunk { watch = names.(w); chunk }; await = false })
      in
      let rows = replay_layers ~hub:true ~jobs_on_path:false ~setup ops in
      let mean s = let a = Samples.sorted s in ratio (Array.fold_left ( +. ) 0.0 a) (float_of_int (Array.length a)) in
      let nc = cached_t.Samples.n and ne = elim_t.Samples.n in
      ping @ rows
      @ direct_rows (List.map (fun (_, d, _) -> d) directs)
      @ [ m "inc_learn.append_us" "us" (1e6 *. mean learn_t) learn_t.Samples.n;
          m "inc_check.cached_us" "us" (1e6 *. mean cached_t) nc;
          m "inc_check.eliminate_ms" "ms" (1e3 *. mean elim_t) ne;
          m "inc_check.cached_ratio" "ratio" (ratio (float_of_int nc) (float_of_int (nc + ne))) (nc + ne);
          m "stream.repair_history_kb" "KB"
            (mean_of (List.map (fun (_, _, b) -> float_of_int b /. 1024.0) directs))
            (List.length directs) ]
  in
  { attempted; failed; e2e = rows; named; layers; stats;
    inputs = inputs_digest (List.init 16 (fun a -> snd (plan a))) }


(* -------------------------------- main ------------------------------- *)

let workloads = [ ("repair_mix", repair_mix); ("warm_rpc", warm_rpc); ("watch_stream", watch_stream) ]

(* Every traced run reports every layer row, 0 where the workload leaves
   the layer idle, so rows line up across workloads. *)
let layer_names =
  [ ("server.ping_rtt_us", "us"); ("wire.decode_us", "us"); ("wire.encode_us", "us");
    ("wire.request_kb", "KB"); ("router.handle_us", "us"); ("admission.shed", "count");
    ("admission.shed_served", "count"); ("runtime.queue_wait_ms", "ms");
    ("runtime.queue_max_depth", "count"); ("runtime.report_cache_hit_ratio", "ratio");
    ("runtime.elim_cache_hit_ratio", "ratio"); ("runtime.retries", "count");
    ("runtime.respawns", "count"); ("job.digest_us", "us"); ("job.render_us", "us");
    ("job.run_ms.model_repair", "ms"); ("job.run_ms.data_repair", "ms");
    ("job.run_ms.reward_repair", "ms"); ("job.run_ms.pipeline", "ms"); ("job.run_ms.check", "ms");
    ("learn.ms", "ms"); ("learn.count", "count"); ("eliminate.ms", "ms"); ("eliminate.count", "count");
    ("solve.ms", "ms"); ("solve.count", "count"); ("nlp.rungs_per_solve", "ratio");
    ("nlp.rung_ms", "ms"); ("check.ms", "ms"); ("check.count", "count");
    ("inc_learn.append_us", "us"); ("inc_check.cached_us", "us"); ("inc_check.eliminate_ms", "ms");
    ("inc_check.cached_ratio", "ratio"); ("stream.repair_history_kb", "KB");
    ("gc.minor_mwords_per_op", "Mwords"); ("gc.major_collections", "count");
    ("e2e.replay_us", "us"); ("self.decode_us", "us"); ("self.handle_us", "us");
    ("self.queue_us", "us"); ("self.job_run_us", "us"); ("self.cache_fill_us", "us");
    ("self.learn_us", "us"); ("self.eliminate_us", "us"); ("self.solve_us", "us");
    ("self.nlp_rung_us", "us"); ("self.check_us", "us"); ("self.watch_append_us", "us");
    ("self.encode_us", "us"); ("residual_pct", "%"); ("trace_overhead_pct", "%") ]

let canonical_layers rows =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) rows with
      | Some x -> x
      | None -> m name unit_ 0.0 0)
    layer_names

let commit = ref "unknown"

let execute ctx (name, f) =
  let r = f ctx in
  let served_stats = stats_rows r.stats in
  let layers = canonical_layers (r.layers @ served_stats) in
  let rows_json rows = Wire.Obj (List.map (fun x -> (x.name, Wire.Obj [ ("value", Wire.Num x.value); ("unit", Wire.Str x.unit_); ("samples", Wire.Num (float_of_int x.samples)) ])) rows) in
  let doc =
    Wire.Obj
      [ ("workload", Wire.Str name); ("seed", Wire.Num (float_of_int ctx.seed));
        ("seconds", Wire.Num ctx.seconds); ("trace", Wire.Bool ctx.trace);
        ("nproc", Wire.Num (float_of_int (Domain.recommended_domain_count ())));
        ("server", Wire.Obj [ ("workers", Wire.Num (float_of_int Srv.workers)); ("loops", Wire.Num (float_of_int Srv.loops)) ]);
        ("ocaml", Wire.Str Sys.ocaml_version); ("commit", Wire.Str !commit);
        ("inputs", Wire.Str r.inputs); ("attempted", Wire.Num (float_of_int r.attempted));
        ("failed", Wire.Num (float_of_int r.failed)); ("end_to_end", rows_json r.e2e);
        ("named", rows_json r.named); ("server_stats", rows_json served_stats); ("per_layer", rows_json (if ctx.trace then layers else []));
        ("stats", r.stats) ]
  in
  let file = Filename.concat ctx.dir (Printf.sprintf "%s-seed%d-trace%d.json" name ctx.seed (Bool.to_int ctx.trace)) in
  Out_channel.with_open_text file (fun oc -> output_string oc (Wire.render doc));
  Printf.printf "workload %s  seed %d  %.0fs  nproc %d  server --workers %d --loops %d  ocaml %s  commit %s\n"
    name ctx.seed ctx.seconds (Domain.recommended_domain_count ()) Srv.workers Srv.loops Sys.ocaml_version !commit;
  print_rows "end-to-end" r.e2e;
  print_rows "end-to-end (named)" r.named;
  print_rows "server stats" served_stats;
  if ctx.trace then print_rows "per-layer" layers;
  Printf.printf "attempted %d  failed %d  results %s\n" r.attempted r.failed file;
  (r, layers)

let result_line ctx (r, layers) =
  let metrics = if ctx.trace then layers else r.e2e in
  Wire.render
    (Wire.Obj
       [ ("correct", Wire.Bool (r.failed = 0)); ("attempted", Wire.Num (float_of_int r.attempted));
         ("failed", Wire.Num (float_of_int r.failed));
         ("metrics", Wire.Obj (List.map (fun x -> (x.name, metric_json x)) metrics)) ])

(* Seconds-long runs of every workload on two seeds, traced once: the
   oracle must pass on both, and the two seeds must generate different
   inputs. *)
let smoke ctx =
  let ok = ref true in
  List.iter
    (fun ((name, _) as wl) ->
      let run seed trace = fst (execute { ctx with seed; trace; seconds = 1.5; smoke = true } wl) in
      let a = run 1 false and b = run 2 false and t = run 1 true in
      let pass = a.failed = 0 && b.failed = 0 && t.failed = 0 && a.inputs <> b.inputs in
      Printf.printf "smoke %-12s %s\n%!" name (if pass then "ok" else "FAILED");
      if not pass then ok := false)
    workloads;
  if not !ok then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | k :: _ -> failwith ("unexpected argument " ^ k)
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let need k = match get k with Some v -> v | None -> failwith ("missing --" ^ k) in
  Option.iter (fun c -> commit := c) (get "commit");
  let dir = Option.value ~default:"." (get "dir") in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let ctx =
    { tml = need "tml"; dir; seed = int_of_string (Option.value ~default:"1" (get "seed"));
      seconds = float_of_string (Option.value ~default:"10" (get "seconds"));
      smoke = get "smoke" <> None; trace = get "trace" = Some "1" }
  in
  if ctx.smoke then smoke ctx
  else
    let w = need "workload" in
    match List.assoc_opt w workloads with
    | None -> failwith ("unknown workload " ^ w)
    | Some f ->
      let res = execute ctx (w, f) in
      print_endline (result_line ctx res)
