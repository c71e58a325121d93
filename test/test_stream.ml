(* Tests for lib/stream: the incremental learner's differential
   correctness against the batch path (any chunking of a trace stream —
   including mid-line splits — produces identical counts, tallies,
   parameter points, job digests and repair reports), its bounded
   memory, absolute line numbers in cross-chunk validation errors, the
   incremental checker's cached/eliminated paths, and the watch hub end
   to end (subscriptions, violation → repair notifications, replay
   catch-up, push frames on a live server interleaved with a protocol-1
   client's replies). *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "tml-stream-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* ------------------------------ fixtures ------------------------------ *)

(* §V-A WSN observations (grouped success/failure single-step traces)
   and the §V-B car demonstrations — the paper's two case studies. *)
let wsn_params = Wsn.default_params
let wsn_n = wsn_params.Wsn.n * wsn_params.Wsn.n
let wsn_init = Wsn.node_id wsn_params wsn_params.Wsn.n wsn_params.Wsn.n
let wsn_labels = [ ("delivered", [ Wsn.node_id wsn_params 1 1 ]) ]

let wsn_groups () =
  Wsn.observation_groups (Prng.create 42) wsn_params ~count:60

let wsn_spec =
  {
    Wire.states = wsn_n;
    init = wsn_init;
    labels = wsn_labels;
    rewards = Some (List.init wsn_n (fun s -> if s = 0 then 0.0 else 1.0));
    phi = "R<=19 [ F delivered ]";
    max_drop = 0.999;
    pinned = [ "success" ];
    starts = 2;
    backend = "nlp";
  }

let car_n = 11

let car_spec =
  {
    Wire.states = car_n;
    init = 0;
    labels = [ ("target", [ Car.target_state ]) ];
    rewards = None;
    phi = "P<=0.5 [ F target ]";
    max_drop = 0.9;
    pinned = [];
    starts = 2;
    backend = "nlp";
  }

let car_groups () = [ ("expert", Car.expert_traces 4) ]

(* The property test's spec: [states] and the goal label are set per
   case. *)
let tiny_watch_spec =
  {
    Wire.states = 3;
    init = 0;
    labels = [];
    rewards = None;
    phi = "P<=0.3 [ F<=2 goal ]";
    max_drop = 0.9;
    pinned = [];
    starts = 1;
    backend = "nlp";
  }

(* Split [text] into [k] byte chunks (mid-line splits included — that is
   the point: chunk boundaries must be invisible). *)
let split_bytes text k =
  let len = String.length text in
  let k = max 1 (min k (max 1 len)) in
  let base = len / k in
  List.init k (fun i ->
      let off = i * base in
      let sz = if i = k - 1 then len - off else base in
      String.sub text off sz)

let split_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> l ^ "\n")

let stream n chunks =
  let l = Inc_learn.create ~n in
  List.iter (fun c -> ignore (Inc_learn.append l c : Inc_learn.append_result)) chunks;
  ignore (Inc_learn.flush l : Inc_learn.append_result);
  l

let all_traces groups = List.concat_map snd groups

let check_counts_equal what a b =
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun d v ->
          if v <> b.(s).(d) then
            Alcotest.failf "%s: counts differ at (%d,%d): %g vs %g" what s d v
              b.(s).(d))
        row)
    a

(* ------------------------- differential tests ------------------------- *)

(* Acceptance: a trace stream split into k chunks produces streamed
   counts, groups, parameter point and repair-job digest identical to
   the batch path on the concatenated text — both case studies,
   k ∈ {1, 2, 5, one-chunk-per-line} plus arbitrary byte splits. *)
let differential_case ?(expect_params = true) name n
    (spec : Wire.watch_spec) groups () =
  let text = Trace_io.to_string groups in
  let batch_counts = Mle.transition_counts ~n (all_traces (Trace_io.parse text)) in
  let batch_tallies = Trace_io.parse_tallies ~n text in
  let batch_jr = Wire.Data_repair_req
      {
        states = spec.Wire.states;
        init = spec.Wire.init;
        labels = spec.Wire.labels;
        rewards = spec.Wire.rewards;
        phi = spec.Wire.phi;
        traces = text;
        max_drop = spec.Wire.max_drop;
        pinned = spec.Wire.pinned;
        starts = spec.Wire.starts;
        backend = spec.Wire.backend;
      }
  in
  let batch_digest = Job.digest (Wire.job_of_request batch_jr) in
  let chunkings =
    List.map (split_bytes text) [ 1; 2; 5 ]
    @ [ split_lines text; split_bytes text 17 ]
  in
  List.iteri
    (fun i chunks ->
      let what = Printf.sprintf "%s chunking %d" name i in
      let l = stream n chunks in
      check_counts_equal what (Inc_learn.counts l) batch_counts;
      Alcotest.(check bool)
        (what ^ ": tallies identical") true
        (Inc_learn.tallies l = batch_tallies);
      (* the streamed job: the rendered tallies decode to the same Job.t
         as the trace text — equal digests *)
      let streamed_jr =
        Wire.job_request_of_watch spec
          ~traces:(Trace_io.tallies_to_string (Inc_learn.tallies l))
      in
      Alcotest.(check string)
        (what ^ ": job digest") batch_digest
        (Job.digest (Wire.job_of_request streamed_jr)))
    chunkings;
  (* the parameter point the checker evaluates is chunking-invariant *)
  let point_of chunks =
    let l = stream n chunks in
    let rewards =
      Option.map
        (fun rs -> Array.of_list (List.map Ratio.of_float rs))
        spec.Wire.rewards
    in
    let c =
      Inc_check.create ~n ~init:spec.Wire.init ~labels:spec.Wire.labels
        ?rewards
        (Pctl_parser.parse spec.Wire.phi)
    in
    ignore (Inc_check.check c (Inc_learn.counts l) : Inc_check.verdict);
    Inc_check.param_point c (Inc_learn.counts l)
  in
  let p1 = point_of (split_bytes text 1) in
  let p5 = point_of (split_bytes text 5) in
  Alcotest.(check bool) (name ^ ": param point invariant") true (p1 = p5);
  (* a fully deterministic support (the car demonstrations) has no free
     parameters — an empty point is correct there *)
  if expect_params then
    Alcotest.(check bool) (name ^ ": param point non-empty") true (p1 <> [])

let test_differential_wsn () =
  differential_case "wsn" wsn_n wsn_spec (wsn_groups ()) ()

let test_differential_car () =
  differential_case ~expect_params:false "car" car_n car_spec (car_groups ())
    ()

(* The full differential: the repair *report* of the streamed job is
   byte-identical to the batch one (equal digests make them the same
   job; this checks the whole decode-and-run path agrees). *)
let test_differential_report () =
  let groups = car_groups () in
  let text = Trace_io.to_string groups in
  let l = stream car_n (split_bytes text 3) in
  let streamed =
    Wire.job_of_request
      (Wire.job_request_of_watch car_spec
         ~traces:(Trace_io.tallies_to_string (Inc_learn.tallies l)))
  in
  let batch =
    Wire.job_of_request
      (Wire.job_request_of_watch car_spec ~traces:text)
  in
  Alcotest.(check string)
    "digests equal" (Job.digest batch) (Job.digest streamed);
  let report j = Format.asprintf "%a" Job.pp_outcome (Job.run j) in
  Alcotest.(check string) "reports byte-identical" (report batch)
    (report streamed)

(* The differential property on generated data: a default group (or
   none), named groups (some empty), action-carrying traces as in the car
   case, traces shuffled within their groups, random byte chunkings, and
   text mixing trace lines with tally lines.  Every form folds to the
   same tallies, so every form is one Data Repair job and one Pipeline
   job with byte-identical reports. *)

type gen_case = {
  n : int;
  groups : (string * Trace.t list) list;
  seed : int;  (* shuffles, splits and chunk cuts *)
}

let gen_case =
  let open QCheck2.Gen in
  let* n = int_range 3 5 in
  let* actions = bool in
  let trace =
    let* states = list_size (int_range 1 5) (int_bound (n - 1)) in
    let+ acts =
      list_size (return (List.length states - 1)) (oneofl [ "fwd"; "left"; "right" ])
    in
    match List.rev states with
    | final :: rev_steps when actions ->
      Trace.make (List.combine (List.rev rev_steps) acts) final
    | _ -> Trace.of_states states
  in
  let* default = list_size (int_range 0 4) trace in
  let* named = list_size (int_range 1 3) (list_size (int_range 0 6) trace) in
  let+ seed = int in
  let groups =
    (if default = [] then [] else [ ("", default) ])
    @ List.mapi (fun i traces -> (Printf.sprintf "g%d" i, traces)) named
  in
  { n; groups; seed }

let print_case c = Printf.sprintf "n=%d seed=%d\n%s" c.n c.seed (Trace_io.to_string c.groups)

let shuffle st l =
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))

(* Each group's traces split in two: the first part as trace lines, the
   rest as one tally line — the default group's right away (no directive
   can return to it), the named groups' after revisiting them. *)
let mixed_text st groups =
  let split traces =
    let k = Random.State.int st (List.length traces + 1) in
    (List.filteri (fun i _ -> i < k) traces, List.filteri (fun i _ -> i >= k) traces)
  in
  let parts = List.map (fun (g, traces) -> (g, split traces)) groups in
  let tally_line g rest = Trace_io.tallies_to_string [ (g, Tally.of_traces rest) ] in
  String.concat ""
    (List.map
       (fun (g, (first, rest)) ->
          Trace_io.to_string [ (g, first) ] ^ if g = "" then tally_line g rest else "")
       parts
     @ List.filter_map
         (fun (g, (_, rest)) -> if g = "" then None else Some (tally_line g rest))
         parts)

let random_chunks st text =
  let len = String.length text in
  let cuts =
    List.sort_uniq compare
      (List.init (Random.State.int st 6) (fun _ -> Random.State.int st (len + 1)))
  in
  let rec go from = function
    | [] -> [ String.sub text from (len - from) ]
    | c :: rest -> String.sub text from (c - from) :: go c rest
  in
  go 0 cuts

let prop_forms_agree c =
  let st = Random.State.make [| c.seed |] in
  let n = c.n in
  let trace_text = Trace_io.to_string c.groups in
  let tallies = Trace_io.parse_tallies ~n trace_text in
  let l = stream n (random_chunks st trace_text) in
  let forms =
    [
      ("trace text", trace_text);
      ( "shuffled trace text",
        Trace_io.to_string (List.map (fun (g, ts) -> (g, shuffle st ts)) c.groups) );
      ("tally text", Trace_io.tallies_to_string tallies);
      ("mixed text", mixed_text st c.groups);
      ("learner tallies", Trace_io.tallies_to_string (Inc_learn.tallies l));
    ]
  in
  let fail fmt = Printf.ksprintf (fun m -> QCheck2.Test.fail_report m) fmt in
  if tallies <> Tally.of_groups c.groups then fail "parse_tallies <> Tally.of_groups";
  if Inc_learn.tallies l <> tallies then fail "learner tallies <> batch tallies";
  if Trace_io.parse_tallies ~n (Trace_io.tallies_to_string tallies) <> tallies then
    fail "render/parse round trip";
  let spec =
    { tiny_watch_spec with Wire.states = n; labels = [ ("goal", [ n - 1 ]) ] }
  in
  let pipeline traces =
    Wire.Pipeline_req
      {
        states = n;
        init = 0;
        labels = spec.Wire.labels;
        rewards = None;
        model_spec = None;
        data_spec = Some (spec.Wire.max_drop, []);
        traces;
        phi = spec.Wire.phi;
      }
  in
  let outcome jr =
    let job = Wire.job_of_request jr in
    ( Job.digest job,
      match Job.run job with
      | o -> Format.asprintf "%a" Job.pp_outcome o
      | exception e -> Printexc.to_string e )
  in
  List.iter
    (fun mk ->
       let ref_digest, ref_report = outcome (mk trace_text) in
       List.iter
         (fun (what, text) ->
            let digest, report = outcome (mk text) in
            if digest <> ref_digest then fail "%s: digest differs" what;
            if report <> ref_report then
              fail "%s: report differs:\n%s\nvs\n%s" what report ref_report)
         (List.tl forms))
    [ (fun traces -> Wire.job_request_of_watch spec ~traces); pipeline ];
  true

let test_forms_agree =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 20261017 |])
    (QCheck2.Test.make ~name:"trace, tally and streamed forms agree" ~count:60
       ~print:print_case gen_case prop_forms_agree)

(* ------------------------ line numbers / atomicity -------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A bad line must be reported with its {e stream} line number, not its
   offset within the chunk that carried it — and a failed chunk must
   leave the learner untouched, valid leading lines included. *)
let test_absolute_line_numbers () =
  let l = Inc_learn.create ~n:3 in
  ignore (Inc_learn.append l "0 1 2\n0 " : Inc_learn.append_result);
  ignore (Inc_learn.append l "1\n" : Inc_learn.append_result);
  Alcotest.(check int) "two lines consumed" 2 (Inc_learn.lines_consumed l);
  let before = Array.map Array.copy (Inc_learn.counts l) in
  (match Inc_learn.append l "0 2\n0 7\n0 1\n" with
   | _ -> Alcotest.fail "out-of-range state accepted"
   | exception Trace_io.Parse_error msg ->
     Alcotest.(check bool)
       (Printf.sprintf "error %S names stream line 4" msg)
       true (contains msg "line 4"));
  (* atomicity: the failed chunk left nothing behind — not even its
     valid first line *)
  check_counts_equal "atomic failed append" (Inc_learn.counts l) before;
  Alcotest.(check int) "lines unchanged" 2 (Inc_learn.lines_consumed l);
  (match Inc_learn.append l "bogus tokens\n" with
   | _ -> Alcotest.fail "garbage accepted"
   | exception Trace_io.Parse_error msg ->
     Alcotest.(check bool)
       (Printf.sprintf "error %S still names line 3" msg)
       true (contains msg "line 3"));
  (* a sum past 2^53 names the line that fed the overflowing group, not
     the chunk's last line *)
  ignore
    (Inc_learn.append l "group a\ntally 1 0:1:9007199254740992\n"
     : Inc_learn.append_result);
  match Inc_learn.append l "group b\n0 2\ngroup a\ntally 1 0:1:1\ngroup b\n0 1\n" with
  | _ -> Alcotest.fail "overflowing sum accepted"
  | exception Trace_io.Parse_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names stream line 8" msg)
      true (contains msg "line 8")

let test_group_split_across_chunks () =
  let l = Inc_learn.create ~n:3 in
  ignore (Inc_learn.append l "group a\n0 1\ngro" : Inc_learn.append_result);
  ignore (Inc_learn.append l "up b\n0 2\n" : Inc_learn.append_result);
  let groups = Inc_learn.tallies l in
  Alcotest.(check (list string))
    "groups in order" [ "a"; "b" ] (List.map fst groups);
  Alcotest.(check bool)
    "same as batch parse" true
    (groups = Trace_io.parse_tallies ~n:3 "group a\n0 1\ngroup b\n0 2\n")

(* A learner keeps one tally per group, not the traces it has seen: its
   memory stops growing once the support is saturated.  Appends are
   watch_stream-shaped chunks of 14 WSN observations (plus group
   headers), cycling through a pool of distinct draws. *)
let test_bounded_memory () =
  let pool =
    Array.init 64 (fun i ->
        Trace_io.to_string
          (Wsn.observation_groups (Prng.create (1000 + i)) wsn_params ~count:14))
  in
  let l = Inc_learn.create ~n:wsn_n in
  let words () = Obj.reachable_words (Obj.repr l) in
  let at_1k = ref 0 in
  for i = 1 to 50_000 do
    ignore (Inc_learn.append l pool.(i mod 64) : Inc_learn.append_result);
    if i = 1_000 then at_1k := words ()
  done;
  let at_50k = words () in
  Alcotest.(check int) "every observation counted" (50_000 * 14)
    (Inc_learn.trace_count l);
  if float_of_int at_50k > 1.05 *. float_of_int !at_1k then
    Alcotest.failf "learner grew from %d words after 1k appends to %d after 50k"
      !at_1k at_50k

(* --------------------------- incremental check ------------------------ *)

let counts_of n traces = Mle.transition_counts ~n (List.map Trace.of_states traces)

let test_inc_check_paths () =
  let phi = Pctl_parser.parse "P>=0.9 [ F goal ]" in
  let c = Inc_check.create ~n:3 ~init:0 ~labels:[ ("goal", [ 2 ]) ] phi in
  let counts1 =
    counts_of 3 [ [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 0; 2 ]; [ 1; 2 ] ]
  in
  let v1 = Inc_check.check c counts1 in
  Alcotest.(check bool) "first check eliminates" true (v1.Inc_check.path = `Eliminated);
  Alcotest.(check (float 1e-9)) "all paths reach goal" 1.0 v1.Inc_check.value;
  Alcotest.(check bool) "not violated" false v1.Inc_check.violated;
  (* same support, new counts: the µs cached path *)
  let counts2 =
    counts_of 3 [ [ 0; 1; 2 ]; [ 0; 2 ]; [ 0; 2 ]; [ 0; 1; 2 ]; [ 1; 2 ] ]
  in
  let v2 = Inc_check.check c counts2 in
  Alcotest.(check bool) "unchanged support re-checks cached" true
    (v2.Inc_check.path = `Cached);
  Alcotest.(check int) "one elimination so far" 1 (Inc_check.eliminations c);
  (* a support change must re-eliminate — and agree with a fresh checker *)
  let counts3 =
    counts_of 3 [ [ 0; 1; 2 ]; [ 0; 1; 1; 2 ]; [ 0; 2 ]; [ 1; 1 ] ]
  in
  let v3 = Inc_check.check c ~support_changed:true counts3 in
  Alcotest.(check bool) "support change eliminates" true
    (v3.Inc_check.path = `Eliminated);
  let fresh = Inc_check.create ~n:3 ~init:0 ~labels:[ ("goal", [ 2 ]) ] phi in
  let vf = Inc_check.check fresh counts3 in
  Alcotest.(check (float 1e-12)) "cached and fresh paths agree"
    vf.Inc_check.value v3.Inc_check.value

let test_inc_check_cached_agrees_with_eliminated () =
  (* the cached arena evaluation must equal a from-scratch elimination
     at the same parameter point — on the WSN chain with rewards *)
  let phi = Pctl_parser.parse "R<=19 [ F delivered ]" in
  let rewards =
    Array.init wsn_n (fun s ->
        if s = Wsn.node_id wsn_params 1 1 then Ratio.zero else Ratio.one)
  in
  let mk () =
    Inc_check.create ~n:wsn_n ~init:wsn_init ~labels:wsn_labels ~rewards phi
  in
  (* enough observations that every forwarding edge is in the support —
     a sparse sample can leave a reachable failure-only state, which is
     the legitimate value-not-yet-available case, not this test *)
  let first =
    Wsn.observation_groups (Prng.create 42) wsn_params ~count:600
  in
  let c = mk () in
  let l1 = stream wsn_n [ Trace_io.to_string first ] in
  let v1 = Inc_check.check c (Inc_learn.counts l1) in
  (* more observations over the same support: cached path *)
  let more =
    Wsn.observation_groups (Prng.create 43) wsn_params ~count:600
  in
  let l2 = Inc_learn.create ~n:wsn_n in
  ignore (Inc_learn.append l2 (Trace_io.to_string first) : Inc_learn.append_result);
  let r = Inc_learn.append l2 (Trace_io.to_string more) in
  let v2 =
    Inc_check.check c ~support_changed:r.Inc_learn.support_changed
      (Inc_learn.counts l2)
  in
  let fresh = Inc_check.check (mk ()) (Inc_learn.counts l2) in
  Alcotest.(check (float 1e-9)) "cached = eliminated at same point"
    fresh.Inc_check.value v2.Inc_check.value;
  Alcotest.(check bool) "first check eliminated" true (v1.Inc_check.path = `Eliminated)

(* ------------------------------- hub ---------------------------------- *)

let tiny_spec =
  {
    Wire.states = 3;
    init = 0;
    labels = [ ("two", [ 2 ] ) ];
    rewards = None;
    phi = "P<=0.5 [ F two ]";
    max_drop = 0.9;
    pinned = [];
    starts = 1;
    backend = "nlp";
  }

let with_hub f =
  Runtime.with_runtime ~workers:2 @@ fun rt ->
  let router = Router.create rt in
  let hub =
    Stream_hub.create ~repair_wait_s:30.0 (Server.handler_of_router router)
  in
  let h = Stream_hub.handler hub in
  Fun.protect
    ~finally:(fun () ->
      h.Server.on_stop ();
      h.Server.on_drain ~timeout_s:15.0)
    (fun () -> f hub h)

let await ?(timeout_s = 20.0) what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout_s then
      Alcotest.failf "timed out awaiting %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let test_hub_violation_to_repair () =
  with_hub @@ fun hub h ->
  let pushes = ref [] and pm = Mutex.create () in
  Stream_hub.set_push hub (fun ~client j ->
      Mutex.lock pm;
      pushes := (client, j) :: !pushes;
      Mutex.unlock pm;
      true);
  (match h.Server.on_request ~client:7
           (Wire.Watch_op { watch = "w"; spec = Some tiny_spec; from_seq = None })
   with
   | Wire.Watched { watch = "w"; seq = 0; created = true } -> ()
   | _ -> Alcotest.fail "expected Watched created");
  Alcotest.(check int) "one subscription" 1 (Stream_hub.subscriptions hub);
  (* a mismatching re-registration is refused *)
  (match h.Server.on_request ~client:8
           (Wire.Watch_op
              {
                watch = "w";
                spec = Some { tiny_spec with Wire.max_drop = 0.5 };
                from_seq = None;
              })
   with
   | Wire.Error_reply e ->
     Alcotest.(check string) "mismatch kind" "bad-request" e.Wire.kind
   | _ -> Alcotest.fail "expected spec-mismatch error");
  (* violating appends: every trace reaches state 2 *)
  (match h.Server.on_request ~client:7
           (Wire.Append_chunk { watch = "w"; chunk = "0 1 2\n0 2\n" })
   with
   | Wire.Appended { violated = true; job = Some _; value = Some v; _ } ->
     Alcotest.(check (float 1e-9)) "learned value" 1.0 v
   | _ -> Alcotest.fail "expected violated Appended");
  let events () =
    Mutex.lock pm;
    let evs =
      List.filter_map
        (fun (_, j) ->
          match Wire.notification_of_json j with
          | n -> Some n.Wire.event
          | exception _ -> None)
        !pushes
    in
    Mutex.unlock pm;
    evs
  in
  await "violation push" (fun () -> List.mem "violation" (events ()));
  await "repair push" (fun () -> List.mem "repair" (events ()));
  (* replay catch-up: a late subscriber asking from seq 0 sees both *)
  (match h.Server.on_request ~client:9
           (Wire.Watch_op { watch = "w"; spec = None; from_seq = Some 0 })
   with
   | Wire.Watched { created = false; seq; _ } ->
     Alcotest.(check bool) "seq advanced" true (seq >= 2)
   | _ -> Alcotest.fail "expected Watched joined");
  await "replayed to client 9" (fun () ->
      Mutex.lock pm;
      let n = List.length (List.filter (fun (c, _) -> c = 9) !pushes) in
      Mutex.unlock pm;
      n >= 2);
  (* unwatch and disconnect bookkeeping *)
  (match h.Server.on_request ~client:9 (Wire.Unwatch "w") with
   | Wire.Unwatched { existed = true; _ } -> ()
   | _ -> Alcotest.fail "expected Unwatched existed");
  h.Server.on_disconnect ~client:7;
  Alcotest.(check int) "all unsubscribed" 0 (Stream_hub.subscriptions hub);
  Alcotest.(check bool) "queue bytes accounted" true
    (Stream_hub.notification_queue_bytes hub > 0);
  (* unknown watch *)
  (match h.Server.on_request ~client:7
           (Wire.Append_chunk { watch = "nope"; chunk = "0 1\n" })
   with
   | Wire.Error_reply e ->
     Alcotest.(check string) "unknown watch kind" "bad-request" e.Wire.kind
   | _ -> Alcotest.fail "expected unknown-watch error")

let test_hub_bad_chunk_keeps_state () =
  with_hub @@ fun _hub h ->
  (match h.Server.on_request ~client:1
           (Wire.Watch_op { watch = "w"; spec = Some tiny_spec; from_seq = None })
   with
   | Wire.Watched _ -> ()
   | _ -> Alcotest.fail "watch failed");
  (match h.Server.on_request ~client:1
           (Wire.Append_chunk { watch = "w"; chunk = "0 1\n" })
   with
   | Wire.Appended { lines = 1; _ } -> ()
   | _ -> Alcotest.fail "append failed");
  (* chunk 2 is malformed at stream line 2; handler answers a typed
     error and the learner keeps serving *)
  (match h.Server.on_request ~client:1
           (Wire.Append_chunk { watch = "w"; chunk = "0 9\n" })
   with
   | Wire.Error_reply e ->
     Alcotest.(check string) "kind" "bad-request" e.Wire.kind;
     Alcotest.(check bool)
       (Printf.sprintf "message %S has absolute line" e.Wire.message)
       true (contains e.Wire.message "line 2")
   | _ -> Alcotest.fail "expected parse error");
  (match h.Server.on_request ~client:1
           (Wire.Append_chunk { watch = "w"; chunk = "0 1\n" })
   with
   | Wire.Appended { lines = 1; _ } -> ()
   | _ -> Alcotest.fail "append after error failed")

(* --------------------------- live server ------------------------------ *)

let with_live_server f =
  Runtime.with_runtime ~workers:2 @@ fun rt ->
  let router = Router.create rt in
  let hub =
    Stream_hub.create ~repair_wait_s:30.0 (Server.handler_of_router router)
  in
  let path = fresh_sock () in
  let server =
    Server.start ~read_timeout_s:1.0 ~write_timeout_s:5.0 ~drain_timeout_s:15.0
      ~stats_extra:(Stream_hub.stats_fields hub)
      ~handler:(Stream_hub.handler hub) (`Unix path)
  in
  Stream_hub.set_push hub (fun ~client j -> Server.push server ~client j);
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f (`Unix path : Client.addr) hub)

(* A protocol-1 client that knows nothing about pushes keeps working on
   a subscribed connection: rpc/pipeline skip the unsolicited frames
   before id correlation. *)
let test_live_push_interleaving () =
  with_live_server @@ fun addr _hub ->
  Client.with_client addr @@ fun sub ->
  let seen = ref 0 in
  Client.set_push_handler sub (fun j ->
      if Wire.is_push j then incr seen);
  let _seq, created = Client.watch sub ~spec:tiny_spec "live" in
  Alcotest.(check bool) "created" true created;
  (* another connection streams violating chunks; the subscriber keeps
     issuing plain rpcs and pipelines meanwhile *)
  Client.with_client addr @@ fun appender ->
  for i = 1 to 5 do
    let r = Client.append_chunk appender ~watch:"live" "0 1 2\n0 2\n" in
    Alcotest.(check bool)
      (Printf.sprintf "append %d violated" i)
      true r.Client.violated;
    Client.ping sub;
    (match Client.pipeline sub [ Wire.Ping; Wire.Stats; Wire.Ping ] with
     | [ Wire.Pong; Wire.Stats_reply _; Wire.Pong ] -> ()
     | _ -> Alcotest.fail "pipelined replies misordered under push traffic")
  done;
  let t0 = Unix.gettimeofday () in
  while !seen < 5 && Unix.gettimeofday () -. t0 < 20.0 do
    Client.ping sub
  done;
  Alcotest.(check bool)
    (Printf.sprintf "subscriber saw %d pushes" !seen)
    true (!seen >= 5);
  (* the stats server section reports the hub's fields *)
  let stats = Client.stats sub in
  match Wire.member "server" stats with
  | Some (Wire.Obj fields) ->
    Alcotest.(check bool) "subscriptions field" true
      (List.mem_assoc "subscriptions" fields);
    Alcotest.(check bool) "queue bytes field" true
      (List.mem_assoc "notification_queue_bytes" fields)
  | _ -> Alcotest.fail "no server stats section"

let test_live_follow_and_reconnect () =
  with_live_server @@ fun addr _hub ->
  (* stream a violation with no subscriber attached at all *)
  (Client.with_client addr @@ fun c ->
   let _ = Client.watch c ~spec:tiny_spec "re" in
   let r = Client.append_chunk c ~watch:"re" "0 1 2\n0 2\n" in
   Alcotest.(check bool) "violated" true r.Client.violated);
  (* the subscriber connection above is gone (killed follower); a new
     one attaches with from_seq 0 and replays everything it missed *)
  Client.with_client ~timeout_s:0.5 addr @@ fun c ->
  let seq, created = Client.watch c ~spec:tiny_spec ~from_seq:0 "re" in
  Alcotest.(check bool) "attached, not created" false created;
  Alcotest.(check bool) "seq advanced" true (seq >= 1);
  let got_violation = ref false and got_repair = ref false in
  let deadline = Unix.gettimeofday () +. 25.0 in
  Client.follow c
    ~on_idle:(fun () ->
      if (!got_violation && !got_repair) || Unix.gettimeofday () > deadline
      then `Stop
      else `Continue)
    (fun n ->
      (match n.Wire.event with
       | "violation" -> got_violation := true
       | "repair" ->
         got_repair := true;
         Alcotest.(check bool) "repair carries report" true
           (n.Wire.report <> None)
       | _ -> ());
      if !got_violation && !got_repair then `Stop else `Continue);
  Alcotest.(check bool) "missed violation replayed" true !got_violation;
  Alcotest.(check bool) "repair notification arrives" true !got_repair

(* ------------------------------- suite -------------------------------- *)

let () =
  Alcotest.run "stream"
    [
      ( "differential",
        [
          Alcotest.test_case "wsn chunking invariance" `Quick
            test_differential_wsn;
          Alcotest.test_case "car chunking invariance" `Quick
            test_differential_car;
          Alcotest.test_case "streamed report = batch report" `Slow
            test_differential_report;
          test_forms_agree;
        ] );
      ( "learner",
        [
          Alcotest.test_case "absolute line numbers" `Quick
            test_absolute_line_numbers;
          Alcotest.test_case "group split across chunks" `Quick
            test_group_split_across_chunks;
          Alcotest.test_case "bounded memory" `Quick test_bounded_memory;
        ] );
      ( "checker",
        [
          Alcotest.test_case "cached vs eliminated paths" `Quick
            test_inc_check_paths;
          Alcotest.test_case "cached agrees with fresh elimination" `Quick
            test_inc_check_cached_agrees_with_eliminated;
        ] );
      ( "hub",
        [
          Alcotest.test_case "violation to repair notifications" `Slow
            test_hub_violation_to_repair;
          Alcotest.test_case "bad chunk keeps watch state" `Quick
            test_hub_bad_chunk_keeps_state;
        ] );
      ( "live",
        [
          Alcotest.test_case "push frames interleave with replies" `Slow
            test_live_push_interleaving;
          Alcotest.test_case "follow and reconnect catch-up" `Slow
            test_live_follow_and_reconnect;
        ] );
    ]
