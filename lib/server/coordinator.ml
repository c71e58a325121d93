(* The fleet coordinator: a Server.handler that owns no Runtime at all.
   It decodes submits just far enough to compute the job digest, picks
   the digest's owner on a consistent-hash Ring over the backend
   addresses, and proxies the RPC through Client — re-routing to the
   next ring successor on transient failure, replicating finished
   reports to the successor, and resubmitting from its own job-request
   registry when a failover node has never heard of a digest.  That
   last step is the zero-job-loss invariant: any job the coordinator
   accepted can be recomputed anywhere, and jobs are deterministic, so
   the re-run report is byte-identical. *)

type node_state = Healthy | Probation | Ejected | Draining | Drained

let state_name = function
  | Healthy -> "healthy"
  | Probation -> "probation"
  | Ejected -> "ejected"
  | Draining -> "draining"
  | Drained -> "drained"

type node = {
  name : string;  (* Client.addr_to_string of [addr]; the ring key *)
  addr : Client.addr;
  mutable state : node_state;
  mutable fails : int;  (* consecutive probe/RPC failures *)
  mutable in_flight : int;
  gauge : Metrics.gauge;
}

(* Every digest the coordinator currently tracks.  [req] is the wire
   payload kept for resubmission after a node death, or after every
   backend has evicted a finished job from its bounded job table;
   poll/wait/cancel on digests submitted elsewhere still route, they
   just cannot be recovered if no backend holds them.  Completed entries
   (payload included) are evicted FIFO past [max_completed], so the
   registry stays bounded on a long-lived coordinator. *)
type entry = {
  mutable req : Wire.job_request option;
  mutable owner : string option;  (* node last known to hold the job *)
  mutable completed : bool;
  mutable replicated : bool;
}

type t = {
  mutex : Mutex.t;
  mutable ring : Ring.t;  (* Healthy + Draining members *)
  nodes : (string, node) Hashtbl.t;
  jobs : (string, entry) Hashtbl.t;
  completed_q : string Queue.t;  (* completion order, for FIFO eviction *)
  max_completed : int;
  rpc_timeout_s : float;
  probe_interval_s : float;
  eject_threshold : int;
  drain_timeout_s : float;
  retry : Retry.t;  (* backoff schedule between failover attempts *)
  stop : bool Atomic.t;
  mutable prober : Thread.t option;
  mutable draining : bool;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ----------------------------- metrics ----------------------------- *)

let reroutes_c =
  Metrics.counter "tml_fleet_reroutes_total"
    ~help:"Requests moved to the next ring owner after a node failure"

let ejections_c =
  Metrics.counter "tml_fleet_ejections_total"
    ~help:"Nodes ejected from the ring after consecutive failures"

let readmissions_c =
  Metrics.counter "tml_fleet_readmissions_total"
    ~help:"Ejected nodes re-admitted to the ring after probation"

let replications_c =
  Metrics.counter "tml_fleet_replications_total"
    ~help:"Finished reports replicated to the digest's ring successor"

let resubmits_c =
  Metrics.counter "tml_fleet_resubmits_total"
    ~help:"Jobs resubmitted from the coordinator registry after a node death"

let fanout_hist =
  Metrics.histogram "tml_fleet_fanout_seconds"
    ~buckets:Metrics.default_time_buckets
    ~help:"Coordinator fan-out latency, including failover attempts"

let node_gauge name =
  Metrics.gauge "tml_fleet_in_flight" ~label:("node", name)
    ~help:"Backend RPCs in flight, by node"

(* -------------------------- health machine ------------------------- *)

(* Healthy --N consecutive failures--> Ejected (out of the ring)
   Ejected --probe success--> Probation (still out of the ring)
   Probation --success--> Healthy (re-added) | --failure--> Ejected
   Draining/Drained are administrative and never transition on health. *)

let eject_locked t n =
  n.state <- Ejected;
  n.fails <- 0;
  t.ring <- Ring.without t.ring n.name;
  Metrics.incr ejections_c;
  ignore
    (Trace_span.event "fleet:eject" ~attrs:[ ("node", n.name) ] : int option)

let note_failure t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.nodes name with
      | None -> ()
      | Some n -> (
          match n.state with
          | Draining | Drained | Ejected -> ()
          | Probation -> n.state <- Ejected
          | Healthy ->
            n.fails <- n.fails + 1;
            if n.fails >= t.eject_threshold then eject_locked t n))

let note_success t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.nodes name with
      | None -> ()
      | Some n -> (
          n.fails <- 0;
          match n.state with
          | Ejected -> n.state <- Probation
          | Probation ->
            n.state <- Healthy;
            t.ring <- Ring.with_node t.ring n.name;
            Metrics.incr readmissions_c;
            ignore
              (Trace_span.event "fleet:readmit" ~attrs:[ ("node", n.name) ]
               : int option)
          | Healthy | Draining | Drained -> ()))

(* ------------------------------ routing ---------------------------- *)

(* Candidate nodes for a digest, in ring order.  New submits skip
   Draining members (they are leaving); fetches may still read from
   them.  The optional [first] node (a job's last known owner) is moved
   to the front when still routable. *)
let candidates t ?first ~for_submit digest =
  locked t (fun () ->
      let routable name =
        match Hashtbl.find_opt t.nodes name with
        | None -> None
        | Some n -> (
            match n.state with
            | Healthy -> Some n
            | Draining when not for_submit -> Some n
            | _ -> None)
      in
      let ring_order = List.filter_map routable (Ring.successors t.ring digest) in
      match Option.bind first routable with
      | None -> ring_order
      | Some n -> n :: List.filter (fun m -> m.name <> n.name) ring_order)

let track t n delta =
  locked t (fun () ->
      n.in_flight <- n.in_flight + delta;
      Metrics.set_gauge n.gauge (float_of_int n.in_flight))

let transient_exn = function
  | Tml_error.Error k -> Tml_error.severity k = Tml_error.Transient
  | _ -> false

(* One RPC against one node, under a [fleet:rpc] span; a fresh
   connection per call keeps failure isolation trivial (a dead backend
   poisons nothing). *)
let rpc_once t node f =
  track t node 1;
  Fun.protect
    ~finally:(fun () -> track t node (-1))
    (fun () ->
       Trace_span.with_span "fleet:rpc" ~attrs:[ ("node", node.name) ]
         (fun () ->
            Client.with_client ~timeout_s:t.rpc_timeout_s node.addr f))

let no_node_error =
  Tml_error.Error (Tml_error.Unreachable "no fleet node available")

(* Proxy a [Wait] as a loop of short waits on the same connection, each
   kept well inside the [rpc_timeout_s] socket deadline.  A single
   proxied wait bounded only by the socket deadline would turn any job
   running longer than [rpc_timeout_s] into a spurious `Idle` →
   [Unreachable]: a health strike against a perfectly alive node plus a
   re-route that duplicates the job elsewhere.  Chunking means the
   socket deadline only fires when the backend truly stops answering —
   a genuine failure — while the wait's own deadline is enforced here,
   returning the backend's [Job_pending] exactly as a single node
   would. *)
let chunked_wait t ~digest timeout_s c =
  let chunk = Float.max 0.05 (t.rpc_timeout_s /. 2.) in
  let deadline =
    Option.map (fun s -> Unix.gettimeofday () +. Float.max 0. s) timeout_s
  in
  let rec go () =
    let step =
      match deadline with
      | None -> chunk
      | Some d -> Float.min chunk (d -. Unix.gettimeofday ())
    in
    if step <= 0. then Client.rpc c (Wire.Poll digest)
    else
      match Client.rpc c (Wire.Wait (digest, Some step)) with
      | Wire.Status { state = Wire.Job_pending; _ } as resp ->
        (match deadline with
         | Some d when Unix.gettimeofday () >= d -> resp
         | _ -> go ())
      | resp -> resp
  in
  go ()

(* Walk the candidate list until one node answers.  Transient failures
   (peer death, timeouts, [Overloaded]/[Unavailable] error replies)
   re-route to the next candidate after a capped jittered backoff;
   anything else is the answer.  Returns the serving node's name with
   the response. *)
let route t ~digest ~nodes f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.observe fanout_hist (Unix.gettimeofday () -. t0))
    (fun () ->
       Trace_span.with_span "fleet:route" ~attrs:[ ("job", digest) ]
         (fun () ->
            let rec go attempt last = function
              | [] -> Error (Option.value last ~default:no_node_error)
              | node :: rest ->
                if attempt > 0 then
                  Thread.delay
                    (Retry.backoff_s t.retry ~key:digest ~attempt:(attempt - 1));
                let reroute e =
                  Metrics.incr reroutes_c;
                  go (attempt + 1) (Some e) rest
                in
                (match rpc_once t node f with
                 | Wire.Error_reply err when err.Wire.transient && rest <> [] ->
                   (* shed (overloaded/unavailable) — alive, so no health
                      strike, but the next owner may have capacity *)
                   reroute (Client.Remote_error err)
                 | resp ->
                   note_success t node.name;
                   Ok (node.name, resp)
                 | exception e when transient_exn e ->
                   note_failure t node.name;
                   reroute e)
            in
            go 0 None nodes))

let annotate name resp = Wire.Annotated ([ ("node", Wire.Str name) ], resp)

(* --------------------------- job registry -------------------------- *)

let find_entry t digest = locked t (fun () -> Hashtbl.find_opt t.jobs digest)

let register t digest jr =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs digest with
      | Some e ->
        (* the digest may have been seen first via poll/wait/cancel
           ([req = None]): attach the payload so this submit gets the
           resubmission guarantee too *)
        if e.req = None then e.req <- Some jr;
        e
      | None ->
        let e =
          { req = Some jr; owner = None; completed = false; replicated = false }
        in
        Hashtbl.replace t.jobs digest e;
        e)

let register_foreign t digest =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs digest with
      | Some e -> e
      | None ->
        let e =
          { req = None; owner = None; completed = false; replicated = false }
        in
        Hashtbl.replace t.jobs digest e;
        e)

(* First completed observation of a digest: enqueue it for FIFO
   eviction past [max_completed].  The payload stays, so a later
   poll/wait that every backend answers not-found (each evicted the
   digest from its bounded job table, or restarted) is resubmitted and
   re-run instead of passed on to the client.  The registry stays bounded
   instead of growing with every job the coordinator has ever
   accepted.  Evicted digests that come back (a late poll) just take the
   [register_foreign] path and route by ring order. *)
let mark_completed t ~digest entry =
  locked t (fun () ->
      if not entry.completed then begin
        entry.completed <- true;
        Queue.push digest t.completed_q;
        while Queue.length t.completed_q > t.max_completed do
          let evicted = Queue.pop t.completed_q in
          match Hashtbl.find_opt t.jobs evicted with
          | Some e when e.completed -> Hashtbl.remove t.jobs evicted
          | _ -> ()
        done
      end)

(* Replicate a finished report to the digest's ring successor (the node
   that would inherit the digest if its owner vanished), best-effort:
   replication is an availability optimisation layered on top of the
   resubmission guarantee, so its failures are swallowed. *)
let replicate t entry ~digest ~served_by report =
  let target =
    locked t (fun () ->
        if entry.replicated then None
        else
          Ring.successors t.ring digest
          |> List.filter_map (fun name ->
              match Hashtbl.find_opt t.nodes name with
              | Some n when n.name <> served_by && n.state = Healthy -> Some n
              | _ -> None)
          |> function
          | [] -> None
          | n :: _ -> Some n)
  in
  match target with
  | None -> ()
  | Some n -> (
      match
        rpc_once t n (fun c -> Client.put_report c ~digest ~report; Wire.Pong)
      with
      | Wire.Pong ->
        entry.replicated <- true;
        Metrics.incr replications_c
      | _ | (exception _) -> ())

let note_state t entry ~digest ~served_by = function
  | Wire.Job_done report ->
    mark_completed t ~digest entry;
    replicate t entry ~digest ~served_by report
  | Wire.Job_failed _ | Wire.Job_cancelled | Wire.Job_timed_out ->
    mark_completed t ~digest entry
  | Wire.Job_pending -> ()

(* ------------------------------- ops ------------------------------- *)

let do_submit t jr =
  match Wire.job_of_request jr with
  | exception e -> Wire.Error_reply (Wire.err_of_exn e)
  | job -> (
      let digest = Job.digest job in
      let entry = register t digest jr in
      let nodes = candidates t ?first:entry.owner ~for_submit:true digest in
      match route t ~digest ~nodes (fun c -> Client.rpc c (Wire.Submit jr)) with
      | Error e -> Wire.Error_reply (Wire.err_of_exn e)
      | Ok (name, resp) ->
        (match resp with
         | Wire.Accepted _ -> entry.owner <- Some name
         | _ -> ());
        annotate name resp)

(* Poll/wait/cancel route to the job's last known owner first, then ring
   order.  A ["not-found"] from a failover node means the owner died
   with the job: resubmit from the registry on the same connection and
   re-ask — the job re-runs there and, being deterministic, yields the
   same report. *)
let with_resubmit entry ~digest op c =
  match op c with
  | Wire.Error_reply err when err.Wire.kind = "not-found" -> (
      match entry.req with
      | Some jr ->
        (match Client.rpc c (Wire.Submit jr) with
         | Wire.Accepted _ ->
           Metrics.incr resubmits_c;
           ignore
             (Trace_span.event "fleet:resubmit" ~attrs:[ ("job", digest) ]
              : int option);
           op c
         | other -> other)
      | None -> Wire.Error_reply err)
  | resp -> resp

let do_fetch t digest op =
  let entry =
    match find_entry t digest with
    | Some e -> e
    | None -> register_foreign t digest
  in
  let nodes = candidates t ?first:entry.owner ~for_submit:false digest in
  match route t ~digest ~nodes (with_resubmit entry ~digest op) with
  | Error e -> Wire.Error_reply (Wire.err_of_exn e)
  | Ok (name, resp) ->
    (match resp with
     | Wire.Status { state; _ } ->
       entry.owner <- Some name;
       note_state t entry ~digest ~served_by:name state
     | Wire.Cancelled { cancelled = true; _ } -> mark_completed t ~digest entry
     | _ -> ());
    annotate name resp

(* Stats fans out to every routable node and nests each backend's dump
   under its name — a protocol-1 [stats] client pointed at a coordinator
   still gets a JSON object back. *)
let do_stats t =
  let nodes =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ n acc ->
             match n.state with Healthy | Draining -> n :: acc | _ -> acc)
          t.nodes [])
    |> List.sort (fun a b -> compare a.name b.name)
  in
  let per_node =
    List.map
      (fun n ->
         match rpc_once t n (fun c -> Wire.Stats_reply (Client.stats c)) with
         | Wire.Stats_reply j -> (n.name, j)
         | _ -> (n.name, Wire.Null)
         | exception e when transient_exn e ->
           note_failure t n.name;
           (n.name, Wire.Null))
      nodes
  in
  Wire.Stats_reply (Wire.Obj [ ("fleet", Wire.Obj per_node) ])

let status_json t =
  locked t (fun () ->
      let num i = Wire.Num (float_of_int i) in
      let nodes =
        Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes []
        |> List.sort (fun a b -> compare a.name b.name)
        |> List.map (fun n ->
            Wire.Obj
              [
                ("name", Wire.Str n.name);
                ("state", Wire.Str (state_name n.state));
                ("fails", num n.fails);
                ("in_flight", num n.in_flight);
              ])
      in
      let tracked = Hashtbl.length t.jobs in
      let completed =
        Hashtbl.fold
          (fun _ e acc -> if e.completed then acc + 1 else acc)
          t.jobs 0
      in
      Wire.Obj
        [
          ("ring", Wire.Arr (List.map (fun n -> Wire.Str n) (Ring.nodes t.ring)));
          ("nodes", Wire.Arr nodes);
          ( "jobs",
            Wire.Obj
              [
                ("tracked", num tracked);
                ("completed", num completed);
                ("in_flight", num (tracked - completed));
              ] );
          ( "counters",
            Wire.Obj
              [
                ("reroutes", num (Metrics.counter_value reroutes_c));
                ("ejections", num (Metrics.counter_value ejections_c));
                ("readmissions", num (Metrics.counter_value readmissions_c));
                ("replications", num (Metrics.counter_value replications_c));
                ("resubmits", num (Metrics.counter_value resubmits_c));
              ] );
          ("draining", Wire.Bool t.draining);
        ])

(* Ring-aware drain: stop routing new digests to the node, await its
   in-flight jobs (completing them replicates their reports), then drop
   it from the ring.  Ordering mirrors the single-node graceful drain:
   refuse-new, await, remove. *)
let do_drain_node t name =
  match locked t (fun () -> Hashtbl.find_opt t.nodes name) with
  | None ->
    Wire.Error_reply
      {
        Wire.kind = "not-found";
        message = Printf.sprintf "unknown fleet node %s" name;
        transient = false;
      }
  | Some node ->
    locked t (fun () ->
        match node.state with
        | Healthy | Probation | Ejected -> node.state <- Draining
        | Draining | Drained -> ());
    let owned =
      locked t (fun () ->
          Hashtbl.fold
            (fun digest e acc ->
               if e.owner = Some name && not e.completed then (digest, e) :: acc
               else acc)
            t.jobs [])
    in
    let pending = ref 0 in
    List.iter
      (fun (digest, entry) ->
         (* chunked, so the configured drain bound is actually reachable
            even when it exceeds the per-RPC socket deadline *)
         match
           rpc_once t node (chunked_wait t ~digest (Some t.drain_timeout_s))
         with
         | Wire.Status { state; _ } ->
           note_state t entry ~digest ~served_by:name state;
           if not entry.completed then incr pending
         | _ -> incr pending
         | exception _ -> incr pending)
      owned;
    locked t (fun () ->
        node.state <- Drained;
        t.ring <- Ring.without t.ring name);
    ignore
      (Trace_span.event "fleet:drain" ~attrs:[ ("node", name) ] : int option);
    Wire.Drained { node = name; pending = !pending }

(* ------------------------------ prober ----------------------------- *)

let probe t node =
  match
    Client.with_client ~timeout_s:t.rpc_timeout_s node.addr Client.ping
  with
  | () -> note_success t node.name
  | exception _ -> note_failure t node.name

let probe_loop t () =
  let rec sleep s =
    if s > 0. && not (Atomic.get t.stop) then begin
      Thread.delay (Float.min 0.1 s);
      sleep (s -. 0.1)
    end
  in
  while not (Atomic.get t.stop) do
    let targets =
      locked t (fun () ->
          Hashtbl.fold
            (fun _ n acc -> if n.state = Drained then acc else n :: acc)
            t.nodes [])
    in
    List.iter (fun n -> if not (Atomic.get t.stop) then probe t n) targets;
    sleep t.probe_interval_s
  done

(* ------------------------------ public ----------------------------- *)

let create ?(vnodes = 64) ?(rpc_timeout_s = 10.0) ?(probe_interval_s = 2.0)
    ?(eject_threshold = 3) ?(drain_timeout_s = 30.0) ?(max_completed = 1024)
    ?retry addrs =
  if addrs = [] then invalid_arg "Coordinator.create: no backend nodes";
  let nodes = Hashtbl.create 8 in
  List.iter
    (fun addr ->
       let name = Client.addr_to_string addr in
       if not (Hashtbl.mem nodes name) then
         Hashtbl.replace nodes name
           {
             name;
             addr;
             state = Healthy;
             fails = 0;
             in_flight = 0;
             gauge = node_gauge name;
           })
    addrs;
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) nodes [] in
  let t =
    {
      mutex = Mutex.create ();
      ring = Ring.make ~vnodes names;
      nodes;
      jobs = Hashtbl.create 64;
      completed_q = Queue.create ();
      max_completed = max 0 max_completed;
      rpc_timeout_s;
      probe_interval_s;
      eject_threshold;
      drain_timeout_s;
      retry =
        (match retry with
         | Some r -> r
         | None -> Retry.make ~base_backoff_ms:25. ~cap_backoff_ms:500. ());
      stop = Atomic.make false;
      prober = None;
      draining = false;
    }
  in
  t.prober <- Some (Thread.create (probe_loop t) ());
  t

let ring t = locked t (fun () -> t.ring)

let pending t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ e acc -> if e.completed then acc else acc + 1)
        t.jobs 0)

let handle t ~client:_ req =
  try
    match req with
    | Wire.Ping -> Wire.Pong
    | Wire.Fleet_status -> Wire.Fleet_reply (status_json t)
    | Wire.Drain_node name -> do_drain_node t name
    | Wire.Stats -> do_stats t
    | Wire.Submit jr ->
      if t.draining then
        Wire.Error_reply
          {
            Wire.kind = "unavailable";
            message = "coordinator is draining";
            transient = true;
          }
      else do_submit t jr
    | Wire.Poll digest ->
      do_fetch t digest (fun c -> Client.rpc c (Wire.Poll digest))
    | Wire.Wait (digest, timeout_s) ->
      do_fetch t digest (chunked_wait t ~digest timeout_s)
    | Wire.Cancel digest ->
      do_fetch t digest (fun c -> Client.rpc c (Wire.Cancel digest))
    | Wire.Put_report _ ->
      Wire.Error_reply
        {
          Wire.kind = "bad-request";
          message = "put-report targets a backend node, not the coordinator";
          transient = false;
        }
    | Wire.Watch_op _ | Wire.Append_chunk _ | Wire.Unwatch _ ->
      (* the Stream_hub handler wrapper intercepts watch ops before
         they reach the coordinator (`tml serve --coordinator` wraps
         this handler); seeing one here means no hub was installed *)
      Wire.Error_reply
        {
          Wire.kind = "bad-request";
          message = "this coordinator has no watch hub";
          transient = false;
        }
  with e -> Wire.Error_reply (Wire.err_of_exn e)

let set_draining t = t.draining <- true

(* Coordinator drain: await every tracked in-flight digest through the
   normal fetch path (which re-routes and resubmits as needed), so
   accepted jobs finish somewhere before the coordinator exits. *)
let drain ?timeout_s t =
  set_draining t;
  let timeout_s = Option.value timeout_s ~default:t.drain_timeout_s in
  let incomplete =
    locked t (fun () ->
        Hashtbl.fold
          (fun digest e acc -> if e.completed then acc else digest :: acc)
          t.jobs [])
  in
  List.iter
    (fun digest ->
       ignore
         (do_fetch t digest (chunked_wait t ~digest (Some timeout_s))
          : Wire.response))
    incomplete

let shutdown t =
  Atomic.set t.stop true;
  Option.iter Thread.join t.prober;
  t.prober <- None

let handler t =
  {
    Server.on_request = (fun ~client req -> handle t ~client req);
    (* every coordinator op except ping fans out RPCs to backends, so
       none of them may run on an event loop *)
    classify = (function Wire.Ping -> `Fast | _ -> `Slow);
    on_stop = (fun () -> set_draining t);
    on_drain = (fun ~timeout_s -> drain ~timeout_s t);
    pending = (fun () -> pending t);
    on_disconnect = (fun ~client:_ -> ());
  }
