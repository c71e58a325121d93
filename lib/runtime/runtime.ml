type t = {
  pool : Pool.t;
  worker_count : int;
  stats : Runtime_stats.t;
  elim_cache : (Ratfun.t * Arena.t) Lru_cache.t;
  mutable shut : bool;
}

(* The elimination memo keeps at most this many compiled queries.  Its
   hits are a few hot chains (a served Model Repair's base chain, a
   watch's support): on every perfbench workload the hit ratio is the
   same at 64 as at 512, while 512 arenas of once-seen learned chains
   were most of repair_mix's RSS growth with uptime. *)
let elim_cache_capacity = 64

let create ?workers ?(queue_capacity = 64) () =
  let worker_count =
    match workers with
    | Some w -> w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let stats = Runtime_stats.create () in
  let pool =
    Pool.create ~queue_capacity
      ~on_queue_depth:(Runtime_stats.observe_queue_depth stats)
      ~on_respawn:(fun _e -> Runtime_stats.incr stats `Respawned)
      ~workers:worker_count ()
  in
  let elim_cache =
    Lru_cache.create ~name:"elimination" ~capacity:elim_cache_capacity ()
  in
  (* Process-global hooks: the elimination memo and the fault observer.
     The runtime owns them until shutdown. *)
  Fault.set_observer (Some (fun _site -> Runtime_stats.incr stats `Fault_injected));
  Pquery.set_memo
    (Some (fun ~key ~compute -> Lru_cache.find_or_compute elim_cache ~key compute));
  { pool; worker_count; stats; elim_cache; shut = false }

let workers t = t.worker_count
let respawns t = Pool.respawns t.pool

(* Jobs are correlated across domains by the first 8 hex chars of their
   digest: the [job:submit] event records it on the submitting domain, and
   the worker opens its [job:run] span with the event as explicit parent —
   the cross-domain edge every trace tree hangs on. *)
let job_id key = if String.length key <= 8 then key else String.sub key 0 8

let submit_keyed t ~on_full ?timeout_s ?retry ~key job =
  Runtime_stats.incr t.stats `Submitted;
  (* [`Shed] surfaces a saturated queue as a typed transient failure
     instead of blocking the caller — the behaviour a server's request
     handler needs.  [`Block] keeps classic back-pressure (used by
     [run_batch], whose batches may legitimately exceed the queue
     capacity). *)
  let enqueue body =
    match on_full with
    | `Block -> Pool.submit t.pool ?timeout_s body
    | `Shed -> (
        match Pool.try_submit t.pool ?timeout_s body with
        | Some fut -> fut
        | None ->
          let fut = Future.create () in
          Future.fail fut
            (Tml_error.Error (Tml_error.Overloaded "runtime queue full"));
          fut)
  in
  let jid = job_id key in
  let submit_span =
    Trace_span.event "job:submit" ~job:jid ~attrs:[ ("kind", Job.kind job) ]
  in
  enqueue (fun () ->
      let outcome =
        Trace_span.with_span "job:run" ?parent:submit_span ~job:jid
          ~attrs:[ ("kind", Job.kind job) ]
          (fun () ->
             match retry with
             | None -> Job.run job
             | Some policy ->
               Retry.run policy ~key
                 ~on_retry:(fun _e -> Runtime_stats.incr t.stats `Retried)
                 (fun () -> Job.run job))
      in
      Runtime_stats.incr t.stats `Completed;
      outcome)

let submit t ?(on_full = `Shed) ?timeout_s ?retry job =
  submit_keyed t ~on_full ?timeout_s ?retry ~key:(Job.digest job) job

(* Jobs are deterministic, so a batch runs each distinct digest once and
   hands its outcome to every position that holds it. *)
let run_batch t ?timeout_s ?retry jobs =
  let keyed = List.map (fun job -> (Job.digest job, job)) jobs in
  let futures = Hashtbl.create 16 and outcomes = Hashtbl.create 16 in
  List.iter
    (fun (key, job) ->
       if not (Hashtbl.mem futures key) then
         Hashtbl.add futures key
           (submit_keyed t ~on_full:`Block ?timeout_s ?retry ~key job))
    keyed;
  List.map
    (fun (key, _) ->
       match Hashtbl.find_opt outcomes key with
       | Some outcome -> outcome
       | None ->
         let outcome = Future.await (Hashtbl.find futures key) in
         (match outcome with
          | Future.Value _ -> ()
          | Future.Failed _ -> Runtime_stats.incr t.stats `Failed
          | Future.Cancelled -> Runtime_stats.incr t.stats `Cancelled
          | Future.Timed_out -> Runtime_stats.incr t.stats `Timed_out);
         Hashtbl.add outcomes key outcome;
         outcome)
    keyed

let stats t = Runtime_stats.snapshot t.stats
let elim_cache_counters t = Lru_cache.counters t.elim_cache

let stats_json t =
  Runtime_stats.to_json ~workers:t.worker_count
    ~elim_cache:(elim_cache_counters t) t.stats

let shutdown ?drain t =
  if not t.shut then begin
    t.shut <- true;
    Pool.shutdown ?drain t.pool;
    Pquery.set_memo None;
    Fault.set_observer None
  end

let with_runtime ?workers ?queue_capacity f =
  let t = create ?workers ?queue_capacity () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
