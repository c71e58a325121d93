type t = {
  pool : Pool.t;
  worker_count : int;
  stats : Runtime_stats.t;
  report_cache : Job.outcome Lru_cache.t option;
  elim_cache : (Ratfun.t * Arena.t) Lru_cache.t option;
  mutable shut : bool;
}

let create ?workers ?(queue_capacity = 64) ?(report_cache_capacity = 256)
    ?(elim_cache_capacity = 512) () =
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
  let report_cache =
    if report_cache_capacity <= 0 then None
    else Some (Lru_cache.create ~name:"report" ~capacity:report_cache_capacity ())
  in
  let elim_cache =
    if elim_cache_capacity <= 0 then None
    else
      Some (Lru_cache.create ~name:"elimination" ~capacity:elim_cache_capacity ())
  in
  (* Process-global hooks: the elimination memo, the fault observer and
     the intra-job parallel runner.  The runtime owns them until
     shutdown. *)
  Parallel.set_runner (Some (Pool.run_subtasks pool));
  Fault.set_observer (Some (fun _site -> Runtime_stats.incr stats `Fault_injected));
  Option.iter
    (fun cache ->
       Pquery.set_memo
         (Some (fun ~key ~compute -> Lru_cache.find_or_compute cache ~key compute)))
    elim_cache;
  { pool; worker_count; stats; report_cache; elim_cache; shut = false }

let workers t = t.worker_count
let respawns t = Pool.respawns t.pool

(* Jobs are correlated across domains by the first 8 hex chars of their
   digest: the [job:submit] event records it on the submitting domain, and
   the worker opens its [job:run] span with the event as explicit parent —
   the cross-domain edge every trace tree hangs on. *)
let job_id key = if String.length key <= 8 then key else String.sub key 0 8

let submit t ?(on_full = `Shed) ?timeout_s ?retry job =
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
  let key = Job.digest job in
  let jid = job_id key in
  let submit_span =
    Trace_span.event "job:submit" ~job:jid ~attrs:[ ("kind", Job.kind job) ]
  in
  let run_traced body =
    Trace_span.with_span "job:run" ?parent:submit_span ~job:jid
      ~attrs:[ ("kind", Job.kind job) ]
      body
  in
  (* The retry loop sits OUTSIDE the cache fill: a transient failure —
     whether it came from the job body or from a wedged cache fill —
     cleans up its in-flight entry, backs off, and re-enters the cache. *)
  let with_retry body =
    match retry with
    | None -> body ()
    | Some policy ->
      Retry.run policy ~key
        ~on_retry:(fun _e -> Runtime_stats.incr t.stats `Retried)
        body
  in
  match t.report_cache with
  | None ->
    enqueue (fun () ->
        let outcome = run_traced (fun () -> with_retry (fun () -> Job.run job)) in
        Runtime_stats.incr t.stats `Completed;
        outcome)
  | Some cache -> (
      (* Probe without blocking: a completed entry resolves immediately on
         the calling domain; otherwise the job goes through the pool, and
         the worker stores (or coalesces on) the digest. *)
      match Lru_cache.find cache key with
      | Some outcome ->
        Runtime_stats.incr t.stats `Report_hit;
        Runtime_stats.incr t.stats `Completed;
        ignore
          (Trace_span.event "job:cache-hit" ?parent:submit_span ~job:jid
             ~attrs:[ ("kind", Job.kind job) ]
            : int option);
        let fut = Future.create () in
        Future.resolve fut outcome;
        fut
      | None ->
        enqueue (fun () ->
            let outcome =
              run_traced (fun () ->
                  with_retry (fun () ->
                      Lru_cache.find_or_compute cache ~key (fun () ->
                          Job.run job)))
            in
            Runtime_stats.incr t.stats `Completed;
            outcome))

let run_batch t ?timeout_s ?retry jobs =
  let futures =
    List.map (fun job -> submit t ~on_full:`Block ?timeout_s ?retry job) jobs
  in
  List.map
    (fun fut ->
       let outcome = Future.await fut in
       (match outcome with
        | Future.Value _ -> ()
        | Future.Failed _ -> Runtime_stats.incr t.stats `Failed
        | Future.Cancelled -> Runtime_stats.incr t.stats `Cancelled
        | Future.Timed_out -> Runtime_stats.incr t.stats `Timed_out);
       outcome)
    futures

let stats t = Runtime_stats.snapshot t.stats
let report_cache_counters t = Option.map Lru_cache.counters t.report_cache
let elim_cache_counters t = Option.map Lru_cache.counters t.elim_cache

let stats_json t =
  Runtime_stats.to_json ~workers:t.worker_count
    ?report_cache:(report_cache_counters t)
    ?elim_cache:(elim_cache_counters t) t.stats

let shutdown ?drain t =
  if not t.shut then begin
    t.shut <- true;
    Parallel.set_runner None;
    Pool.shutdown ?drain t.pool;
    Pquery.set_memo None;
    Fault.set_observer None
  end

let with_runtime ?workers ?queue_capacity ?report_cache_capacity
    ?elim_cache_capacity f =
  let t =
    create ?workers ?queue_capacity ?report_cache_capacity
      ?elim_cache_capacity ()
  in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
