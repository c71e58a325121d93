type stage_totals = { count : int; total_s : float }

type snapshot = {
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  timed_out : int;
  retried : int;
  respawned : int;
  faults_injected : int;
  max_queue_depth : int;
  stages : (string * stage_totals) list;
}

type counter =
  [ `Submitted
  | `Completed
  | `Failed
  | `Cancelled
  | `Timed_out
  | `Retried
  | `Respawned
  | `Fault_injected ]

type t = {
  mutex : Mutex.t;
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable cancelled : int;
  mutable timed_out : int;
  mutable retried : int;
  mutable respawned : int;
  mutable faults_injected : int;
  mutable max_queue_depth : int;
  stage_base : (Instr.stage * stage_totals) list;
      (* each stage histogram's (count, sum) when the runtime started *)
}

(* Every per-runtime counter is mirrored into the process-wide {!Metrics}
   registry (which outlives the runtime), under stable Prometheus names.
   Stage histograms are NOT mirrored here — Instr.time feeds
   [tml_stage_seconds] directly, so they'd double-count. *)
let metric =
  let mk name help = Metrics.counter name ~help in
  let submitted = mk "tml_jobs_submitted_total" "Jobs submitted"
  and completed = mk "tml_jobs_completed_total" "Jobs completed"
  and failed = mk "tml_jobs_failed_total" "Jobs whose future failed"
  and cancelled = mk "tml_jobs_cancelled_total" "Jobs cancelled"
  and timed_out = mk "tml_jobs_timed_out_total" "Jobs timed out"
  and retried = mk "tml_retries_total" "Transient-failure re-runs"
  and respawned = mk "tml_worker_respawns_total" "Worker domains respawned"
  and faults = mk "tml_faults_injected_total" "Chaos faults fired" in
  function
  | `Submitted -> submitted
  | `Completed -> completed
  | `Failed -> failed
  | `Cancelled -> cancelled
  | `Timed_out -> timed_out
  | `Retried -> retried
  | `Respawned -> respawned
  | `Fault_injected -> faults

let queue_depth_gauge =
  Metrics.gauge "tml_queue_depth" ~help:"Pool queue depth at last enqueue"

let queue_depth_max_gauge =
  Metrics.gauge "tml_queue_depth_max"
    ~help:"Pool queue depth high-water mark"

let all_stages = [ Instr.Learn; Instr.Eliminate; Instr.Solve; Instr.Check ]

let stage_now stage =
  let h = Instr.stage_histogram stage in
  { count = Metrics.histogram_count h; total_s = Metrics.histogram_sum h }

let create () =
  {
    mutex = Mutex.create ();
    submitted = 0;
    completed = 0;
    failed = 0;
    cancelled = 0;
    timed_out = 0;
    retried = 0;
    respawned = 0;
    faults_injected = 0;
    max_queue_depth = 0;
    stage_base = List.map (fun s -> (s, stage_now s)) all_stages;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let incr t which =
  Metrics.incr (metric which);
  locked t (fun () ->
      match which with
      | `Submitted -> t.submitted <- t.submitted + 1
      | `Completed -> t.completed <- t.completed + 1
      | `Failed -> t.failed <- t.failed + 1
      | `Cancelled -> t.cancelled <- t.cancelled + 1
      | `Timed_out -> t.timed_out <- t.timed_out + 1
      | `Retried -> t.retried <- t.retried + 1
      | `Respawned -> t.respawned <- t.respawned + 1
      | `Fault_injected -> t.faults_injected <- t.faults_injected + 1)

let observe_queue_depth t depth =
  let d = float_of_int depth in
  Metrics.set_gauge queue_depth_gauge d;
  Metrics.max_gauge queue_depth_max_gauge d;
  locked t (fun () ->
      if depth > t.max_queue_depth then t.max_queue_depth <- depth)

let snapshot t =
  locked t (fun () ->
      {
        submitted = t.submitted;
        completed = t.completed;
        failed = t.failed;
        cancelled = t.cancelled;
        timed_out = t.timed_out;
        retried = t.retried;
        respawned = t.respawned;
        faults_injected = t.faults_injected;
        max_queue_depth = t.max_queue_depth;
        stages =
          List.map
            (fun (s, base) ->
               let now = stage_now s in
               ( Instr.stage_name s,
                 { count = now.count - base.count;
                   total_s = now.total_s -. base.total_s } ))
            t.stage_base;
      })

(* ------------------------------ JSON ------------------------------ *)

let json_cache (c : Lru_cache.counters) =
  let total = c.Lru_cache.hits + c.Lru_cache.misses in
  let rate =
    if total = 0 then 0.0
    else float_of_int c.Lru_cache.hits /. float_of_int total
  in
  let int n = Json.Num (float_of_int n) in
  Json.Obj
    [ ("hits", int c.Lru_cache.hits);
      ("misses", int c.Lru_cache.misses);
      ("evictions", int c.Lru_cache.evictions);
      ("size", int c.Lru_cache.size);
      ("capacity", int c.Lru_cache.capacity);
      ("hit_rate", Json.Num rate) ]

let to_json ~workers ~elim_cache t =
  let s = snapshot t in
  let int n = Json.Num (float_of_int n) in
  Json.Obj
    [ ( "jobs",
        Json.Obj
          [ ("submitted", int s.submitted);
            ("completed", int s.completed);
            ("failed", int s.failed);
            ("cancelled", int s.cancelled);
            ("timed_out", int s.timed_out) ] );
      ( "resilience",
        Json.Obj
          [ ("retried", int s.retried);
            ("respawned", int s.respawned);
            ("faults_injected", int s.faults_injected) ] );
      ("queue", Json.Obj [ ("max_depth", int s.max_queue_depth) ]);
      ("workers", int workers);
      ("caches", Json.Obj [ ("elimination", json_cache elim_cache) ]);
      ( "stages",
        Json.Obj
          (List.map
             (fun (name, st) ->
                ( name,
                  Json.Obj
                    [ ("count", int st.count); ("total_s", Json.Num st.total_s) ] ))
             s.stages) ) ]
