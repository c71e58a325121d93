(** Thread-safe instrumentation counters for the repair runtime.

    Collects job counts and the queue-depth high-water mark, reports
    per-stage wall-clock totals, and builds everything — together with
    the elimination cache's counters — into one {!Json.t} stats object.

    Every per-runtime counter is also mirrored into the process-wide
    {!Metrics} registry under a stable Prometheus name
    ([tml_jobs_submitted_total], [tml_retries_total], …), so metrics
    accumulate across runtime lifetimes while snapshots stay scoped to
    one runtime.  Stage totals go the other way: {!Instr.time} feeds
    only the [tml_stage_seconds] histograms, and a snapshot reports each
    histogram's growth since {!create}.  A stage run by anything in the
    process while the runtime lives counts towards it (another runtime's
    jobs included), and a {!Metrics.reset} during its life skews it. *)

type t
(** A mutable counter set owned by one runtime. *)

type stage_totals = { count : int; total_s : float }

type snapshot = {
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  timed_out : int;
  retried : int;  (** transient-failure re-runs performed by the retry layer *)
  respawned : int;  (** worker domains respawned after a crash *)
  faults_injected : int;  (** faults fired by an installed {!Fault} plan *)
  max_queue_depth : int;
  stages : (string * stage_totals) list;
      (** keyed by {!Instr.stage_name}: learn / eliminate / solve / check *)
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
(** The events a runtime counts; one snapshot field each. *)

val create : unit -> t
(** A zeroed counter set; stage totals count from now. *)

val incr : t -> counter -> unit
(** Count one event, in this runtime and in the global {!Metrics}
    registry.  Thread-safe. *)

val observe_queue_depth : t -> int -> unit
(** Track the queue-depth high-water mark (and the [tml_queue_depth]
    gauges). *)

val snapshot : t -> snapshot
(** A consistent copy of every counter and stage total. *)

val to_json : workers:int -> elim_cache:Lru_cache.counters -> t -> Json.t
(** One JSON object: [jobs], [resilience] and [queue] counters,
    [workers], [caches.elimination] (with its [hit_rate]) and
    [stages.<name>.{count,total_s}]. *)
