(** The concurrent repair-job engine: queue → worker pool → stats.

    A runtime owns a domain worker {!Pool}, an elimination cache installed
    into {!Pquery.set_memo} (so repeated parametric queries on
    structurally identical chains skip state elimination and arena
    compilation entirely, across {e all} repair entry points; it keeps
    the 64 most recently used queries), and a {!Runtime_stats} collector
    that reads stage totals from the {!Instr} probes' histograms.  It
    keeps no finished reports: a server's {!Router} answers repeat
    submits from its own job table, and {!run_batch} runs each distinct
    digest once.

    The elimination memo and fault observer are process-global hooks;
    the most recently created runtime owns them, and {!shutdown}
    uninstalls them.  Create runtimes one at a time (the intended use: one runtime per
    server process).

    Jobs are deterministic, so a batch run on [k] workers produces results
    byte-identical to sequential execution — see {!Job.pp_outcome}.

    When {!Trace_span} tracing is enabled, {!submit} emits a [job:submit]
    event on the calling domain and runs the job body inside a [job:run]
    span parented to it, so cross-domain traces reconstruct the full
    submit→dequeue→run tree. *)

type t
(** A live runtime.  Owns its pool and elimination cache until
    {!shutdown}. *)

val create : ?workers:int -> ?queue_capacity:int -> unit -> t
(** [workers] defaults to [Domain.recommended_domain_count () - 1], at
    least 1; [queue_capacity] (default 64) bounds the pool's queue. *)

val workers : t -> int
(** The pool's worker-domain count. *)

val respawns : t -> int
(** Worker domains respawned by the pool's supervisor since [create]. *)

val submit :
  t ->
  ?on_full:[ `Block | `Shed ] ->
  ?timeout_s:float ->
  ?retry:Retry.t ->
  Job.t ->
  Job.outcome Future.t
(** Enqueue a job ({!Pool.submit} semantics, including [timeout_s]).

    [on_full] picks the saturated-queue policy.  The default [`Shed]
    never blocks: when the bounded queue is full the returned future is
    already [Failed] with [Tml_error.Error (Overloaded _)] — a
    {e transient} error, so callers (and the repair server's admission
    layer) can back off and resubmit.  [`Block] waits for a slot
    (classic back-pressure), the policy {!run_batch} uses internally.

    With [retry], transient failures ({!Tml_error.classify}) are re-run on
    the worker with capped, jittered, deterministic exponential backoff;
    permanent failures and expired deadlines fail the future immediately. *)

val run_batch :
  t ->
  ?timeout_s:float ->
  ?retry:Retry.t ->
  Job.t list ->
  Job.outcome Future.outcome list
(** Submit every distinct job once (jobs with equal {!Job.digest}s share
    one run), then await them all; results are in submission order
    regardless of completion order.  A batch racing {!shutdown} never
    raises: late submissions resolve [Cancelled]. *)

val stats : t -> Runtime_stats.snapshot
(** A consistent snapshot of this runtime's counters and stage totals. *)

val elim_cache_counters : t -> Lru_cache.counters
(** Hit/miss/eviction counters of the elimination cache. *)

val stats_json : t -> Json.t
(** The full instrumentation dump: job counters, retry/respawn/fault
    counters, queue high-water mark, per-stage wall-clock totals, the
    elimination cache's hit rate. *)

val shutdown : ?drain:bool -> t -> unit
(** Shut the pool down ({!Pool.shutdown}) and uninstall the global
    elimination memo and fault observer.  Idempotent. *)

val with_runtime : ?workers:int -> ?queue_capacity:int -> (t -> 'a) -> 'a
(** [create], run the function, always [shutdown]. *)
