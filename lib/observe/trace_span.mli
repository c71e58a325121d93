(** Hierarchical trace spans for the repair runtime.

    A {e span} is one timed region of work — a pipeline stage, a job's run
    on a worker, a cache fill, an NLP fallback rung — with a unique id, an
    optional parent span, a job correlation id, wall-clock and
    trace-relative timestamps, free-form key/value attributes and an
    ok/error status.  Spans from every domain are merged into one
    deterministic record stream at {!drain} time, so a batch traced on 4
    workers reads the same as on 1.

    {b Cost model.}  Tracing is off by default; every probe
    ({!with_span}, {!event}, {!add_attr}) is then a single atomic load.
    When enabled, finished spans are pushed onto a {e lock-free}
    per-domain buffer (an atomic cons — no mutex on the hot path) and the
    parent context is tracked in domain-local storage, so tracing never
    serialises concurrent workers.

    {b Cross-domain parenting.}  The current span is domain-local: a span
    opened on the submitting domain is not automatically the parent of
    work a worker domain performs later.  Capture {!current} (or the
    result of {!event}) at submission time and pass it as [?parent] on
    the worker side — this is exactly what [Runtime.submit] does to hang
    each [job.run] span under its [job.submit] event.

    All state is process-global and domain-safe: the enabled flag, the
    span-id allocator and the buffer registry are atomics, never plain
    globals. *)

type status =
  | Ok  (** the span's body returned normally *)
  | Error of string
      (** the span's body raised; the payload is the printed exception *)

type t = {
  id : int;  (** unique within the process, allocated from an atomic *)
  parent : int option;  (** enclosing span, if any *)
  name : string;  (** span name, e.g. ["stage:eliminate"] *)
  job : string option;  (** job correlation id (job digest prefix) *)
  domain : int;  (** id of the domain the span ran on *)
  wall_s : float;  (** absolute start time, [Unix.gettimeofday] *)
  rel_s : float;  (** start time relative to {!enable} (merge/sort key) *)
  dur_s : float;  (** elapsed wall-clock seconds; [0.] for {!event}s *)
  attrs : (string * string) list;  (** key/value annotations, in add order *)
  status : status;
}
(** One finished span.  Records are immutable once drained. *)

val enable : unit -> unit
(** Turn tracing on, clear any previously buffered spans and reset the
    relative-time origin.  Idempotent. *)

val disable : unit -> unit
(** Turn tracing off.  Buffered spans are kept until the next {!enable}
    or {!drain}, so a caller may disable first and dump afterwards. *)

val enabled : unit -> bool
(** Whether spans are currently being recorded. *)

val with_span :
  ?parent:int ->
  ?job:string ->
  ?attrs:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f] inside a new span.  The span's parent is
    [?parent] when given, otherwise the innermost span open on this
    domain.  If [f] raises, the span is recorded with [Error] status and
    the exception is re-raised.  When tracing is disabled this is [f ()]
    after one atomic load. *)

val event :
  ?parent:int ->
  ?job:string ->
  ?attrs:(string * string) list ->
  string ->
  int option
(** A zero-duration span marking a point in time — a fault firing, a
    worker respawn, a queue dequeue.  Returns the new span's id (for use
    as a [?parent] on another domain), or [None] when tracing is
    disabled. *)

val current : unit -> int option
(** Id of the innermost span open on the calling domain, if any. *)

val add_attr : string -> string -> unit
(** Attach [key = value] to the innermost open span on this domain.
    No-op when tracing is disabled or no span is open. *)

val drain : unit -> t list
(** Remove and return every finished span, merged across all domains and
    sorted by [(rel_s, id)] — a deterministic order for a given set of
    spans.  Spans recorded by worker domains that have since died (e.g.
    respawned by the pool supervisor) are included: buffers are owned by
    the process-wide registry, not by the domain. *)
