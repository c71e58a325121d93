(** Deterministic fault injection for chaos-testing the repair runtime.

    A {e plan} names pipeline sites and the faults to fire there.  Plans
    are installed process-wide (like {!Pquery.set_memo}); with no
    plan installed every probe is a single atomic load.  Firing decisions
    are deterministic: a seeded SplitMix64 hash of [(seed, site,
    occurrence)] drives the optional firing [rate], so the same plan
    replays the same faults — no wall-clock randomness.

    Sites are probed by the production code itself: {!Instr.time} probes
    [Learn]/[Eliminate]/[Solve]/[Check] at stage entry, the worker pool
    probes [Worker] per dequeued task, and the LRU cache probes [Cache]
    at the start of each fill.  When tracing is enabled, every firing
    additionally emits a [fault:fired] {!Trace_span} event carrying the
    site and action, so chaos runs are visible in trace dumps. *)

type site =
  | Learn
  | Eliminate
  | Solve
  | Check
  | Cache
  | Worker
  | Accept
  | Read
  | Decode
  | Write
(** Where a fault can fire — the four pipeline stages, cache fills, the
    worker dequeue loop, and the four connection-handling points of the
    repair server ([Accept]/[Read]/[Decode]/[Write], probed by
    [lib/server] per accepted connection, received frame, decoded request
    and written response). *)

type action =
  | Raise  (** raise [Tml_error.Error (Injected_fault _)] at the site *)
  | Delay of float  (** sleep this many seconds before running the site *)
  | Nan
      (** corrupt every float routed through {!corrupt} for the duration
          of the site's dynamic extent (one armed window per firing) *)

type spec
(** One fault declaration: a site, an action and its firing schedule. *)

val spec : ?after:int -> ?fires:int -> ?rate:float -> site -> action -> spec
(** A fault at [site]: skip the first [after] occurrences (default 0),
    then fire at most [fires] times (default 1), each eligible occurrence
    firing with probability [rate] (default 1.0, decided by the plan's
    seeded PRNG). *)

type t
(** A complete plan: a seed plus the specs to arm. *)

val plan : ?seed:int -> spec list -> t
(** Bundle [specs] under [seed] (default 0) — the seed drives every
    rate-limited firing decision. *)

val install : t option -> unit
(** Install (or with [None] remove) the process-wide plan.  Installing
    resets all firing counters. *)

val site_name : site -> string
(** ["learn"], ["eliminate"], ["solve"], ["check"], ["cache"], ["worker"],
    ["accept"], ["read"], ["decode"], ["write"]. *)

val site_of_string : string -> site option
(** Inverse of {!site_name}; [None] on unknown names. *)

val action_of_string : ?delay_s:float -> string -> action option
(** ["raise"], ["nan"] or ["delay"] (a delay of [delay_s] seconds,
    default 0.1); [None] on unknown names. *)

val with_site : site -> (unit -> 'a) -> 'a
(** Probe [site], then run the body.  [Raise] specs raise before the body
    runs; [Delay] specs sleep first; [Nan] specs arm {!corrupt} for this
    domain until the body returns. *)

val at : site -> unit
(** [with_site site (fun () -> ())] — probe-only form for sites with no
    meaningful body ([Cache] fills, [Worker] dequeues). *)

val corrupt : site -> float -> float
(** Identity, unless a [Nan] fault armed [site] on this domain, in which
    case the value is replaced by [Float.nan]. *)

val fired_total : unit -> int
(** Faults fired since the current plan was installed. *)

val fired_at : site -> int
(** Faults fired at [site] since the current plan was installed. *)

val set_observer : (site -> unit) option -> unit
(** Called once per fired fault (the runtime wires this to its stats). *)
