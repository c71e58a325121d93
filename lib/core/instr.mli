(** Per-stage instrumentation probes for the repair pipeline.

    The repair stack times its expensive stages — [learn] (MLE /
    parametric MLE), [eliminate] (parametric model checking), [solve]
    (the repair NLP) and [check] (numeric PCTL verification).  Each
    timed stage emits a {!Trace_span} named [stage:<name>] (free when
    tracing is disabled) and one observation into its
    [tml_stage_seconds] {!Metrics} histogram.  That histogram is the one
    record of stage timings: [Runtime_stats] reads its per-runtime stage
    totals from it.

    The probes also serve two fault-tolerance duties:

    - {b fault injection}: every stage entry is a {!Fault} site, so an
      installed chaos plan can raise, delay or NaN-corrupt a stage;
    - {b in-flight cancellation}: a worker installs a {!token} around each
      job, and {!time} polls it at every stage boundary — a job whose
      deadline expired (or whose future was cancelled) mid-run raises
      {!Deadline_exceeded} / {!Cancelled_in_flight} at the next stage
      instead of running to completion. *)

type stage = Learn | Eliminate | Solve | Check

val stage_name : stage -> string
(** ["learn"], ["eliminate"], ["solve"], ["check"]. *)

val stage_histogram : stage -> Metrics.histogram
(** The stage's [tml_stage_seconds] histogram (label [stage=<name>]):
    one observation per timed section, in seconds. *)

exception Deadline_exceeded
(** Raised by a stage-boundary checkpoint when the current token's
    deadline has passed. *)

exception Cancelled_in_flight
(** Raised by a stage-boundary checkpoint when the current token reports
    cancellation. *)

type token = { deadline : float option; cancelled : unit -> bool }
(** A cooperative cancellation token: an absolute wall-clock deadline and
    a cancellation probe, both polled between stages. *)

val with_token : token option -> (unit -> 'a) -> 'a
(** Install [tok] for the current domain for the duration of [f] (tokens
    nest; the previous token is restored on exit). *)

val checkpoint : unit -> unit
(** Poll the current token, raising {!Cancelled_in_flight} or
    {!Deadline_exceeded}.  No-op without a token.  Called automatically
    at every {!time} entry; long custom stages may poll it directly. *)

val time : stage -> (unit -> 'a) -> 'a
(** [time stage f] probes the stage's {!Fault} site, polls {!checkpoint},
    then runs [f ()] inside a [stage:<name>] trace span, reporting its
    duration to the [tml_stage_seconds] histogram.  Exceptions
    propagate; the duration is still reported and the span is marked
    errored. *)
