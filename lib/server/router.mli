(** The request router: decoded {!Wire.request}s onto {!Runtime.submit}.

    A submit is admitted ({!Admission}), decoded with the lib/io parsers,
    and enqueued; the response is the job's digest, returned immediately
    — clients poll, wait on, or cancel the digest afterwards.

    One job table, keyed by digest, holds running jobs, settled replies
    and reports replicated to this node by a fleet coordinator
    ({!Wire.Put_report}).  A job is a deterministic function of its
    inputs, so its digest is a content address: a second submit of a
    running digest joins the first job's future, and a resubmit of a
    settled one is answered from the table without running anything.  A
    settled job keeps only its rendered reply: the first poll or wait
    that finds it settled renders the report and drops the outcome, and
    later reads serve the same text.

    Running jobs are never evicted.  Settled entries are bounded: they
    live in two generations of 1,024 digests each, and a reply read at
    least once per 1,024 settlements stays.  A poll, wait or cancel of an
    evicted digest answers the typed ["not-found"] error, as for a digest
    never seen; resubmitting the job runs it again and yields the same
    report.  Resubmits of an identical payload skip the decode through a
    memo keyed on the payload's MD5, bounded the same way (two
    generations of 512 payloads).

    Shedding is typed end to end: admission limits and the runtime's own
    bounded queue both surface as an ["overloaded"] {e transient} wire
    error, so a client can back off and resubmit.  Admission tickets are
    released when the underlying future settles (swept on every
    {!handle}).

    Per-op and per-kind request counters and response-outcome counters
    are registered in the process-wide {!Metrics} registry
    ([tml_server_requests_total], [tml_server_jobs_total],
    [tml_server_responses_total]). *)

type t

val create :
  ?admission:Admission.t ->
  ?job_timeout_s:float ->
  ?retry:Retry.t ->
  Runtime.t ->
  t
(** Route onto [runtime].  [job_timeout_s] and [retry] are passed to
    every {!Runtime.submit}.  [admission] defaults to
    [Admission.create ()]. *)

val admission : t -> Admission.t

val handle : t -> client:int -> Wire.request -> Wire.response
(** Handle one request on behalf of connection [client].  Never raises:
    every failure becomes an [Error_reply].  [Wait] blocks the calling
    (connection) thread until the job settles or its timeout expires —
    a wait-timeout on a still-running job reports [Job_pending].
    [Put_report] stores a replicated report as a settled entry (servable
    by poll/wait/submit on its digest) unless the table already holds the
    digest; [Fleet_status] and [Drain_node] are coordinator ops
    and answer a ["bad-request"] error here. *)

val classify : t -> Wire.request -> [ `Fast | `Slow ]
(** Whether {!handle} may block the calling thread for this request.
    Everything is [`Fast] (answered from memory or by a non-blocking
    enqueue) except a [Wait] on a job that is still running, which parks
    the caller in [Future.await] — the event-driven server routes
    [`Slow] requests to its executor pool instead of its loops.
    Advisory: a job may settle (never un-settle) between [classify] and
    [handle], which only makes a [`Slow] call return immediately. *)

val pending_jobs : t -> int
(** Registered jobs whose future is still pending. *)

val set_draining : t -> unit
(** Reject new submits with a transient ["unavailable"] error; polls,
    waits and cancels still work. *)

val draining : t -> bool

val drain : ?timeout_s:float -> t -> unit
(** {!set_draining}, then await every registered future (each at most
    [timeout_s]) and release their admission tickets. *)
