(** The fleet coordinator: routes the wire protocol over a sharded pool
    of backend repair servers.

    A coordinator owns no {!Runtime}.  It decodes each submit just far
    enough to compute its {!Job.digest}, places the digest on a
    consistent-hash {!Ring} over the backend addresses, and proxies the
    RPC through {!Client} — so a protocol-1 client cannot tell a
    coordinator from a single node (responses gain only an extra
    ["node"] envelope field, which v1 decoders ignore).

    {b Failover.}  Transient failures — connection refused, peer death
    mid-RPC, deadlines, ["overloaded"]/["unavailable"] replies — re-route
    to the next ring successor after a capped jittered backoff
    ({!Retry.backoff_s}), bumping [tml_fleet_reroutes_total].  Finished
    reports are replicated ({!Wire.Put_report}) to the digest's
    successor, and every accepted submit's wire payload is kept in a
    registry: when a node answers ["not-found"] (a failover node, or one
    that evicted or lost a finished job), the job is resubmitted there
    and re-asked.  Jobs are deterministic, so the recovered report is
    byte-identical — an accepted job is never lost to a node death.
    Completed registry entries, payload included, are evicted FIFO past
    [max_completed], so coordinator memory does not grow with lifetime
    job count.

    {b Waits.}  Proxied [Wait]s are re-issued to the backend in chunks
    shorter than [rpc_timeout_s], with the wait's own deadline enforced
    at the coordinator — a job running longer than the per-RPC socket
    deadline is {e not} a node failure, and never triggers a health
    strike, a re-route, or duplicated work.

    {b Health.}  A prober thread pings every node each
    [probe_interval_s]; [eject_threshold] consecutive failures eject a
    node from the ring ([tml_fleet_ejections_total]), a successful probe
    moves it to probation, and a second success re-admits it
    ([tml_fleet_readmissions_total]).  {!Wire.Drain_node} drains a node
    administratively: stop routing new digests to it, await its
    in-flight jobs, then remove it — zero job loss, same refuse-await-
    remove ordering as the single-node graceful drain.

    {b Observability.}  Per-node [tml_fleet_in_flight] gauges, the
    re-route/ejection/readmission/replication/resubmit counters, a
    [tml_fleet_fanout_seconds] latency histogram, and [fleet:route]
    spans parenting each backend [fleet:rpc]. *)

type t

val create :
  ?vnodes:int ->
  ?rpc_timeout_s:float ->
  ?probe_interval_s:float ->
  ?eject_threshold:int ->
  ?drain_timeout_s:float ->
  ?max_completed:int ->
  ?retry:Retry.t ->
  Client.addr list ->
  t
(** Build the ring over the given backends (all initially healthy) and
    start the prober thread.  [vnodes] (default 64) is the ring's
    virtual-node count; [rpc_timeout_s] (default 10) arms each backend
    socket's deadlines (waits are chunked below it, so it bounds
    node-silence detection, not job runtime); [probe_interval_s]
    (default 2) paces the health prober; [eject_threshold] (default 3)
    is the consecutive-failure ejection bar; [drain_timeout_s]
    (default 30) bounds per-job waits during drains; [max_completed]
    (default 1024) caps retained completed registry entries;
    [retry] shapes the failover backoff schedule (default: 25 ms base,
    500 ms cap).
    @raise Invalid_argument on an empty node list. *)

val handle : t -> client:int -> Wire.request -> Wire.response
(** Serve one request (never raises).  [Fleet_status] and [Drain_node]
    are answered locally; everything else routes to the ring. *)

val handler : t -> Server.handler
(** Plug the coordinator into {!Server.start}. *)

val ring : t -> Ring.t
(** The current ring (healthy + draining members). *)

val pending : t -> int
(** Tracked digests not yet observed complete. *)

val set_draining : t -> unit
(** Refuse new submits with a transient ["unavailable"] error. *)

val drain : ?timeout_s:float -> t -> unit
(** {!set_draining}, then await every tracked in-flight digest through
    the normal re-routing fetch path. *)

val shutdown : t -> unit
(** Stop and join the prober thread.  Does not drain. *)
