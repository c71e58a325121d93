(** A supervised, fixed-size pool of OCaml 5 domains draining a bounded
    job queue.

    Submissions enqueue a thunk and return a {!Future}; worker domains
    dequeue and run thunks in FIFO order.  The queue is bounded: when it is
    full, {!submit} blocks until a worker makes room (back-pressure, not
    unbounded buffering).

    {b Supervision.}  A job's own exceptions are caught and settle its
    future as [Failed]; an exception escaping the worker's {e plumbing}
    (e.g. an injected [Fault.Worker] fault) kills that worker domain.  The
    pool detects the death, re-queues the interrupted task (its future is
    still pending, so it settles exactly once, later), spawns a
    replacement domain, and counts the event ([{!respawns}],
    [on_respawn]).  Worker capacity is therefore restored automatically
    and no submitted future is ever lost.

    Cancellation and timeouts are cooperative: a cancelled future's job is
    skipped when a worker reaches it, and a job whose queue deadline has
    passed resolves [Timed_out] instead of running.  A job that has
    already {e started} additionally polls its deadline and cancellation
    state at every {!Instr} stage boundary, so it stops mid-run at the
    next checkpoint rather than running to completion.

    {!shutdown} is graceful by default — queued jobs are drained before the
    workers exit — or immediate with [~drain:false], which cancels every
    queued job.  Either way all worker domains (including respawned ones)
    are joined before the call returns, so shutdown never leaks domains
    and never deadlocks.  A {!submit} racing a shutdown returns an
    already-[Cancelled] future instead of raising, so a batch in flight
    never leaks an unsettled future. *)

type t
(** A running pool.  Workers live until {!shutdown}. *)

val create :
  ?queue_capacity:int ->
  ?on_queue_depth:(int -> unit) ->
  ?on_respawn:(exn -> unit) ->
  workers:int ->
  unit ->
  t
(** Spawn [workers] domains ([>= 1]).  [queue_capacity] bounds the number
    of queued (not yet running) jobs, default 64.  [on_queue_depth] is
    called with the queue length after every enqueue (for stats);
    [on_respawn] with the escaping exception after every worker respawn.
    @raise Invalid_argument on [workers < 1] or [queue_capacity < 1]. *)

val workers : t -> int
(** The worker-domain count given to {!create}. *)

val respawns : t -> int
(** Worker domains respawned after a crash since [create]. *)

val submit : t -> ?timeout_s:float -> (unit -> 'a) -> 'a Future.t
(** Enqueue a job; blocks while the queue is full.  With [timeout_s], the
    job must {e finish} within that many seconds of submission: the
    deadline is checked at dequeue and again at every [Instr] stage
    boundary while running, resolving [Timed_out] either way.  After
    {!shutdown} has begun, returns an already-[Cancelled] future. *)

val try_submit : t -> ?timeout_s:float -> (unit -> 'a) -> 'a Future.t option
(** Non-blocking {!submit}: [None] when the queue is full {e right now}
    (nothing is enqueued — the caller sheds or retries), otherwise exactly
    {!submit}, including the already-[Cancelled] future after
    {!shutdown}. *)

val shutdown : ?drain:bool -> t -> unit
(** Stop accepting work and join all workers.  [drain] (default [true])
    lets queued jobs finish first; with [~drain:false] queued jobs resolve
    [Cancelled].  Idempotent. *)
