(** Intra-job parallelism hook.

    State elimination fans independent units of work out through {!run};
    the runtime layer installs a runner backed by its domain pool (like
    {!Pquery.set_memo} and {!Fault.set_observer}), and with no
    runner installed every call degrades to running the tasks
    sequentially, in index order, on the calling domain.

    {b Determinism contract.}  A runner must execute {e every} task
    exactly once and return only after all of them have finished.  Tasks
    handed to {!run} are required by their callers to be pairwise
    independent (they touch disjoint state), so any execution order —
    including the sequential fallback — produces identical results.
    Exceptions are deterministic too: the exception raised by the {e
    lowest-indexed} failing task is re-raised after the whole batch has
    settled, regardless of the temporal order in which tasks failed. *)

type runner = (unit -> unit) array -> unit
(** Execute every task, return when all are done, re-raise the
    lowest-indexed task's exception if any failed. *)

val set_runner : runner option -> unit
(** Install (or with [None] remove) the process-wide runner.  Owned by
    the runtime: installed by [Runtime.create], cleared by
    [Runtime.shutdown]. *)

val enabled : unit -> bool
(** A runner is currently installed. *)

val run : (unit -> unit) array -> unit
(** Execute the batch through the installed runner, or sequentially in
    index order when none is installed.  Either way: all tasks run, and
    the lowest-indexed failure is re-raised once the batch has settled. *)
