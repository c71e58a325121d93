(** The incremental MLE learner: folds appended trace chunks into
    transition counts without re-reading history.

    A learner owns the running count matrix, one {!Tally} per group, the
    cross-chunk parser state (the current [group] and a buffered partial
    trailing line), and the absolute line counter.  It keeps no trace:
    its memory is O(groups × support) plus the partial line, however long
    the stream runs.  Chunk boundaries are invisible: feeding a trace file
    in any number of pieces — even split mid-line — produces counts,
    tallies and line numbers identical to {!Trace_io.parse_tallies} +
    {!Mle.counts} on the concatenation.  Chunks may carry trace lines,
    tally lines or both.

    Appends are atomic: every complete line of a chunk is parsed,
    range-validated (with {e absolute} stream line numbers, satisfying
    the chunk-validation contract) and summed before anything is
    assigned, so a malformed chunk raises {!Trace_io.Parse_error} and
    leaves the learner exactly as it was. *)

type t

type append_result = {
  lines : int;  (** complete lines consumed from this append *)
  new_traces : int;
  support_changed : bool;
      (** did any count go 0 → positive? (support only grows, so
          [false] means the cached rational function is still valid and
          the checker can take the µs re-evaluation path) *)
}

val create : n:int -> t
(** A fresh learner over state space [0..n-1] with all-zero counts. *)

val append : t -> string -> append_result
(** Fold one appended chunk.  Only complete lines are consumed; a
    trailing partial line is buffered and completed by the next append.
    @raise Trace_io.Parse_error (with the true stream line number) on a
    malformed or out-of-range line — the learner is left unchanged. *)

val flush : t -> append_result
(** Consume the buffered partial line, if any, as a final line (what a
    batch parse of text without a trailing newline would do). *)

val num_states : t -> int

val counts : t -> float array array
(** The live count matrix — do not mutate. *)

val support : t -> (int * int) list
(** Observed edges [(src, dst)] with positive count, in row-major
    order — equal to [Mle.observed_support] on {!counts}. *)

val support_size : t -> int

val tallies : t -> (string * Tally.t) list
(** Per-group tallies in {!Trace_io.parse_tallies} form (groups in order
    of first appearance, unused default group dropped, named empty groups
    kept) — the input a batch {!Data_repair.spec} is built from. *)

val lines_consumed : t -> int
(** Complete lines consumed so far (= the absolute line number of the
    last consumed line). *)

val pending_bytes : t -> int
(** Bytes of buffered partial line awaiting the next append. *)

val trace_count : t -> int
