(** Sufficient statistics of a trace set for transition-count MLE.

    The closed-form learner of §IV-B (Eqs. 11–15) sees a group of traces
    only through its transition counts, and the expected number of
    dropped traces only through the group's trace count.  A tally holds
    exactly those numbers: O(support) integers however many traces were
    folded in.  Actions are ignored, as {!Mle} ignores them.

    The representation is canonical — transitions sorted by [(src, dst)],
    each present once with a positive count — so structural equality is
    equality of the data, whatever order the traces arrived in.

    No count may exceed 2{^53}, so every count, and every sum {!Mle}
    forms from them, is exact as a float. *)

type t = private {
  traces : int;  (** number of traces folded in *)
  transitions : (int * int * int) list;
      (** [(src, dst, count)], strictly increasing in [(src, dst)],
          every count positive *)
}

val empty : t

val make : traces:int -> (int * int * int) list -> t
(** Canonicalise: sort the transitions and sum duplicate [(src, dst)]
    entries.
    @raise Invalid_argument on a negative trace count or state, a
    non-positive transition count, transitions with a trace count of 0,
    or a count past 2{^53}. *)

val add : t -> t -> t
(** The tally of the union of the two trace sets.
    @raise Invalid_argument on a count past 2{^53}. *)

val of_traces : Trace.t list -> t

val of_groups : (string * Trace.t list) list -> (string * t) list
(** {!of_traces} on every group, names and order kept. *)

(** {1 Accumulation}

    A mutable builder collects the cells of traces and tallies and
    canonicalises them once, in {!build}; {!of_traces} and [Trace_io]'s
    parser are folds over it. *)

type builder

val builder : unit -> builder
val add_trace : builder -> Trace.t -> unit

val add_tally : builder -> t -> unit
(** @raise Invalid_argument when the trace count passes 2{^53}. *)

val build : builder -> t
(** @raise Invalid_argument when a summed count passes 2{^53}, or on
    a negative state. *)
