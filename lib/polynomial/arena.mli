(** Flat compiled evaluation of rational functions.

    {!compile} lowers a {!Ratfun.t} once into a postfix program of Horner
    steps over a float scratch stack — per evaluation there is no term-tree
    walk, no string lookup and no allocation.  This is the inner-loop
    evaluator behind repair NLP constraints: the optimizer calls the
    compiled form thousands of times with parameter vectors indexed by
    position, not by name.

    A compiled arena is immutable: evaluation scratch is per domain (and
    per in-flight call), so one [t] may be evaluated concurrently from
    several domains and threads. *)

type t

val compile : vars:string list -> Ratfun.t -> t
(** [compile ~vars f] fixes the parameter order: position [i] of the float
    array passed to {!eval} holds the value of [List.nth vars i].
    @raise Invalid_argument if [f] mentions a variable not in [vars]. *)

val vars : t -> string array
(** The parameter order fixed at compile time. *)

val eval : t -> float array -> float
(** Evaluate at a parameter vector (in compile-time [vars] order). *)

val eval_env : t -> (string -> float) -> float
(** Name-based evaluation for callers that still hold an environment;
    resolves each variable once per call. *)

val eval_interval : t -> float array -> float array -> float * float
(** [eval_interval t lo hi] runs the compiled Horner program over closed
    float intervals: parameter [i] ranges over [\[lo.(i), hi.(i)\]] and the
    result [(l, u)] is a sound enclosure of the rational function over the
    whole box — every point value lies in [\[l, u\]].  Division by a
    denominator interval containing zero (a potential pole inside the box)
    widens to [(neg_infinity, infinity)] rather than raising; NaN inputs
    are treated as the whole real line. *)

val eval_grad : ?h:float -> t -> float array -> float * float array
(** Value and central-difference gradient at a point, sharing the compiled
    program across all [2n+1] stencil evaluations.  [h] is the step
    (default [1e-6]); the input array is not modified. *)
