(** Parametric discrete-time Markov chains: transition probabilities (and
    state rewards) are {!Ratfun} rational functions over named parameters.

    This is the model class of Propositions 2 and 3 in the paper: a Model
    Repair problem turns a concrete DTMC into a parametric one by adding
    perturbation variables [Z(i,j)] to controllable entries; a Data Repair
    problem makes maximum-likelihood transition estimates parametric in the
    data-perturbation vector [p]. State elimination (see {!Elimination})
    then produces the closed-form rational function the non-linear program
    constrains. *)

type t

val make :
  n:int ->
  init:int ->
  transitions:(int * int * Ratfun.t) list ->
  ?labels:(string * int list) list ->
  ?rewards:Ratfun.t array ->
  unit ->
  t
(** Rows must sum to 1 {e exactly as rational functions} — this is checked
    symbolically, which catches most malformed parametrisations at
    construction time. Identically-zero entries are dropped.
    @raise Invalid_argument on bad indices, duplicate edges or rows not
    summing to the constant 1. *)

val of_dtmc : Dtmc.t -> t
(** Exact lift of a concrete chain (floats become exact dyadic rationals).
    Use it for chains given as float text; a chain learned from counts has
    its exact form already ([Mle.learn]), and lifting its rounded floats
    instead yields 2{^-53}-denominator constants that make elimination
    many times slower. *)

val num_states : t -> int
val init_state : t -> int
val succ : t -> int -> (int * Ratfun.t) list
val pred : t -> int -> int list
val reward : t -> int -> Ratfun.t
val params : t -> string list
(** All parameter names appearing in the chain, sorted. *)

val digest : t -> string
(** Hex MD5 of a canonical structural serialisation (states, edges with
    their exact rational functions, labels, rewards).  Chains with equal
    digests are structurally identical, so cached elimination results can
    be shared between them — this is the cache key used by the runtime's
    memoizing result cache. *)

val states_with_label : t -> string -> int list

val map_transitions : t -> (int -> int -> Ratfun.t -> Ratfun.t) -> t
(** Rewrite every edge (the result is re-validated). *)

val instantiate : t -> (string -> Ratio.t) -> Dtmc.t
(** Substitute concrete parameter values and drop to a float DTMC.
    @raise Invalid_argument when an instantiated probability falls outside
    [0, 1] or a row stops summing to 1 (cannot happen if the valuation is
    inside the feasible region). *)

val to_dtmc : t -> Dtmc.t
(** The float chain of a parameter-free [t]: {!instantiate} with no
    valuation.  Each probability is its exact rational rounded once, so
    a count ratio [k/t] becomes [float k /. float t] bit for bit (counts
    below 2{^53}).
    @raise Invalid_argument when [t] has a parameter. *)

val instantiate_exact : t -> (string -> Ratio.t) -> (int * int * Ratio.t) list
(** The instantiated edge list, exact. *)

val pp : Format.formatter -> t -> unit
