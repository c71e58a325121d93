(** Exact parametric model checking by state elimination
    (Daws 2004; Hahn, Hermanns, Zhang 2010 — the algorithm behind
    PRISM/PARAM's parametric engines).

    Both queries return a closed-form {!Ratfun} over the chain's parameters:
    - the probability of eventually reaching a target set, and
    - the expected state-reward accumulated until first reaching it.

    These are exactly the [f(v)] of Proposition 2 (Eq. 5) and the
    reward-counterpart used in the WSN case study: the repair NLP then
    constrains [f(v) ~ b] numerically. *)

type order =
  | Min_degree  (** eliminate the state with fewest in×out edges first *)
  | Ascending  (** by state index *)
  | Descending

exception Not_almost_sure of int
(** Raised by {!expected_reward} when the given state (reachable from the
    initial state) does not reach the target with probability 1 for generic
    parameter values — the expected reward is infinite there. *)

type memo = key:string -> compute:(unit -> Ratfun.t) -> Ratfun.t
(** An installable whole-query cache.  [key] is a structural digest of
    (query kind, elimination order, target set, chain); [compute] performs
    the elimination.  The hook decides whether to serve a cached value or
    run (and record) the computation — the runtime layer installs an LRU
    cache with request coalescing here. *)

val set_memo : memo option -> unit
(** Install (or, with [None], remove) the process-wide elimination memo.
    The hook may be called concurrently from several domains; installers
    must provide their own synchronisation.  With no hook installed both
    queries always run the elimination directly. *)

val reachability_probability :
  ?order:order -> Pdtmc.t -> target:int list -> Ratfun.t
(** [Pr(init ⊨ F target)] as a rational function of the parameters.
    Exact for every parameter valuation that keeps all structurally-present
    edges strictly positive (the interior of the feasible region, which is
    where Model/Data Repair searches). *)

val expected_reward : ?order:order -> Pdtmc.t -> target:int list -> Ratfun.t
(** Expected accumulated state reward until first reaching the target
    (PRISM's [R \[F target\]]); target-state rewards are not counted.
    @raise Not_almost_sure when the target is not reached almost surely. *)
