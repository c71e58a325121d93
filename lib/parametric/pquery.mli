(** Symbolic PCTL queries over parametric chains.

    Turns a top-level [P ~ b \[ψ\]] or [R ~ r \[F φ\]] formula into the
    closed-form rational function [f(v)] of Proposition 2 / 3 — the thing
    the repair NLP constrains against the bound. Inner state formulas must
    be propositional (boolean combinations of labels); nested probabilistic
    operators cannot be made parametric and are rejected. *)

type query = {
  value : Ratfun.t;  (** the symbolic probability / expected reward *)
  cmp : Pctl.cmp;
  bound : float;
  eval : (string -> float) -> float;
      (** compiled fast evaluation of [value] (arena-backed, see {!Arena}) *)
  arena : Arena.t;
      (** the flat compiled form of [value], over [Ratfun.vars value];
          prefer {!compile_value} / {!compile_violation} for index-based
          inner loops *)
}

exception Unsupported of string

val propositional_sat : Pdtmc.t -> Pctl.state_formula -> bool array
(** Satisfaction of a propositional formula per state.
    @raise Unsupported on [P]/[R] operators. *)

val path_probability : Pdtmc.t -> Pctl.path_formula -> Ratfun.t
(** Symbolic [Pr(init ⊨ ψ)]. Supports X, U, F, G and their step-bounded
    forms (bounded operators by symbolic vector iteration — keep the bound
    modest). @raise Unsupported on nested probabilistic operators. *)

val reachability_reward : Pdtmc.t -> Pctl.state_formula -> Ratfun.t
(** Symbolic [E\[reward until F φ\]].
    @raise Elimination.Not_almost_sure when the target is not almost-surely
    reached. @raise Unsupported on non-propositional [φ]. *)

val of_formula : Pdtmc.t -> Pctl.state_formula -> query
(** Decomposes a top-level [Prob]/[Reward] formula: eliminates the chain
    and compiles the value once into [arena].  With a memo installed
    (see {!set_memo}) the pair is looked up by the formula's path part
    and {!Pdtmc.digest}, so a hit eliminates and compiles nothing; the
    comparison and bound never enter the key.
    @raise Unsupported for formulas whose top level is not a single [P]/[R]
    operator. *)

type memo =
  key:string -> compute:(unit -> Ratfun.t * Arena.t) -> Ratfun.t * Arena.t
(** An installable whole-query cache of compiled values.  [key] is a
    structural digest of (query kind, path formula, chain); [compute]
    eliminates and compiles.  The hook decides whether to serve a cached
    pair or run (and record) the computation — the runtime layer installs
    an LRU cache with request coalescing here. *)

val set_memo : memo option -> unit
(** Install (or, with [None], remove) the process-wide query memo.  The
    hook may be called concurrently from several domains; installers must
    provide their own synchronisation.  With no hook installed
    {!of_formula} always eliminates and compiles directly. *)

val constraint_violation : ?margin:float -> query -> (string -> float) -> float
(** [<= 0] iff the (strict or non-strict) comparison holds at the given
    parameter valuation with slack [margin] (default 0) — the inequality
    handed to the NLP solver. A small positive [margin] keeps solutions in
    the strict interior so that the repaired model still verifies after
    float round-off. Strict comparisons get an additional tiny margin. *)

val compile_value : query -> vars:string list -> float array -> float
(** Arena-compiled evaluation of the query value with the parameter vector
    indexed by position in [vars] — the form the NLP inner loop wants
    (no per-call name resolution).  When [vars] is the query's own order
    ([Ratfun.vars value]) this reuses [arena] and compiles nothing;
    otherwise it compiles a fresh arena in the requested order.  Every
    compilation counts in [tml_arena_compiles_total].
    @raise Invalid_argument if the query mentions a variable not in [vars]. *)

val compile_violation :
  ?margin:float -> query -> vars:string list -> float array -> float
(** Arena-compiled {!constraint_violation} over a positional parameter
    vector; same comparison/margin semantics and the same arena reuse as
    {!compile_value}. *)
