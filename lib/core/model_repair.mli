(** Model Repair (Definition 1, §IV-A).

    Given a DTMC [M] that violates a PCTL property [φ], find the smallest
    perturbation [Z] of the controllable transition probabilities such that
    [M_Z ⊨ φ]:
    {v
      min  g(Z) = Σ v_k²           (Eq. 1/4)
      s.t. M_Z ⊨ φ                 (Eq. 2 — discharged symbolically: the
                                     parametric model checker turns it into
                                     f(v) ~ b, Eq. 5)
           0 < P(i,j) + Z(i,j) < 1  on perturbed edges (Eq. 3/6)
    v}
    Perturbations may not create or delete edges (the paper's structure
    preservation); rows must stay stochastic, which is enforced
    symbolically at specification time. *)

type spec = {
  variables : (string * float * float) list;
      (** perturbation variables with box bounds [(name, lo, hi)] *)
  deltas : (int * int * Ratfun.t) list;
      (** [Z(i,j)]: the rational function added to edge [(i,j)]; typically
          [±v] or [c·v]. Every edge must already exist in the chain, and
          each row's deltas must sum to the zero function. *)
}

type repaired = {
  dtmc : Dtmc.t;  (** the repaired model [M'] *)
  assignment : (string * float) list;  (** the optimal perturbation vector *)
  cost : float;  (** cost of the optimal perturbation *)
  achieved_value : float;  (** the repaired probability/reward at the optimum *)
  symbolic_constraint : Ratfun.t;  (** [f(v)] itself, for inspection *)
  verified : bool;  (** numeric re-check of [M' ⊨ φ] *)
  epsilon_bisimilarity : float;
      (** Proposition 1: [M] and [M'] are ε-bisimilar with this ε — the
          largest entry of the realised perturbation matrix [Z]
          (computed as {!Bisimulation.epsilon_bound} between the original
          and repaired chains). *)
  solver_rung : string;
      (** which solver rung produced the solution: the method name for a
          plain [repair], the {!Nlp.solve_with_fallback} rung label
          ("augmented-lagrangian", "penalty", "penalty-wide") under
          [~fallback:true], or ["region-bnb"] under the region backend. *)
  certificate : Region_repair.certificate option;
      (** the global-optimality certificate, present exactly when the
          region backend produced the repair ([None] for NLP solutions,
          which certify nothing beyond local feasibility). *)
}

type result =
  | Already_satisfied of float option
      (** the original model satisfies [φ]; payload = its value *)
  | Repaired of repaired
  | Infeasible of { min_violation : float }
      (** no feasible perturbation found; payload = smallest constraint
          violation seen (the paper's "Model Repair gives infeasible
          solution" case) *)

val repair :
  ?backend:Repair_backend.t ->
  ?solver:Nlp.method_ ->
  ?starts:int ->
  ?seed:int ->
  ?cost:(float array -> float) ->
  ?force:bool ->
  ?fallback:bool ->
  ?gap:float ->
  base:Pdtmc.t ->
  Dtmc.t ->
  Pctl.state_formula ->
  spec ->
  result
(** [repair ~base m φ spec].  [m] is the float chain that is checked
    (before and after repair) and that [epsilon_bisimilarity] compares
    against; [base] is the same chain exact, the one the spec's deltas
    perturb and elimination runs on.  The caller chooses it: a model
    given as float text passes [Pdtmc.of_dtmc m]; a learned model passes
    the exact count-ratio chain of {!Mle.learn}, of which [m] is the
    {!Pdtmc.to_dtmc} instantiation.  With [force] the repair runs even
    when [m ⊨ φ] already. The default [cost] is the squared L2 norm of the
    perturbation vector (the Frobenius-norm cost of Eq. 1).  With
    [fallback] the NLP is solved by {!Nlp.solve_with_fallback} —
    escalating augmented Lagrangian → penalty → a wider multistart before
    conceding infeasibility; the successful rung is recorded in
    [solver_rung].

    [backend] selects the solving substrate (default {!Repair_backend.t}
    [Nlp_solver]).  Under [Region] the same constraint system is solved by
    {!Region_repair.minimize} to the relative optimality [gap] (default
    0.05) and the result carries a certificate; a custom [cost] degrades
    the certificate to a trivial lower bound (only the default quadratic
    cost has a sound box bound).  Under [Smc_prefilter] a seeded
    {!Smc.sprt} pre-check runs before the exact initial verification —
    see {!Repair_backend.smc_precheck} — and solving proceeds on the NLP
    path.  [solver]/[starts]/[fallback] are NLP-path knobs; [gap] is a
    region-path knob; both paths honour [seed], [cost] and [force].
    @raise Invalid_argument on malformed specs (unknown edges, unbalanced
    rows, duplicate variables).
    @raise Pquery.Unsupported on properties outside the parametric
    fragment. *)

val parametric_model : Pdtmc.t -> spec -> Pdtmc.t
(** [parametric_model base spec] is the parametric chain [M_Z]: [base]
    with the spec's deltas added — exposed for inspection and benches.
    @raise Invalid_argument as {!repair} on malformed specs. *)
