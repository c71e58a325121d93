(** Reward Repair (Definition 2, §IV-C and the §V-B case study).

    Two complementary mechanisms, both implemented:

    {b 1. Posterior-regularisation projection} (Prop. 4, Eqs. 17–18): the
    MaxEnt-IRL path distribution [P(U|θ)] is projected onto the subspace
    satisfying trajectory rules [φ_l] by the closed form
    [Q(U) ∝ P(U)·exp(−Σ_l λ_l (1 − φ_l(U)))]; the repaired reward is then
    re-estimated by weighted IRL against [Q]. As [λ → ∞], rule-violating
    trajectories get probability 0 while satisfying ones keep their
    relative mass — exactly the intuition the paper states after Prop. 4.

    {b 2. Direct Q-constraint repair} (§V-B): solve
    [min ‖Δθ‖² s.t. Q*_{θ+Δθ}(s, a_good) − Q*_{θ+Δθ}(s, a_bad) ≥ margin]
    so the repaired optimal policy avoids unsafe actions.  State rewards
    are [θᵀf], so for a fixed policy π, [Q^π(s,a) = θ·ψ_π(s,a) + c_π(s,a)]
    where ψ_π is the discounted feature expectation (Abbeel & Ng), computed
    exactly by {!Value.policy_q}.  As [Q* = max_π Q^π], each constraint is
    a union of polyhedra in θ, and {!repair_q} searches them by constraint
    generation: a k-variable QP per better-side policy, over a shared set
    of worse-side cuts.  No derivative-free solver and no random starts are
    involved: the result is deterministic. *)

(** {1 Projection route (Prop. 4)} *)

val projection_weights :
  Mdp.t ->
  theta:float array ->
  rules:(Trace_logic.t * float) list ->
  Trace.t list ->
  (Trace.t * float) list
(** Normalised [Q(U)] over the given trajectory set: MaxEnt weight
    [exp(Σ θᵀf) · Π P(s'|s,a)] times the rule penalty
    [exp(−Σ λ_l (1−φ_l(U)))].
    @raise Invalid_argument on an empty trajectory set or negative λ. *)

val sample_trajectories :
  Prng.t -> Mdp.t -> theta:float array -> horizon:int -> count:int -> Trace.t list
(** Trajectories drawn from the soft (MaxEnt) policy under [θ] — the
    Gibbs-style sampling the paper suggests for grounding first-order
    rules. *)

val repair_by_projection :
  ?options:Irl.options ->
  Mdp.t ->
  theta:float array ->
  rules:(Trace_logic.t * float) list ->
  Trace.t list ->
  float array
(** The repaired weight vector θ′ = IRL fit to the projected
    distribution. *)

(** {1 Direct Q-constraint route (§V-B)} *)

type q_constraint = {
  state : int;
  better : string;  (** action whose Q-value must dominate *)
  worse : string;
  margin : float;  (** required gap, > 0 for a strict preference *)
}

type searched = {
  better : int;  (** better-side candidate policies, i.e. regions *)
  worse : int;  (** worse-side policies cut against *)
  rounds : int;  (** QP rounds until π*(θ′) was already a cut *)
}
(** What the constraint-generation search looked at before it stopped. *)

type repaired = {
  theta : float array;
  delta : float array;  (** θ′ − θ *)
  cost : float;  (** ‖Δθ‖² *)
  policy : Mdp.policy;  (** optimal policy under θ′ *)
  q_gaps : (q_constraint * float) list;  (** achieved Q(better) − Q(worse) *)
  verified : bool;  (** every constraint satisfied by the final Q-table *)
  searched : searched;
}

type result =
  | Already_satisfied  (** the optimal policy under θ meets every constraint *)
  | Repaired of repaired
  | Infeasible of { min_violation : float }
      (** the least worst-row violation over the regions searched: for
          each candidate, the smallest t such that every cut, relaxed by
          t, is met somewhere in the box *)

val repair_q :
  ?gamma:float ->
  ?force:bool ->
  Mdp.t ->
  theta:float array ->
  constraints:q_constraint list ->
  result
(** Minimal reward repair by constraint generation over successor
    features, with [|Δθ_i| ≤ 2] and every cut asking for
    [margin + 1e-6] (so the final Q-table verifies the raw margin).

    - {e Better side.} The candidates are π*(θ) and π* at the 2^k
      corners of the box.  One full policy serves every constraint.
    - {e Worse side.} The cuts start from π*(θ).  Each round solves, for
      each candidate, [min ‖Δθ‖²] over the cuts and the box, a k-variable
      QP solved by active-set enumeration; candidates whose earlier
      optimum already exceeds the cheapest are not re-solved, as cuts only
      raise it.
    - At the cheapest minimiser θ′, π*(θ′) joins both sets.  The search
      stops when π*(θ′) is already a cut: then Q*(s, worse) at θ′ is a
      cut value and θ′ is feasible.

    The returned θ′ is re-verified with {!Value.solve}: [q_gaps] are its
    Q-table gaps and [verified] requires each to reach [margin − 1e-9].
    [force] runs the search even when θ already satisfies every
    constraint.
    @raise Invalid_argument on unknown states/actions, an MDP without
    features or with more than 8, a θ of the wrong dimension, or a
    [gamma] outside (0, 1).
    @raise Tml_error.Error ([Solver_nonconvergence]) when 200 rounds end
    without a fixed point. *)

val policy_satisfies :
  Mdp.t -> Mdp.policy -> rules:Trace_logic.t list -> horizon:int -> bool
(** Rolls the (deterministic) policy out from the initial state, following
    every probabilistic branch (exhaustive tree walk up to [horizon]), and
    checks each complete trajectory against all rules. *)
