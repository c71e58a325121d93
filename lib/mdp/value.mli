(** Dynamic programming over MDPs: value iteration, Q-values, greedy policy
    extraction, and exact evaluation of a fixed policy ({!policy_q}).

    The per-step reward of taking action [a] in state [s] is
    [Mdp.state_reward s + a.reward].

    Every entry point runs on one compiled Bellman kernel (see {!compile}):
    in-place (Gauss-Seidel) sweeps that stop once the largest per-state
    change falls below [tol], or after [max_iter] sweeps.  {!policy_q}
    is the exception: it evaluates a fixed policy exactly, by one LU
    factorisation. *)

type q_table = (string * float) list array
(** [q.(s)] lists [(action_name, Q(s, action))]. *)

val value_iteration :
  ?max_iter:int -> ?tol:float -> gamma:float -> Mdp.t -> float array
(** Optimal discounted state values. [gamma] must lie in (0, 1] — with 1 the
    iteration is only guaranteed to converge on MDPs whose proper policies
    reach absorbing states.
    @raise Invalid_argument on a gamma outside (0, 1]. *)

val q_values :
  ?max_iter:int -> ?tol:float -> gamma:float -> Mdp.t -> q_table
(** Value iteration, then the Q-value of every action under its values. *)

val greedy_policy : Mdp.t -> q_table -> Mdp.policy
(** Ties broken toward the lexicographically first action name (actions are
    stored name-sorted, making the result deterministic). *)

val optimal_policy :
  ?max_iter:int -> ?tol:float -> gamma:float -> Mdp.t -> Mdp.policy * float array

(** {1 Compiled kernel}

    An MDP flattened into arrays: per-state action slots, action rewards,
    successor indices and probabilities.  State rewards are supplied per
    solve, so a caller that varies only them (reward repair) compiles once
    and re-solves without copying the MDP.  A kernel is immutable and every
    solve allocates its own value vector, so one kernel may be solved from
    several domains at once.  Results are bit-identical to the entry points
    above on the MDP whose state rewards are [rewards]. *)

type kernel

val compile : Mdp.t -> kernel
(** Flatten the MDP's actions and distributions, in their stored order. *)

val slot : kernel -> int -> string -> int
(** [slot k s name] is the slot of action [name] in state [s].
    @raise Invalid_argument on an unknown state or action. *)

val solve :
  ?max_iter:int -> ?tol:float -> gamma:float -> kernel -> rewards:float array ->
  float array
(** {!value_iteration} with state rewards [rewards].
    @raise Invalid_argument on a bad gamma or a reward vector of the wrong
    length. *)

val q_slot :
  gamma:float -> kernel -> rewards:float array -> float array -> int -> int -> float
(** [q_slot ~gamma k ~rewards v s j] is Q(s, slot j) under the values [v].
    @raise Invalid_argument if [j] is not a slot of state [s]. *)

val greedy_slots :
  gamma:float -> kernel -> rewards:float array -> float array -> int array
(** [greedy_slots ~gamma k ~rewards v] is, per state, the slot of the
    action with the largest Q value under [v] — ties go to the first
    slot, as in {!greedy_policy}.
    @raise Invalid_argument on a bad gamma or vectors of the wrong
    length. *)

val policy_q :
  gamma:float -> kernel -> policy:int array -> float array array ->
  float array array
(** Exact evaluation of the fixed policy [policy] (one slot per state)
    for several reward columns at once.  [policy_q ~gamma k ~policy cols]
    factorises (I − γP_π) once ({!Linalg.lu_solve_many}) and back-solves
    each state-reward column of [cols] (with no action rewards), then one
    more column holding the kernel's action rewards alone (with no state
    rewards).  It returns [Array.length cols + 1] arrays of Q values,
    indexed by slot.  Q is linear in the rewards, so under state rewards
    [Σ θ_i·cols.(i)] plus the action rewards, Q^π of slot [j] is
    [Σ θ_i·q.(i).(j) + q.(last).(j)].  There is no sweep and no stopping
    rule: the values are exact up to the LU's rounding.
    @raise Invalid_argument on a gamma outside (0, 1), a policy of the
    wrong length or naming another state's slot, or a column of the wrong
    length. *)
