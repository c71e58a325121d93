(** Maximum-likelihood estimation of Markov-chain / MDP transition
    probabilities from traces — the paper's learning procedure [ML(D)] for
    the transition function [P] (§II).

    The parametric variant is the machinery behind Data Repair
    (Prop. 3): traces are partitioned into groups, each group [g] gets a
    drop-fraction parameter [x_g ∈ \[0,1)], and the ML estimates become
    rational functions of those parameters — keeping a group's weight at
    [1 - x_g]. Parametric model checking of the resulting {!Pdtmc} then
    yields the closed-form constraint of Eq. 15. *)

(** {1 Concrete estimation} *)

val counts : n:int -> Tally.t -> float array array
(** [counts.(s).(d)] = the tally's [s -> d] count, as a float (exact:
    counts stay below 2{^53}).
    @raise Invalid_argument when a transition names a state outside
    [0 .. n-1]. *)

val transition_counts : n:int -> Trace.t list -> float array array
(** {!counts} of [Tally.of_traces traces]: the number of observed
    [s -> d] steps, actions ignored.
    @raise Invalid_argument when any trace state, a lone one included,
    lies outside [0 .. n-1]. *)

val learn :
  n:int ->
  init:int ->
  ?labels:(string * int list) list ->
  ?rewards:Ratio.t array ->
  ?smoothing:float ->
  ?support:(int * int) list ->
  Tally.t ->
  Pdtmc.t
(** The learner: the exact, parameter-free chain of count ratios.  Edge
    [s -> d] gets [k / t], [k] its count and [t] the row total, as an
    exact rational, so Model Repair eliminates the estimate the data
    gives rather than a rounded copy of it.  [smoothing] adds Laplace
    mass α (lifted exactly) to every edge of the [support] (default: the
    edges observed anywhere in the data).  States never visited as
    sources become absorbing self-loops.
    @raise Invalid_argument on negative smoothing, or when a transition
    of the tally or an edge of [support] names a state outside
    [0 .. n-1]; a tally keeps no record of lone-state traces, so their
    states go unchecked. *)

val learn_dtmc :
  n:int ->
  init:int ->
  ?labels:(string * int list) list ->
  ?rewards:float array ->
  ?smoothing:float ->
  ?support:(int * int) list ->
  Tally.t ->
  Dtmc.t
(** The float chain checks use: {!Pdtmc.to_dtmc} of {!learn} (rewards
    lifted exactly).  Each probability is [float k /. float t] bit for
    bit, the row-normalised {!counts}, whenever α is a small dyadic such
    as 0, 0.5 or 1 (counts plus α stay exact in floats).
    @raise Invalid_argument as {!learn}. *)

val learn_mdp_dists :
  Mdp.t -> ?smoothing:float -> Trace.t list -> Mdp.t
(** Re-estimates every action distribution of the given MDP from
    state/action traces, keeping its structure (support = the existing
    edges); (s, a) pairs never observed keep their current distribution. *)

(** {1 Parametric estimation (Data Repair substrate)} *)

val parametric_mle :
  n:int ->
  init:int ->
  ?labels:(string * int list) list ->
  ?rewards:Ratio.t array ->
  groups:(string * Tally.t) list ->
  unit ->
  Pdtmc.t
(** Group [g]'s tally is kept with symbolic weight [1 - g]; transition
    probabilities become [P(s,d) = Σ_g (1-g)·c_g(s,d) / Σ_g (1-g)·c_g(s,·)] — rational functions
    of the drop fractions. A group name appearing as a variable must
    therefore be a valid identifier. States never observed as sources
    become absorbing.
    @raise Invalid_argument on duplicate group names or bad states. *)
