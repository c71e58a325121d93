(** Data Repair (Definition 3, §IV-B) — the machine-teaching formulation.

    When Model Repair is infeasible (or undesired), repair the {e data}: find
    the smallest set of training traces to drop so that the model re-learned
    from the remaining data satisfies the property (Eqs. 11–15).

    Traces are partitioned into named groups (the paper's "trace types" —
    e.g. successful-forward vs failed-forward traces); each group [g] gets a
    continuous drop-fraction variable [x_g ∈ \[0, max_drop\]]. The inner
    ML step (maximum likelihood) has a closed form, so the re-learned
    transition probabilities are rational functions of [x] (built by
    {!Mle.parametric_mle}); parametric model checking then gives the outer
    NLP's constraint [f(x) ~ b]. *)

type spec = {
  groups : (string * Tally.t) list;
      (** per-group sufficient statistics: the re-learned chain depends on
          a group only through its transition counts, and the expected
          number of dropped traces only through its trace count *)
  max_drop : float;  (** upper bound per drop fraction, default-style 0.999 *)
  pinned : string list;
      (** groups that must be kept intact ([x_g = 0]) — the paper's "keep
          data points we know are reliable" refinement *)
}

val spec :
  ?max_drop:float -> ?pinned:string list -> (string * Tally.t) list -> spec
(** Trace groups enter through {!Tally.of_groups}, trace text through
    {!Trace_io.parse_tallies}. *)

type repaired = {
  dtmc : Dtmc.t;  (** model re-learned from the repaired data *)
  drop_fractions : (string * float) list;
  cost : float;
  achieved_value : float;
  dropped_traces : float;  (** expected number of dropped traces *)
  symbolic_constraint : Ratfun.t;
  verified : bool;
  certificate : Region_repair.certificate option;
      (** present exactly when the region backend produced the repair *)
}

type result =
  | Already_satisfied of float option
  | Repaired of repaired
  | Infeasible of { min_violation : float }

val repair :
  n:int ->
  init:int ->
  ?labels:(string * int list) list ->
  ?rewards:Ratio.t array ->
  ?backend:Repair_backend.t ->
  ?solver:Nlp.method_ ->
  ?starts:int ->
  ?seed:int ->
  ?cost:(float array -> float) ->
  ?force:bool ->
  ?gap:float ->
  Pctl.state_formula ->
  spec ->
  result
(** The default cost is [Σ x_g²] (the squared perturbation magnitude of
    Eq. 11).  [backend] has the same semantics as in {!Model_repair.repair}:
    [Region] solves by certified branch-and-bound over the drop-fraction
    box (pinned groups become zero-width dimensions) to the relative
    optimality [gap] (default 0.05); [Smc_prefilter] runs a seeded SPRT on
    the model learned from the unrepaired data before the exact initial
    check, then solves on the NLP path.
    @raise Invalid_argument on malformed specs.
    @raise Pquery.Unsupported on properties outside the parametric
    fragment. *)
