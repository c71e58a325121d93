(** The Trusted-Machine-Learning decision procedure of §II:

    learn [M = ML(D)] → verify [M ⊨ φ] → if violated, try Model Repair →
    if infeasible, try Data Repair → otherwise report that φ cannot be
    enforced by the available repair formulations. *)

type stage =
  | Original_ok of float option
  | Model_repaired of Model_repair.repaired
  | Data_repaired of Data_repair.repaired
  | Unrepairable of {
      model_repair_violation : float option;
      data_repair_violation : float option;
    }

type report = {
  property : Pctl.state_formula;
  original_value : float option;  (** checked value of the learned model *)
  outcome : stage;
}

val run :
  n:int ->
  init:int ->
  ?labels:(string * int list) list ->
  ?rewards:Ratio.t array ->
  ?model_spec:Model_repair.spec ->
  ?data_spec:Data_repair.spec ->
  groups:(string * Tally.t) list ->
  Pctl.state_formula ->
  report
(** Learns the model ({!Mle.learn}) from the sum of the groups' tallies,
    then walks the pipeline: the float instantiation is checked, and Model
    Repair perturbs the exact count-ratio chain.  [model_spec] /
    [data_spec] enable the corresponding repair stages (a stage without a
    spec is skipped). [data_spec] defaults to dropping from the given
    trace groups. *)

val pp_report : Format.formatter -> report -> unit
