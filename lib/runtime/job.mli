(** Repair jobs: the unit of work submitted to the {!Runtime}.

    A job wraps one of the repair stack's entry points — numeric checking,
    Model / Data / Reward Repair, or the full learn→verify→repair
    {!Pipeline} — together with all of its inputs, so it can be executed on
    any worker domain and its result cached.

    Jobs are pure: running the same job twice yields the same outcome
    (repair solvers are seeded and deterministic), which is what makes a
    digest a content address — a server may answer a repeat submit with
    the report it already holds — and parallel batches byte-identical to
    sequential execution. *)

type t =
  | Check of { model : Dtmc.t; phi : Pctl.state_formula }
  | Model_repair of {
      model : Dtmc.t;
      phi : Pctl.state_formula;
      spec : Model_repair.spec;
      starts : int;
      backend : Repair_backend.t;
    }
  | Data_repair of {
      n : int;
      init : int;
      labels : (string * int list) list;
      rewards : Ratio.t array option;
      phi : Pctl.state_formula;
      spec : Data_repair.spec;
      starts : int;
      backend : Repair_backend.t;
    }
  | Reward_repair of {
      mdp : Mdp.t;
      theta : float array;
      constraints : Reward_repair.q_constraint list;
      gamma : float;
    }
  | Pipeline of {
      n : int;
      init : int;
      labels : (string * int list) list;
      rewards : Ratio.t array option;
      model_spec : Model_repair.spec option;
      data_spec : Data_repair.spec option;
      groups : (string * Tally.t) list;
      phi : Pctl.state_formula;
    }

type outcome =
  | Checked of Check_dtmc.verdict
  | Model_repair_result of Model_repair.result
  | Data_repair_result of Data_repair.result
  | Reward_repair_result of Reward_repair.result
  | Pipeline_report of Pipeline.report
      (** One constructor per job kind, wrapping that entry point's own
          result type. *)

val run : t -> outcome
(** Execute the job on the calling domain. *)

val kind : t -> string
(** ["check"], ["model-repair"], ["data-repair"], ["reward-repair"],
    ["pipeline"] — for labelling and stats. *)

val digest : t -> string
(** Hex MD5 of a canonical serialisation of the job's inputs (models,
    property, spec, trace-group tallies, solver arity, repair backend).
    Trace data enters as canonical {!Tally.t}s, so trace text, tally text
    and any reordering of traces within a group give one digest.  Equal digests
    mean equal inputs, so a cached outcome can be replayed — two runs of
    the same repair on different backends are distinct jobs. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Deterministic, human-readable report — the batch CLI prints exactly
    this, so parallel and sequential runs can be diffed byte-for-byte. *)
