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

let kind = function
  | Check _ -> "check"
  | Model_repair _ -> "model-repair"
  | Data_repair _ -> "data-repair"
  | Reward_repair _ -> "reward-repair"
  | Pipeline _ -> "pipeline"

let run = function
  | Check { model; phi } ->
    Checked (Instr.time Instr.Check (fun () -> Check_dtmc.check_verbose model phi))
  | Model_repair { model; phi; spec; starts; backend } ->
    (* batch jobs get the graceful-degradation ladder: augmented
       Lagrangian → penalty → wider multistart before Infeasible *)
    Model_repair_result
      (Model_repair.repair ~backend ~starts ~fallback:true
         ~base:(Pdtmc.of_dtmc model) model phi spec)
  | Data_repair { n; init; labels; rewards; phi; spec; starts; backend } ->
    Data_repair_result
      (Data_repair.repair ~n ~init ~labels ?rewards ~backend ~starts phi spec)
  | Reward_repair { mdp; theta; constraints; gamma } ->
    Reward_repair_result (Reward_repair.repair_q ~gamma mdp ~theta ~constraints)
  | Pipeline { n; init; labels; rewards; model_spec; data_spec; groups; phi } ->
    Pipeline_report
      (Pipeline.run ~n ~init ~labels ?rewards ?model_spec ?data_spec ~groups phi)

(* ------------------------------ digest ------------------------------ *)

(* Canonical serialisation of every job input.  Floats are rendered with
   %h (hex) so the key is exact; labels, specs and trace groups are
   written in their given order — job identity is intentionally sensitive
   to that order, which is cheap and conservative (false misses only). *)

let add_float buf x = Buffer.add_string buf (Printf.sprintf "%h," x)

let add_labels buf labels =
  List.iter
    (fun (name, states) ->
       Buffer.add_string buf name;
       Buffer.add_char buf ':';
       List.iter (fun s -> Buffer.add_string buf (string_of_int s ^ ",")) states;
       Buffer.add_char buf ';')
    labels

let add_dtmc buf d =
  Buffer.add_string buf
    (Printf.sprintf "dtmc:%d:%d;" (Dtmc.num_states d) (Dtmc.init_state d));
  List.iter
    (fun (s, t, p) -> Buffer.add_string buf (Printf.sprintf "%d>%d=%h;" s t p))
    (List.sort compare (Dtmc.raw_transitions d));
  List.iter
    (fun l ->
       Buffer.add_string buf l;
       Buffer.add_char buf ':';
       List.iter
         (fun s -> Buffer.add_string buf (string_of_int s ^ ","))
         (Dtmc.states_with_label d l);
       Buffer.add_char buf ';')
    (Dtmc.labels d);
  Array.iter (add_float buf) (Dtmc.rewards d)

let add_mdp buf m =
  Buffer.add_string buf
    (Printf.sprintf "mdp:%d:%d;" (Mdp.num_states m) (Mdp.init_state m));
  for s = 0 to Mdp.num_states m - 1 do
    List.iter
      (fun a ->
         Buffer.add_string buf (Printf.sprintf "%d/%s[%h]:" s a.Mdp.name a.Mdp.reward);
         List.iter
           (fun (t, p) -> Buffer.add_string buf (Printf.sprintf "%d=%h," t p))
           (List.sort compare a.Mdp.dist);
         Buffer.add_char buf ';')
      (Mdp.actions_of m s);
    add_float buf (Mdp.state_reward m s);
    Array.iter (add_float buf) (Mdp.features_of m s)
  done;
  List.iter
    (fun l ->
       Buffer.add_string buf l;
       Buffer.add_char buf ':';
       List.iter
         (fun s -> Buffer.add_string buf (string_of_int s ^ ","))
         (Mdp.states_with_label m l);
       Buffer.add_char buf ';')
    (Mdp.labels m)

let add_model_spec buf (spec : Model_repair.spec) =
  Buffer.add_string buf "mspec{";
  List.iter
    (fun (name, lo, hi) ->
       Buffer.add_string buf (Printf.sprintf "%s:%h:%h;" name lo hi))
    spec.Model_repair.variables;
  List.iter
    (fun (s, d, f) ->
       Buffer.add_string buf
         (Printf.sprintf "%d>%d=%s;" s d (Ratfun.to_string f)))
    spec.Model_repair.deltas;
  Buffer.add_char buf '}'

(* Tallies are canonical (sorted, duplicates summed), so trace order
   within a group, and the trace-or-tally form of the payload, never
   change the key. *)
let add_groups buf groups =
  List.iter
    (fun (name, (t : Tally.t)) ->
       Buffer.add_string buf (Printf.sprintf "%s{%d|" name t.traces);
       List.iter
         (fun (s, d, c) -> Buffer.add_string buf (Printf.sprintf "%d>%d=%d;" s d c))
         t.transitions;
       Buffer.add_char buf '}')
    groups

let add_data_spec buf (spec : Data_repair.spec) =
  Buffer.add_string buf (Printf.sprintf "dspec{%h;" spec.Data_repair.max_drop);
  List.iter
    (fun p -> Buffer.add_string buf (p ^ ","))
    spec.Data_repair.pinned;
  add_groups buf spec.Data_repair.groups;
  Buffer.add_char buf '}'

let add_rewards_opt buf = function
  | None -> Buffer.add_string buf "norew;"
  | Some rs ->
    Array.iter (fun r -> Buffer.add_string buf (Ratio.to_string r ^ ",")) rs;
    Buffer.add_char buf ';'

let digest job =
  let buf = Buffer.create 1024 in
  (match job with
   | Check { model; phi } ->
     Buffer.add_string buf "check|";
     add_dtmc buf model;
     Buffer.add_string buf (Pctl.to_string phi)
   | Model_repair { model; phi; spec; starts; backend } ->
     Buffer.add_string buf
       (Printf.sprintf "mrepair:%d:%s|" starts (Repair_backend.to_string backend));
     add_dtmc buf model;
     add_model_spec buf spec;
     Buffer.add_string buf (Pctl.to_string phi)
   | Data_repair { n; init; labels; rewards; phi; spec; starts; backend } ->
     Buffer.add_string buf
       (Printf.sprintf "drepair:%d:%d:%d:%s|" starts n init
          (Repair_backend.to_string backend));
     add_labels buf labels;
     add_rewards_opt buf rewards;
     add_data_spec buf spec;
     Buffer.add_string buf (Pctl.to_string phi)
   | Reward_repair { mdp; theta; constraints; gamma } ->
     Buffer.add_string buf (Printf.sprintf "rrepair:%h|" gamma);
     add_mdp buf mdp;
     Array.iter (add_float buf) theta;
     List.iter
       (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "%d:%s>%s:%h;" c.Reward_repair.state
               c.Reward_repair.better c.Reward_repair.worse
               c.Reward_repair.margin))
       constraints
   | Pipeline { n; init; labels; rewards; model_spec; data_spec; groups; phi }
     ->
     Buffer.add_string buf (Printf.sprintf "pipeline:%d:%d|" n init);
     add_labels buf labels;
     add_rewards_opt buf rewards;
     (match model_spec with
      | None -> Buffer.add_string buf "nomspec;"
      | Some s -> add_model_spec buf s);
     (match data_spec with
      | None -> Buffer.add_string buf "nodspec;"
      | Some s -> add_data_spec buf s);
     add_groups buf groups;
     Buffer.add_string buf (Pctl.to_string phi));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---------------------------- printing ---------------------------- *)

let pp_value fmt = function
  | Some v -> Format.fprintf fmt "%g" v
  | None -> Format.fprintf fmt "-"

let pp_outcome fmt = function
  | Checked v ->
    Format.fprintf fmt "%s (value %a)@\n"
      (if v.Check_dtmc.holds then "HOLDS" else "VIOLATED")
      pp_value v.Check_dtmc.value
  | Model_repair_result (Model_repair.Already_satisfied v) ->
    Format.fprintf fmt "already satisfied (value %a)@\n" pp_value v
  | Model_repair_result (Model_repair.Infeasible { min_violation }) ->
    Format.fprintf fmt "INFEASIBLE (best constraint violation %.6g)@\n"
      min_violation
  | Model_repair_result (Model_repair.Repaired r) ->
    Format.fprintf fmt "REPAIRED (cost %.6g, value %.6g, %s, via %s)@\n"
      r.Model_repair.cost r.Model_repair.achieved_value
      (if r.Model_repair.verified then "verified" else "NOT verified")
      r.Model_repair.solver_rung;
    (match r.Model_repair.certificate with
     | Some c -> Format.fprintf fmt "  certificate: %a@\n" Region_repair.pp_certificate c
     | None -> ());
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  %s = %.6g@\n" name v)
      r.Model_repair.assignment
  | Data_repair_result (Data_repair.Already_satisfied v) ->
    Format.fprintf fmt "already satisfied (value %a)@\n" pp_value v
  | Data_repair_result (Data_repair.Infeasible { min_violation }) ->
    Format.fprintf fmt "INFEASIBLE (best constraint violation %.6g)@\n"
      min_violation
  | Data_repair_result (Data_repair.Repaired r) ->
    Format.fprintf fmt
      "REPAIRED (cost %.6g, value %.6g, ~%.1f traces dropped, %s)@\n"
      r.Data_repair.cost r.Data_repair.achieved_value r.Data_repair.dropped_traces
      (if r.Data_repair.verified then "verified" else "NOT verified");
    (match r.Data_repair.certificate with
     | Some c -> Format.fprintf fmt "  certificate: %a@\n" Region_repair.pp_certificate c
     | None -> ());
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  drop(%s) = %.6g@\n" name v)
      r.Data_repair.drop_fractions
  | Reward_repair_result Reward_repair.Already_satisfied ->
    Format.fprintf fmt "already satisfied@\n"
  | Reward_repair_result (Reward_repair.Infeasible { min_violation }) ->
    Format.fprintf fmt "INFEASIBLE (best violation %.6g)@\n" min_violation
  | Reward_repair_result (Reward_repair.Repaired r) ->
    Format.fprintf fmt "REPAIRED (||dtheta||^2 = %.6g, %s)@\n"
      r.Reward_repair.cost
      (if r.Reward_repair.verified then "verified" else "NOT verified");
    Format.fprintf fmt "  theta' =";
    Array.iter (fun v -> Format.fprintf fmt " %.6g" v) r.Reward_repair.theta;
    Format.fprintf fmt "@\n  policy:";
    Array.iteri
      (fun s a -> Format.fprintf fmt " (S%d,%s)" s a)
      r.Reward_repair.policy;
    let { Reward_repair.better; worse; rounds } = r.Reward_repair.searched in
    Format.fprintf fmt
      "@\n  searched: %d better-side, %d worse-side policies in %d rounds@\n"
      better worse rounds
  | Pipeline_report report -> Pipeline.pp_report fmt report
