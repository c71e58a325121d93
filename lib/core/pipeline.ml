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
  original_value : float option;
  outcome : stage;
}

let run ~n ~init ?(labels = []) ?rewards ?model_spec ?data_spec ~groups phi =
  let all_data =
    List.fold_left (fun acc (_, t) -> Tally.add acc t) Tally.empty groups
  in
  (* the exact count-ratio chain feeds Model Repair; checks use its
     float instantiation *)
  let exact, model =
    Instr.time Instr.Learn (fun () ->
        let exact = Mle.learn ~n ~init ~labels ?rewards all_data in
        (exact, Pdtmc.to_dtmc exact))
  in
  let original =
    Instr.time Instr.Check (fun () -> Check_dtmc.check_verbose model phi)
  in
  if original.Check_dtmc.holds then
    {
      property = phi;
      original_value = original.Check_dtmc.value;
      outcome = Original_ok original.Check_dtmc.value;
    }
  else begin
    (* Stage 2: Model Repair. *)
    let model_result =
      Option.map
        (fun spec -> Model_repair.repair ~base:exact model phi spec)
        model_spec
    in
    match model_result with
    | Some (Model_repair.Repaired r) ->
      {
        property = phi;
        original_value = original.Check_dtmc.value;
        outcome = Model_repaired r;
      }
    | Some (Model_repair.Already_satisfied v) ->
      (* can only happen under a force/consistency mismatch; treat as ok *)
      { property = phi; original_value = v; outcome = Original_ok v }
    | Some (Model_repair.Infeasible _) | None -> (
        let model_violation =
          match model_result with
          | Some (Model_repair.Infeasible { min_violation }) ->
            Some min_violation
          | _ -> None
        in
        (* Stage 3: Data Repair. *)
        let data_spec =
          match data_spec with
          | Some s -> Some s
          | None -> if groups = [] then None else Some (Data_repair.spec groups)
        in
        let data_result =
          Option.map
            (fun spec ->
               Data_repair.repair ~n ~init ~labels ?rewards phi spec)
            data_spec
        in
        match data_result with
        | Some (Data_repair.Repaired r) ->
          {
            property = phi;
            original_value = original.Check_dtmc.value;
            outcome = Data_repaired r;
          }
        | Some (Data_repair.Already_satisfied v) ->
          { property = phi; original_value = v; outcome = Original_ok v }
        | Some (Data_repair.Infeasible { min_violation }) ->
          {
            property = phi;
            original_value = original.Check_dtmc.value;
            outcome =
              Unrepairable
                {
                  model_repair_violation = model_violation;
                  data_repair_violation = Some min_violation;
                };
          }
        | None ->
          {
            property = phi;
            original_value = original.Check_dtmc.value;
            outcome =
              Unrepairable
                {
                  model_repair_violation = model_violation;
                  data_repair_violation = None;
                };
          })
  end

let pp_value fmt = function
  | Some v -> Format.fprintf fmt "%g" v
  | None -> Format.fprintf fmt "-"

let pp_report fmt r =
  Format.fprintf fmt "property: %s@\n" (Pctl.to_string r.property);
  Format.fprintf fmt "learned-model value: %a@\n" pp_value r.original_value;
  match r.outcome with
  | Original_ok v ->
    Format.fprintf fmt "outcome: SATISFIED without repair (value %a)@\n"
      pp_value v
  | Model_repaired m ->
    Format.fprintf fmt "outcome: MODEL REPAIR (cost %.6g, value %.6g, %s)@\n"
      m.Model_repair.cost m.Model_repair.achieved_value
      (if m.Model_repair.verified then "verified" else "NOT verified");
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  %s = %.6g@\n" name v)
      m.Model_repair.assignment
  | Data_repaired d ->
    Format.fprintf fmt
      "outcome: DATA REPAIR (cost %.6g, value %.6g, ~%.1f traces dropped, %s)@\n"
      d.Data_repair.cost d.Data_repair.achieved_value
      d.Data_repair.dropped_traces
      (if d.Data_repair.verified then "verified" else "NOT verified");
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  drop(%s) = %.6g@\n" name v)
      d.Data_repair.drop_fractions
  | Unrepairable { model_repair_violation; data_repair_violation } ->
    Format.fprintf fmt "outcome: UNREPAIRABLE (model-repair violation %a, \
                        data-repair violation %a)@\n"
      pp_value model_repair_violation pp_value data_repair_violation
