type spec = {
  groups : (string * Tally.t) list;
  max_drop : float;
  pinned : string list;
}

let spec ?(max_drop = 0.999) ?(pinned = []) groups =
  if max_drop <= 0.0 || max_drop >= 1.0 then
    invalid_arg "Data_repair.spec: max_drop must lie in (0, 1)";
  List.iter
    (fun p ->
       if not (List.mem_assoc p groups) then
         invalid_arg (Printf.sprintf "Data_repair.spec: unknown pinned group %s" p))
    pinned;
  { groups; max_drop; pinned }

type repaired = {
  dtmc : Dtmc.t;
  drop_fractions : (string * float) list;
  cost : float;
  achieved_value : float;
  dropped_traces : float;
  symbolic_constraint : Ratfun.t;
  verified : bool;
  certificate : Region_repair.certificate option;
}

type result =
  | Already_satisfied of float option
  | Repaired of repaired
  | Infeasible of { min_violation : float }

let default_cost x = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x

let repair ~n ~init ?(labels = []) ?rewards
    ?(backend = Repair_backend.Nlp_solver) ?(solver = Nlp.Penalty)
    ?(starts = 12) ?(seed = 0) ?cost ?(force = false) ?(gap = 0.05) phi sp =
  if sp.groups = [] then invalid_arg "Data_repair: no trace groups";
  (* Parametric re-learning: model as rational functions of drop vector. *)
  let pmodel =
    Instr.time Instr.Learn (fun () ->
        Mle.parametric_mle ~n ~init ~labels ?rewards ~groups:sp.groups ())
  in
  (* Step 1: the model learned from the unrepaired data (all x_g = 0),
     with the same SMC pre-filter semantics as Model_repair. *)
  let original_model = Pdtmc.instantiate pmodel (fun _ -> Ratio.zero) in
  let exact_check () =
    Instr.time Instr.Check (fun () ->
        Check_dtmc.check_verbose original_model phi)
  in
  let original =
    if force then None
    else
      match backend with
      | Repair_backend.Smc_prefilter -> (
        match Repair_backend.smc_precheck ~seed original_model phi with
        | Repair_backend.Sprt_reject _ -> None
        | Repair_backend.Sprt_accept _ | Repair_backend.Fallthrough _ ->
          Some (exact_check ()))
      | Repair_backend.Nlp_solver | Repair_backend.Region ->
        Some (exact_check ())
  in
  match original with
  | Some v when v.Check_dtmc.holds && not force ->
    Already_satisfied v.Check_dtmc.value
  | _ -> begin
    let query =
      Instr.time Instr.Eliminate (fun () -> Pquery.of_formula pmodel phi)
    in
    (* Only groups whose variable actually appears in f(x) need solving;
       pinned groups are fixed at 0 via their bounds. *)
    let var_names = List.map fst sp.groups in
    let dim = List.length var_names in
    let lower = Array.make dim 0.0 in
    let upper =
      Array.of_list
        (List.map
           (fun name -> if List.mem name sp.pinned then 0.0 else sp.max_drop)
           var_names)
    in
    let finish ~x ~solution_cost ~certificate =
      let drop_fractions = List.mapi (fun i g -> (g, x.(i))) var_names in
      let env v = Ratio.of_float (List.assoc v drop_fractions) in
      let repaired_dtmc = Pdtmc.instantiate pmodel env in
      let verdict =
        Instr.time Instr.Check (fun () ->
            Check_dtmc.check_verbose repaired_dtmc phi)
      in
      let dropped_traces =
        List.fold_left
          (fun acc (g, frac) ->
             acc +. (frac *. float_of_int (List.assoc g sp.groups).Tally.traces))
          0.0 drop_fractions
      in
      Repaired
        {
          dtmc = repaired_dtmc;
          drop_fractions;
          cost = solution_cost;
          achieved_value = Pquery.compile_value query ~vars:var_names x;
          dropped_traces;
          symbolic_constraint = query.Pquery.value;
          verified = verdict.Check_dtmc.holds;
          certificate;
        }
    in
    match backend with
    | Repair_backend.Region -> (
      (* learned transition probabilities are ratios of non-negative trace
         counts, so they stay in [0,1] pointwise — only the property needs
         a region constraint; pinned groups become zero-width box dims *)
      let box =
        Box.make
          (List.map
             (fun name ->
                (name, 0.0, if List.mem name sp.pinned then 0.0 else sp.max_drop))
             var_names)
      in
      let property_c =
        Region_verify.of_query ~margin:1e-6 ~vars:var_names query
      in
      let settings = { Region_repair.default_settings with gap } in
      let region_cost =
        Option.map
          (fun c ->
             { Region_repair.point = c;
               box_lower = (fun _ -> 0.0);
               box_argmin = Box.center;
             })
          cost
      in
      match
        Instr.time Instr.Solve (fun () ->
            Region_repair.minimize ~settings ?cost:region_cost
              ~constraints:[ property_c ] box)
      with
      | r ->
        finish ~x:r.Region_repair.point ~solution_cost:r.Region_repair.cost
          ~certificate:(Some r.Region_repair.certificate)
      | exception Tml_error.Error (Tml_error.Empty_feasible_box _) ->
        let iv = Bounder.bounds property_c.Region_verify.bounder box in
        let min_violation =
          match query.Pquery.cmp with
          | Pctl.Le | Pctl.Lt ->
            Float.max 0.0 (iv.Interval.lo -. query.Pquery.bound)
          | Pctl.Ge | Pctl.Gt ->
            Float.max 0.0 (query.Pquery.bound -. iv.Interval.hi)
        in
        Infeasible { min_violation })
    | Repair_backend.Nlp_solver | Repair_backend.Smc_prefilter -> (
      (* interior margin: see Model_repair *)
      let property_constraint =
        ("property", Pquery.compile_violation ~margin:1e-6 query ~vars:var_names)
      in
      let problem =
        Nlp.problem ~dim
          ~objective:(Option.value ~default:default_cost cost)
          ~inequalities:[ property_constraint ]
          ~lower ~upper ()
      in
      match
        Instr.time Instr.Solve (fun () ->
            Nlp.solve ~method_:solver ~starts ~seed problem)
      with
      | Nlp.Infeasible s -> Infeasible { min_violation = s.Nlp.max_violation }
      | Nlp.Feasible s ->
        finish ~x:s.Nlp.x ~solution_cost:s.Nlp.objective_value
          ~certificate:None)
  end
