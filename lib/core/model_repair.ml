type spec = {
  variables : (string * float * float) list;
  deltas : (int * int * Ratfun.t) list;
}

type repaired = {
  dtmc : Dtmc.t;
  assignment : (string * float) list;
  cost : float;
  achieved_value : float;
  symbolic_constraint : Ratfun.t;
  verified : bool;
  epsilon_bisimilarity : float;
  solver_rung : string;
  certificate : Region_repair.certificate option;
}

type result =
  | Already_satisfied of float option
  | Repaired of repaired
  | Infeasible of { min_violation : float }

let validate_spec base spec =
  let names = List.map (fun (n, _, _) -> n) spec.variables in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Model_repair: duplicate variable names";
  List.iter
    (fun (n, lo, hi) ->
       if lo > hi then
         invalid_arg (Printf.sprintf "Model_repair: empty bounds for %s" n))
    spec.variables;
  let n = Pdtmc.num_states base in
  let has_edge s d =
    s >= 0 && s < n && List.mem_assoc d (Pdtmc.succ base s)
  in
  List.iter
    (fun (s, d, _) ->
       if not (has_edge s d) then
         invalid_arg
           (Printf.sprintf
              "Model_repair: delta on non-existent edge %d->%d (structure \
               must be preserved, Eq. 3)"
              s d))
    spec.deltas;
  (* all delta variables must be declared *)
  List.iter
    (fun (s, d, f) ->
       List.iter
         (fun v ->
            if not (List.mem v names) then
              invalid_arg
                (Printf.sprintf
                   "Model_repair: edge %d->%d uses undeclared variable %s" s d v))
         (Ratfun.vars f))
    spec.deltas

let parametric_model base spec =
  validate_spec base spec;
  let delta s d =
    List.fold_left
      (fun acc (s', d', f) -> if s = s' && d = d' then Ratfun.add acc f else acc)
      Ratfun.zero spec.deltas
  in
  (* Pdtmc.make re-validates symbolic row sums, enforcing that each row's
     deltas cancel. *)
  Pdtmc.map_transitions base (fun s d p -> Ratfun.add p (delta s d))

let default_cost x = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x

let edge_margin = 1e-9

let method_name = function
  | Nlp.Penalty -> "penalty"
  | Nlp.Augmented_lagrangian -> "augmented-lagrangian"

let repair ?(backend = Repair_backend.Nlp_solver) ?(solver = Nlp.Penalty)
    ?(starts = 12) ?(seed = 0) ?cost ?(force = false) ?(fallback = false)
    ?(gap = 0.05) ~base dtmc phi spec =
  (* Step 1: verify the original model (§II pipeline).  Under the
     smc-prefilter backend a seeded SPRT runs first: a statistical reject
     skips the exact check entirely (the repair would find cost 0 if the
     SPRT erred), a statistical accept still demands exact confirmation,
     and an undecided/unsupported pre-check falls through to the exact
     path with its reason traced. *)
  let exact_check () =
    Instr.time Instr.Check (fun () -> Check_dtmc.check_verbose dtmc phi)
  in
  let original =
    if force then None
    else
      match backend with
      | Repair_backend.Smc_prefilter -> (
        match Repair_backend.smc_precheck ~seed dtmc phi with
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
    (* Step 2: parametric model + symbolic constraint f(v) ~ b. *)
    let pmodel = parametric_model base spec in
    let query =
      Instr.time Instr.Eliminate (fun () -> Pquery.of_formula pmodel phi)
    in
    let var_names = List.map (fun (n, _, _) -> n) spec.variables in
    let dim = List.length var_names in
    if dim = 0 then invalid_arg "Model_repair: no perturbation variables";
    let perturbed_edges =
      List.sort_uniq compare (List.map (fun (s, d, _) -> (s, d)) spec.deltas)
    in
    let pmodel_edge s d =
      List.assoc d (Pdtmc.succ pmodel s)
    in
    (* Step 4 (shared): instantiate the optimum and re-verify numerically. *)
    let finish ~x ~solution_cost ~rung ~certificate =
      let assignment = List.mapi (fun i n -> (n, x.(i))) var_names in
      let env v = Ratio.of_float (List.assoc v assignment) in
      let repaired_dtmc = Pdtmc.instantiate pmodel env in
      let verdict =
        Instr.time Instr.Check (fun () ->
            Check_dtmc.check_verbose repaired_dtmc phi)
      in
      Repaired
        {
          dtmc = repaired_dtmc;
          assignment;
          cost = solution_cost;
          achieved_value = Pquery.compile_value query ~vars:var_names x;
          symbolic_constraint = query.Pquery.value;
          verified = verdict.Check_dtmc.holds;
          epsilon_bisimilarity = Bisimulation.epsilon_bound dtmc repaired_dtmc;
          solver_rung = rung;
          certificate;
        }
    in
    match backend with
    | Repair_backend.Region ->
      (* Step 3 (region): the same constraint system, bounded over boxes
         instead of point-evaluated — property and edge feasibility become
         region constraints, and branch-and-bound minimises the cost over
         the accept set with a global-optimality certificate. *)
      let box = Box.make spec.variables in
      let property_c =
        Region_verify.of_query ~margin:1e-6 ~vars:var_names query
      in
      let edge_cs =
        List.concat_map
          (fun (s, d) ->
             let f = pmodel_edge s d in
             [ Region_verify.constr ~margin:edge_margin
                 ~name:(Printf.sprintf "edge_%d_%d_pos" s d)
                 ~vars:var_names Pctl.Gt 0.0 f;
               Region_verify.constr ~margin:edge_margin
                 ~name:(Printf.sprintf "edge_%d_%d_lt1" s d)
                 ~vars:var_names Pctl.Lt 1.0 f;
             ])
          perturbed_edges
      in
      let constraints = property_c :: edge_cs in
      let settings = { Region_repair.default_settings with gap } in
      (* a custom point cost has no sound box lower bound; fall back to 0,
         which keeps the search sound but the certificate gap trivial *)
      let region_cost =
        Option.map
          (fun c ->
             { Region_repair.point = c;
               box_lower = (fun _ -> 0.0);
               box_argmin = Box.center;
             })
          cost
      in
      (match
         Instr.time Instr.Solve (fun () ->
             Region_repair.minimize ~settings ?cost:region_cost ~constraints
               box)
       with
       | r ->
         finish ~x:r.Region_repair.point ~solution_cost:r.Region_repair.cost
           ~rung:"region-bnb" ~certificate:(Some r.Region_repair.certificate)
       | exception Tml_error.Error (Tml_error.Empty_feasible_box _) ->
         (* bound-derived violation estimate: how far the property bound
            sits outside anything achievable on the box *)
         let iv = Bounder.bounds property_c.Region_verify.bounder box in
         let min_violation =
           match query.Pquery.cmp with
           | Pctl.Le | Pctl.Lt ->
             Float.max 0.0 (iv.Interval.lo -. query.Pquery.bound)
           | Pctl.Ge | Pctl.Gt ->
             Float.max 0.0 (query.Pquery.bound -. iv.Interval.hi)
         in
         Infeasible { min_violation })
    | Repair_backend.Nlp_solver | Repair_backend.Smc_prefilter -> begin
      (* Step 3: the NLP (Eqs. 4–6).  All constraints are arena-compiled
         against the spec's variable order, so the optimizer's inner loop
         evaluates flat float programs indexed by position; the property
         reuses the query's own arena when that order is the spec's. *)
      let lower =
        Array.of_list (List.map (fun (_, lo, _) -> lo) spec.variables)
      in
      let upper =
        Array.of_list (List.map (fun (_, _, hi) -> hi) spec.variables)
      in
      let edge_constraints =
        List.concat_map
          (fun (s, d) ->
             let a = Arena.compile ~vars:var_names (pmodel_edge s d) in
             [ ( Printf.sprintf "edge_%d_%d_pos" s d,
                 fun x -> edge_margin -. Arena.eval a x );
               ( Printf.sprintf "edge_%d_%d_lt1" s d,
                 fun x -> Arena.eval a x -. 1.0 +. edge_margin );
             ])
          perturbed_edges
      in
      (* a small interior margin keeps the optimum strictly inside the
         feasible region so the repaired model re-verifies after float
         round-off *)
      let property_constraint =
        ("property", Pquery.compile_violation ~margin:1e-6 query ~vars:var_names)
      in
      let problem =
        Nlp.problem ~dim
          ~objective:(Option.value ~default:default_cost cost)
          ~inequalities:(property_constraint :: edge_constraints)
          ~lower ~upper ()
      in
      match
        Instr.time Instr.Solve (fun () ->
            if fallback then Nlp.solve_with_fallback ~starts ~seed problem
            else (Nlp.solve ~method_:solver ~starts ~seed problem,
                  method_name solver))
      with
      | Nlp.Infeasible s, _ -> Infeasible { min_violation = s.Nlp.max_violation }
      | Nlp.Feasible s, rung ->
        finish ~x:s.Nlp.x ~solution_cost:s.Nlp.objective_value ~rung
          ~certificate:None
    end
  end
