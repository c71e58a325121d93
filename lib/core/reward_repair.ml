(* ------------------------------------------------------------------ *)
(* Projection route (Prop. 4)                                          *)
(* ------------------------------------------------------------------ *)

let maxent_log_weight m ~theta tr =
  let r = Irl.reward_vector m theta in
  let reward_sum =
    List.fold_left (fun acc s -> acc +. r.(s)) 0.0 (Trace.states tr)
  in
  reward_sum +. Trace.log_probability m tr

let projection_weights m ~theta ~rules trajectories =
  if trajectories = [] then
    invalid_arg "Reward_repair.projection_weights: no trajectories";
  List.iter
    (fun (_, lambda) ->
       if lambda < 0.0 then
         invalid_arg "Reward_repair.projection_weights: negative lambda")
    rules;
  let labels = Mdp.has_label m in
  let log_weights =
    List.map
      (fun tr ->
         let base = maxent_log_weight m ~theta tr in
         let penalty =
           List.fold_left
             (fun acc (rule, lambda) ->
                acc +. (lambda *. (1.0 -. Trace_logic.indicator ~labels tr rule)))
             0.0 rules
         in
         (tr, base -. penalty))
      trajectories
  in
  (* normalise via log-sum-exp *)
  let maxw =
    List.fold_left (fun acc (_, w) -> Float.max acc w) Float.neg_infinity
      log_weights
  in
  let exps = List.map (fun (tr, w) -> (tr, exp (w -. maxw))) log_weights in
  let z = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 exps in
  List.map (fun (tr, w) -> (tr, w /. z)) exps

let sample_trajectories rng m ~theta ~horizon ~count =
  let policy = Irl.soft_policy m ~theta ~horizon in
  List.init count (fun _ ->
      let rec go s steps acc =
        if steps >= horizon then (List.rev acc, s)
        else begin
          let choices = Array.of_list policy.(s) in
          let i = Prng.categorical rng (Array.map snd choices) in
          let aname = fst choices.(i) in
          match Mdp.find_action m s aname with
          | None -> (List.rev acc, s)
          | Some a ->
            let dist = Array.of_list a.Mdp.dist in
            let j = Prng.categorical rng (Array.map snd dist) in
            go (fst dist.(j)) (steps + 1) ((s, aname) :: acc)
        end
      in
      let steps, final = go (Mdp.init_state m) 0 [] in
      Trace.make steps final)

let repair_by_projection ?options m ~theta ~rules trajectories =
  let weighted = projection_weights m ~theta ~rules trajectories in
  Irl.learn_weighted ?options ~theta0:theta m weighted

(* ------------------------------------------------------------------ *)
(* Direct Q-constraint route (§V-B)                                    *)
(* ------------------------------------------------------------------ *)

type q_constraint = {
  state : int;
  better : string;
  worse : string;
  margin : float;
}

type repaired = {
  theta : float array;
  delta : float array;
  cost : float;
  policy : Mdp.policy;
  q_gaps : (q_constraint * float) list;
  verified : bool;
}

type result =
  | Already_satisfied
  | Repaired of repaired
  | Infeasible of { min_violation : float }

let validate_constraints m constraints =
  List.iter
    (fun c ->
       if c.state < 0 || c.state >= Mdp.num_states m then
         invalid_arg (Printf.sprintf "Reward_repair: bad state %d" c.state);
       if Mdp.find_action m c.state c.better = None then
         invalid_arg
           (Printf.sprintf "Reward_repair: state %d has no action %S" c.state
              c.better);
       if Mdp.find_action m c.state c.worse = None then
         invalid_arg
           (Printf.sprintf "Reward_repair: state %d has no action %S" c.state
              c.worse))
    constraints

(* Q(better) − Q(worse) under θ: one kernel solve with the state rewards
   θᵀf, then only the two Q entries the constraint reads. *)
let q_gap ~gamma m kern theta c =
  let rewards = Irl.reward_vector m theta in
  let v = Value.solve ~gamma kern ~rewards in
  Value.q_slot ~gamma kern ~rewards v c.state (Value.slot kern c.state c.better)
  -. Value.q_slot ~gamma kern ~rewards v c.state (Value.slot kern c.state c.worse)

let repair_q ?(gamma = 0.9) ?(starts = 8) ?(seed = 0) ?(force = false) m
    ~theta ~constraints =
  if Mdp.feature_dim m = 0 then
    invalid_arg "Reward_repair.repair_q: MDP has no features";
  if constraints = [] then invalid_arg "Reward_repair.repair_q: no constraints";
  validate_constraints m constraints;
  let k = Array.length theta in
  if k <> Mdp.feature_dim m then
    invalid_arg "Reward_repair.repair_q: theta dimension mismatch";
  let kern = Value.compile m in
  let q_gap = q_gap ~gamma m kern in
  let satisfied th =
    List.for_all (fun c -> q_gap th c >= c.margin) constraints
  in
  if satisfied theta && not force then Already_satisfied
  else begin
    (* variables = Δθ; constraint violation = margin − gap(θ+Δθ) *)
    let theta_plus dx = Array.mapi (fun i v -> v +. dx.(i)) theta in
    (* a small interior margin keeps the optimum strictly inside the
       feasible region so the final Q-table still verifies the raw margin *)
    let interior = 1e-6 in
    let inequalities =
      List.mapi
        (fun i c ->
           ( Printf.sprintf "q_constraint_%d" i,
             fun dx -> c.margin +. interior -. q_gap (theta_plus dx) c ))
        constraints
    in
    let problem =
      Nlp.problem ~dim:k
        ~objective:(fun dx -> Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 dx)
        ~inequalities
        ~lower:(Array.make k (-2.0))
        ~upper:(Array.make k 2.0)
        ()
    in
    match Instr.time Instr.Solve (fun () -> Nlp.solve ~starts ~seed problem) with
    | Nlp.Infeasible s -> Infeasible { min_violation = s.Nlp.max_violation }
    | Nlp.Feasible s ->
      let delta = s.Nlp.x in
      let theta' = theta_plus delta in
      let m' = Irl.apply_reward m theta' in
      let policy, _ = Value.optimal_policy ~gamma m' in
      let q_gaps = List.map (fun c -> (c, q_gap theta' c)) constraints in
      Repaired
        {
          theta = theta';
          delta;
          cost = s.Nlp.objective_value;
          policy;
          q_gaps;
          verified = List.for_all (fun (c, g) -> g >= c.margin -. 1e-9) q_gaps;
        }
  end

let policy_satisfies m policy ~rules ~horizon =
  let labels = Mdp.has_label m in
  (* exhaustive walk over all probabilistic branches up to the horizon *)
  let rec walk s steps acc_rev all_ok =
    if not all_ok then false
    else if steps >= horizon then
      let tr = Trace.make (List.rev acc_rev) s in
      List.for_all (fun rule -> Trace_logic.eval ~labels tr rule) rules
    else begin
      match Mdp.find_action m s policy.(s) with
      | None -> false
      | Some a ->
        (* a self-loop with probability 1 terminates the rollout *)
        (match a.Mdp.dist with
         | [ (d, p) ] when d = s && p > 1.0 -. 1e-12 ->
           let tr = Trace.make (List.rev acc_rev) s in
           List.for_all (fun rule -> Trace_logic.eval ~labels tr rule) rules
         | dist ->
           List.for_all
             (fun (d, p) ->
                p <= 0.0
                || walk d (steps + 1) ((s, a.Mdp.name) :: acc_rev) true)
             dist)
    end
  in
  walk (Mdp.init_state m) 0 [] true
