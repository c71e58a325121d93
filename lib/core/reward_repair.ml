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

type searched = { better : int; worse : int; rounds : int }

type repaired = {
  theta : float array;
  delta : float array;
  cost : float;
  policy : Mdp.policy;
  q_gaps : (q_constraint * float) list;
  verified : bool;
  searched : searched;
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

(* The search space: |Δθ_i| ≤ box.  The cuts ask for margin + interior,
   so the final Q-table still verifies the raw margin. *)
let box = 2.0
let interior = 1e-6
let max_rounds = 200
let max_features = 8

let dot = Linalg.Vec.dot

(* min ‖x‖² subject to a·x ≥ b for every row (a, b) and |x_i| ≤ box, by
   active-set enumeration.  The optimum is the projection of 0 onto the
   polyhedron: x = Σ_{i∈S} λ_i a_i with λ ≥ 0 and a_i·x = b_i on S, for a
   set S of at most k linearly independent rows (the KKT conditions of a
   strictly convex QP).  Sets are tried by size, then in index order; the
   first whose λ is non-negative and whose x meets every row is the
   optimum.  [None] when no set qualifies: the rows are infeasible in the
   box. *)
let min_norm k rows =
  let box_rows =
    List.init (2 * k) (fun i ->
        let a = Array.make k 0.0 in
        a.(i / 2) <- (if i mod 2 = 0 then 1.0 else -1.0);
        (a, -.box))
  in
  let rows = Array.of_list (rows @ box_rows) in
  let m = Array.length rows in
  let feasible x =
    Array.for_all
      (fun (a, b) -> dot a x >= b -. (1e-9 *. (1.0 +. Float.abs b)))
      rows
  in
  let exception Found of float array in
  let try_set set =
    let r = Array.length set in
    let a i = fst rows.(set.(i)) in
    match
      Linalg.lu_solve
        (Linalg.Mat.init r r (fun i j -> dot (a i) (a j)))
        (Array.init r (fun i -> snd rows.(set.(i))))
    with
    | exception Linalg.Singular -> ()
    | lambda ->
      if Array.for_all (fun l -> l >= -1e-12) lambda then begin
        let x = Array.make k 0.0 in
        Array.iteri
          (fun i l -> Array.iteri (fun d ad -> x.(d) <- x.(d) +. (l *. ad)) (a i))
          lambda;
        if feasible x then raise (Found x)
      end
  in
  (* every [size]-subset of rows [from ..], appended to [chosen] *)
  let rec choose size from chosen =
    if size = 0 then try_set (Array.of_list (List.rev chosen))
    else
      for i = from to m - size do
        choose (size - 1) (i + 1) (i :: chosen)
      done
  in
  match
    if feasible (Array.make k 0.0) then raise (Found (Array.make k 0.0));
    for size = 1 to min k m do
      choose size 0 []
    done
  with
  | () -> None
  | exception Found x -> Some x

(* The least t for which the rows, each relaxed by t, become feasible in
   the box: bisection on [min_norm]'s feasibility.  At t = max b the
   point 0 qualifies. *)
let least_violation k rows =
  let hi = List.fold_left (fun acc (_, b) -> Float.max acc b) 0.0 rows in
  let relaxed t = List.map (fun (a, b) -> (a, b -. t)) rows in
  let rec bisect lo hi n =
    if n = 0 then hi
    else
      let mid = 0.5 *. (lo +. hi) in
      if min_norm k (relaxed mid) = None then bisect mid hi (n - 1)
      else bisect lo mid (n - 1)
  in
  bisect 0.0 hi 60

(* A deterministic policy (one kernel slot per state) with, for each
   constraint, the exact Q-value coefficients at its better and its worse
   slot: Q^π = θ·v[0..k-1] + v[k]. *)
type evaluated = {
  slots : int array;
  better_q : float array list;
  worse_q : float array list;
}

(* A better-side candidate: [bound] is its QP optimum over the first
   [seen] cuts — a lower bound on its optimum over more cuts. *)
type candidate = {
  ev : evaluated;
  mutable bound : float;
  mutable x : float array;
  mutable seen : int;
  mutable dead : bool;
}

(* §V-B by constraint generation over successor features.  State rewards
   are θᵀf, so for a fixed policy π, Q^π(s,a) = θ·ψ_π(s,a) + c_π(s,a),
   with ψ_π the discounted feature expectation (Value.policy_q).
   Q* = max_π Q^π, so Q*(s,b) − Q*(s,w) ≥ margin holds at θ iff some
   better-side policy π₁ has Q^π₁(s,b) − Q^π₂(s,w) ≥ margin for every
   worse-side policy π₂: a union over π₁ of polyhedra.  The search keeps
   a set of better-side candidates (π*(θ₀) and π* at the box corners) and
   a shared set of worse-side cuts (starting from π*(θ₀)).  Each round
   takes the cheapest candidate QP over the cuts; at its minimiser θ′,
   π*(θ′) joins both sets — unless it is already a cut, in which case
   Q*(s,w) at θ′ is one of the cut values and θ′ is feasible. *)
let search ~gamma m kern ~theta ~constraints =
  let k = Array.length theta and n = Mdp.num_states m in
  let columns =
    Array.init k (fun i -> Array.init n (fun s -> (Mdp.features_of m s).(i)))
  in
  let constraint_slots =
    List.map
      (fun c -> (Value.slot kern c.state c.better, Value.slot kern c.state c.worse))
      constraints
  in
  let optimal th =
    let rewards = Irl.reward_vector m th in
    Value.greedy_slots ~gamma kern ~rewards (Value.solve ~gamma kern ~rewards)
  in
  let evaluate slots =
    let q = Value.policy_q ~gamma kern ~policy:slots columns in
    let at j = Array.init (k + 1) (fun i -> q.(i).(j)) in
    {
      slots;
      better_q = List.map (fun (b, _) -> at b) constraint_slots;
      worse_q = List.map (fun (_, w) -> at w) constraint_slots;
    }
  in
  (* every cut is also a candidate, so a policy is evaluated once *)
  let cuts = ref [] and candidates = ref [] in
  let is_cut slots = List.exists (fun w -> w.slots = slots) !cuts in
  let known slots = List.find_opt (fun c -> c.ev.slots = slots) !candidates in
  let evaluated slots =
    match known slots with Some c -> c.ev | None -> evaluate slots
  in
  let add_candidate ev =
    if known ev.slots = None then
      candidates :=
        !candidates
        @ [ { ev; bound = Float.neg_infinity; x = [||]; seen = -1; dead = false } ]
  in
  let add_cut ev = cuts := !cuts @ [ ev ] in
  (* in Δθ: (ψ₁ − ψ₂)·Δθ ≥ margin + interior − (ψ₁ − ψ₂)·θ₀ − (c₁ − c₂) *)
  let rows cand =
    List.concat_map
      (fun w ->
         List.map2
           (fun c (qb, qw) ->
              let a = Array.init k (fun i -> qb.(i) -. qw.(i)) in
              (a, c.margin +. interior -. (dot a theta +. (qb.(k) -. qw.(k)))))
           constraints
           (List.combine cand.ev.better_q w.worse_q))
      !cuts
  in
  let first = evaluate (optimal theta) in
  add_candidate first;
  add_cut first;
  for corner = 0 to (1 lsl k) - 1 do
    let th =
      Array.mapi
        (fun i v -> if corner land (1 lsl i) <> 0 then v +. box else v -. box)
        theta
    in
    add_candidate (evaluated (optimal th))
  done;
  (* The live candidate of least (bound, position), re-solved until its
     bound covers every cut: stale bounds only rise, so that one is the
     cheapest over the current cuts. *)
  let rec cheapest () =
    let pick =
      List.fold_left
        (fun acc c ->
           if c.dead then acc
           else match acc with
             | Some b when b.bound <= c.bound -> acc
             | _ -> Some c)
        None !candidates
    in
    let n_cuts = List.length !cuts in
    match pick with
    | Some c when c.seen < n_cuts ->
      Instr.checkpoint ();
      (match min_norm k (rows c) with
       | None -> c.dead <- true
       | Some x ->
         c.x <- x;
         c.bound <- dot x x);
      c.seen <- n_cuts;
      cheapest ()
    | pick -> pick
  in
  let rec round r =
    match cheapest () with
    | None ->
      `Infeasible
        (List.fold_left
           (fun acc c -> Float.min acc (least_violation k (rows c)))
           Float.infinity !candidates)
    | Some best ->
      let slots = optimal (Array.mapi (fun i v -> v +. best.x.(i)) theta) in
      if is_cut slots then
        `Found
          ( best.x,
            { better = List.length !candidates; worse = List.length !cuts; rounds = r } )
      else if r >= max_rounds then
        raise
          (Tml_error.Error
             (Tml_error.Solver_nonconvergence
                (Printf.sprintf
                   "Reward_repair.repair_q: no feasible point after %d rounds"
                   max_rounds)))
      else begin
        let ev = evaluated slots in
        add_cut ev;
        add_candidate ev;
        round (r + 1)
      end
  in
  round 1

let repair_q ?(gamma = 0.9) ?(force = false) m ~theta ~constraints =
  if Mdp.feature_dim m = 0 then
    invalid_arg "Reward_repair.repair_q: MDP has no features";
  if constraints = [] then invalid_arg "Reward_repair.repair_q: no constraints";
  validate_constraints m constraints;
  let k = Array.length theta in
  if k <> Mdp.feature_dim m then
    invalid_arg "Reward_repair.repair_q: theta dimension mismatch";
  if k > max_features then
    invalid_arg
      (Printf.sprintf "Reward_repair.repair_q: more than %d features" max_features);
  if not (gamma > 0.0 && gamma < 1.0) then
    invalid_arg (Printf.sprintf "Reward_repair.repair_q: gamma %g outside (0, 1)" gamma);
  let kern = Value.compile m in
  let q_gap = q_gap ~gamma m kern in
  let satisfied th =
    List.for_all (fun c -> q_gap th c >= c.margin) constraints
  in
  if satisfied theta && not force then Already_satisfied
  else
    match
      Instr.time Instr.Solve (fun () -> search ~gamma m kern ~theta ~constraints)
    with
    | `Infeasible min_violation -> Infeasible { min_violation }
    | `Found (delta, searched) ->
      let theta' = Array.mapi (fun i v -> v +. delta.(i)) theta in
      let m' = Irl.apply_reward m theta' in
      let policy, _ = Value.optimal_policy ~gamma m' in
      let q_gaps = List.map (fun c -> (c, q_gap theta' c)) constraints in
      Repaired
        {
          theta = theta';
          delta;
          cost = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 delta;
          policy;
          q_gaps;
          verified = List.for_all (fun (c, g) -> g >= c.margin -. 1e-9) q_gaps;
          searched;
        }

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
