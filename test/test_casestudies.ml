(* End-to-end tests of the §V case studies (experiments E1–E6, F1). *)

(* ---------------- WSN (§V-A) ---------------- *)

let test_wsn_structure () =
  let p = Wsn.default_params in
  let d = Wsn.chain p in
  Alcotest.(check int) "9 states" 9 (Dtmc.num_states d);
  Alcotest.(check int) "init is far corner" 8 (Dtmc.init_state d);
  Alcotest.(check int) "station is 0" 0 (Wsn.node_id p 1 1);
  Alcotest.(check bool) "delivered label" true (Dtmc.has_label d 0 "delivered");
  Alcotest.(check bool) "delivered absorbing" true (Dtmc.is_absorbing d 0);
  Alcotest.(check (float 1e-12)) "attempt reward" 1.0 (Dtmc.reward d 8);
  Alcotest.(check (float 1e-12)) "no reward at station" 0.0 (Dtmc.reward d 0);
  Alcotest.(check bool) "field/station classes" true
    (Wsn.is_field_station_row p 1 && Wsn.is_field_station_row p 3
     && not (Wsn.is_field_station_row p 2));
  (* far corner: two forwarding targets plus the retry self-loop *)
  Alcotest.(check int) "corner out-degree" 3 (List.length (Dtmc.succ d 8));
  (match Wsn.node_id p 0 1 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "bad coords accepted")

let test_wsn_e1_satisfied () =
  (* E1: R{attempts} <= 100 [F delivered] holds without repair. *)
  let p = Wsn.default_params in
  let e = Wsn.expected_attempts p in
  Alcotest.(check bool) "E in (40, 100]" true (e > 40.0 && e <= 100.0);
  Alcotest.(check bool) "property holds" true
    (Check_dtmc.check (Wsn.chain p) (Wsn.property 100));
  match Model_repair.repair (Wsn.chain p) (Wsn.property 100) (Wsn.repair_spec p) with
  | Model_repair.Already_satisfied (Some v) ->
    Alcotest.(check (float 1e-6)) "reported value" e v
  | _ -> Alcotest.fail "expected Already_satisfied"

let test_wsn_e2_model_repair () =
  (* E2: X = 40 requires repair and admits it; corrections are small and
     positive (paper: p = 0.045, q = 0.081). *)
  let p = Wsn.default_params in
  match Model_repair.repair (Wsn.chain p) (Wsn.property 40) (Wsn.repair_spec p) with
  | Model_repair.Repaired r ->
    let pv = List.assoc "p" r.Model_repair.assignment in
    let qv = List.assoc "q" r.Model_repair.assignment in
    Alcotest.(check bool) "p small positive" true (pv > 0.0 && pv < 0.1);
    Alcotest.(check bool) "q small positive" true (qv > 0.0 && qv < 0.1);
    Alcotest.(check bool) "achieved <= 40" true
      (r.Model_repair.achieved_value <= 40.0 +. 1e-6);
    Alcotest.(check bool) "verified" true r.Model_repair.verified;
    (* repaired chain has strictly fewer expected attempts *)
    let e' =
      Check_dtmc.reachability_reward_from_init r.Model_repair.dtmc
        (Prop "delivered")
    in
    Alcotest.(check bool) "improved" true (e' < Wsn.expected_attempts p)
  | _ -> Alcotest.fail "expected Repaired"

let test_wsn_e3_infeasible () =
  (* E3: X = 19 is out of reach within the correction bounds. *)
  let p = Wsn.default_params in
  match Model_repair.repair (Wsn.chain p) (Wsn.property 19) (Wsn.repair_spec p) with
  | Model_repair.Infeasible { min_violation } ->
    Alcotest.(check bool) "positive violation" true (min_violation > 1.0)
  | _ -> Alcotest.fail "expected Infeasible"

let test_wsn_e4_data_repair () =
  (* E4: dropping failure observations lets the re-learned model meet
     X = 19 (paper §V-A.2). Reduced observation count for test speed. *)
  let p = Wsn.default_params in
  let rng = Prng.create 42 in
  let groups = Wsn.observation_groups rng p ~count:1500 in
  List.iter
    (fun (g, traces) ->
       Alcotest.(check bool) (g ^ " non-empty") true (traces <> []))
    groups;
  let rewards = Array.init 9 (fun s -> if s = 0 then Ratio.zero else Ratio.one) in
  let sp = Data_repair.spec ~pinned:[ "success" ] groups in
  match
    Data_repair.repair ~n:9 ~init:8
      ~labels:[ ("delivered", [ 0 ]) ]
      ~rewards ~starts:4 (Wsn.property 19) sp
  with
  | Data_repair.Repaired r ->
    Alcotest.(check (float 1e-9)) "success pinned" 0.0
      (List.assoc "success" r.Data_repair.drop_fractions);
    Alcotest.(check bool) "failure drops positive" true
      (List.assoc "fail_field_station" r.Data_repair.drop_fractions > 0.0
       && List.assoc "fail_other" r.Data_repair.drop_fractions > 0.0);
    Alcotest.(check bool) "achieved <= 19" true
      (r.Data_repair.achieved_value <= 19.0 +. 1e-6);
    Alcotest.(check bool) "verified" true r.Data_repair.verified
  | Data_repair.Already_satisfied _ -> Alcotest.fail "not already satisfied"
  | Data_repair.Infeasible _ -> Alcotest.fail "should be feasible"

let test_wsn_learning_recovers_chain () =
  (* MLE on full routing traces recovers the chain's success probabilities. *)
  let p = Wsn.default_params in
  let d = Wsn.chain p in
  let rng = Prng.create 5 in
  let traces =
    List.init 800 (fun _ ->
        Trace.of_states (Dtmc.simulate rng d ~max_steps:400 ()))
  in
  let learned =
    Mle.learn_dtmc ~n:9 ~init:8 ~labels:[ ("delivered", [ 0 ]) ] traces
  in
  (* compare a couple of edges *)
  Alcotest.(check bool) "self-loop close" true
    (Float.abs (Dtmc.prob learned 8 8 -. Dtmc.prob d 8 8) < 0.05);
  Alcotest.(check bool) "fwd close" true
    (Float.abs (Dtmc.prob learned 8 7 -. Dtmc.prob d 8 7) < 0.05)

(* ---------------- Car (§V-B) ---------------- *)

let test_car_f1_structure () =
  (* F1: the Fig. 1 MDP structure. *)
  let m = Car.mdp () in
  Alcotest.(check int) "11 states" 11 (Mdp.num_states m);
  Alcotest.(check int) "starts at S0" 0 (Mdp.init_state m);
  Alcotest.(check (list int)) "unsafe = {S2, S10}" [ 2; 10 ]
    (Mdp.states_with_label m "unsafe");
  Alcotest.(check (list int)) "target = {S4}" [ 4 ] (Mdp.states_with_label m "target");
  (* driveable states have 3 actions, sinks have 1 *)
  List.iter
    (fun s ->
       let expected = if s = 4 || s = 10 then 1 else 3 in
       Alcotest.(check int)
         (Printf.sprintf "actions of S%d" s)
         expected
         (List.length (Mdp.actions_of m s)))
    (List.init 11 Fun.id);
  (* geometry spot-checks from Fig. 1 *)
  let goes s a d =
    match Mdp.find_action m s a with
    | Some act -> List.assoc_opt d act.Mdp.dist = Some 1.0
    | None -> false
  in
  Alcotest.(check bool) "S1 fwd hits van" true (goes 1 "fwd" 2);
  Alcotest.(check bool) "S1 left to S6" true (goes 1 "left" 6);
  Alcotest.(check bool) "S8 right to S3" true (goes 8 "right" 3);
  Alcotest.(check bool) "S9 fwd off-road" true (goes 9 "fwd" 10);
  Alcotest.(check bool) "S9 right to S4" true (goes 9 "right" 4);
  Alcotest.(check bool) "S3 fwd to target" true (goes 3 "fwd" 4);
  Alcotest.(check bool) "right-lane right goes off-road" true (goes 0 "right" 10);
  Alcotest.(check bool) "left-lane left goes off-road" true (goes 5 "left" 10);
  Alcotest.(check int) "3 features" 3 (Mdp.feature_dim m);
  (* the expert trace is consistent with the dynamics *)
  Alcotest.(check bool) "expert trace possible" true
    (Float.is_finite (Trace.log_probability m (Car.expert_trace ())));
  Alcotest.(check bool) "expert is safe" true
    (Trace_logic.eval ~labels:(Mdp.has_label m) (Car.expert_trace ())
       Car.safety_rule)

let test_car_e5_irl_unsafe_policy () =
  (* E5a: MaxEnt IRL on the expert demo yields a reward whose optimal
     policy is unsafe at S1 (drives into the van) — §V-B's failure mode. *)
  let m = Car.mdp () in
  let theta = Irl.learn m (Car.expert_traces 5) in
  let m' = Irl.apply_reward m theta in
  let pi, _ = Value.optimal_policy ~gamma:0.9 m' in
  Alcotest.(check string) "unsafe action at S1" "fwd" pi.(1);
  Alcotest.(check bool) "rollout hits unsafe" true
    (Car.policy_visits_unsafe m' pi)

let test_car_e5_reward_repair () =
  (* E5b: min ||Δθ|| s.t. Q(S1, left) > Q(S1, fwd) makes the optimal
     policy safe. *)
  let m = Car.mdp () in
  let theta = Irl.learn m (Car.expert_traces 5) in
  match
    Reward_repair.repair_q ~gamma:0.9 m ~theta
      ~constraints:[ Car.unsafe_q_constraint ]
  with
  | Reward_repair.Repaired r ->
    Alcotest.(check bool) "verified" true r.Reward_repair.verified;
    Alcotest.(check string) "S1 now goes left" "left" r.Reward_repair.policy.(1);
    let m' = Irl.apply_reward m r.Reward_repair.theta in
    Alcotest.(check bool) "rollout safe" false
      (Car.policy_visits_unsafe m' r.Reward_repair.policy);
    Alcotest.(check bool) "rollout satisfies the LTLf rule" true
      (Reward_repair.policy_satisfies m r.Reward_repair.policy
         ~rules:[ Car.safety_rule ] ~horizon:20);
    (* minimal-change: the repair moved θ, but not wildly *)
    Alcotest.(check bool) "cost bounded" true
      (r.Reward_repair.cost > 0.0 && r.Reward_repair.cost < 1.0)
  | Reward_repair.Already_satisfied -> Alcotest.fail "policy was already safe?"
  | Reward_repair.Infeasible _ -> Alcotest.fail "repair should be feasible"

let test_car_e6_projection () =
  (* E6: Prop. 4's projection — violating trajectories lose (almost) all
     probability mass, satisfying ones keep their relative weights. *)
  let m = Car.mdp () in
  let theta = Irl.learn m (Car.expert_traces 5) in
  let rng = Prng.create 7 in
  let trajs =
    Reward_repair.sample_trajectories rng m ~theta ~horizon:8 ~count:150
  in
  let labels = Mdp.has_label m in
  let violating tr = not (Trace_logic.eval ~labels tr Car.safety_rule) in
  Alcotest.(check bool) "sampler produces some violations" true
    (List.exists violating trajs);
  let weighted =
    Reward_repair.projection_weights m ~theta
      ~rules:[ (Car.safety_rule, 10.0) ]
      trajs
  in
  let viol_mass =
    List.fold_left
      (fun acc (tr, w) -> if violating tr then acc +. w else acc)
      0.0 weighted
  in
  Alcotest.(check bool) "violating mass < 1%" true (viol_mass < 0.01);
  (* satisfying trajectories keep their relative proportions (Prop. 4) *)
  let base = Reward_repair.projection_weights m ~theta ~rules:[] trajs in
  let sat_pairs =
    List.filter_map
      (fun (tr, w) ->
         if violating tr then None else Some (w, List.assq tr base))
      weighted
  in
  (match sat_pairs with
   | (w1, b1) :: (w2, b2) :: _ when b2 > 0.0 && w2 > 0.0 ->
     Alcotest.(check (float 1e-6)) "ratios preserved" (b1 /. b2) (w1 /. w2)
   | _ -> ());
  (* repaired θ weighs the distance feature more *)
  let theta' =
    Reward_repair.repair_by_projection m ~theta
      ~rules:[ (Car.safety_rule, 10.0) ]
      trajs
  in
  Alcotest.(check bool) "distance weight increased" true (theta'.(1) > theta.(1))

(* ---------------- Experiments driver sanity ---------------- *)

let test_experiment_rows () =
  (* quick structural experiments only (the expensive ones are covered by
     the wsn and car groups above) *)
  let f1 = Experiments.f1 () in
  Alcotest.(check string) "id" "F1" f1.Experiments.id;
  Alcotest.(check bool) "ok" true f1.Experiments.ok;
  let e1 = Experiments.e1 () in
  Alcotest.(check bool) "e1 ok" true e1.Experiments.ok;
  let e3 = Experiments.e3 () in
  Alcotest.(check bool) "e3 ok" true e3.Experiments.ok;
  (* the table renders *)
  let s = Format.asprintf "%a" Experiments.print_rows [ f1; e1; e3 ] in
  Alcotest.(check bool) "renders" true (String.length s > 100)

let () =
  Alcotest.run "casestudies"
    [ ( "wsn",
        [ Alcotest.test_case "structure" `Quick test_wsn_structure;
          Alcotest.test_case "E1: satisfied" `Quick test_wsn_e1_satisfied;
          Alcotest.test_case "E2: model repair" `Quick test_wsn_e2_model_repair;
          Alcotest.test_case "E3: infeasible" `Quick test_wsn_e3_infeasible;
          Alcotest.test_case "E4: data repair" `Slow test_wsn_e4_data_repair;
          Alcotest.test_case "learning recovers chain" `Quick
            test_wsn_learning_recovers_chain;
        ] );
      ( "car",
        [ Alcotest.test_case "F1: structure" `Quick test_car_f1_structure;
          Alcotest.test_case "E5: IRL yields unsafe policy" `Quick
            test_car_e5_irl_unsafe_policy;
          Alcotest.test_case "E5: reward repair" `Quick test_car_e5_reward_repair;
          Alcotest.test_case "E6: projection (Prop. 4)" `Quick test_car_e6_projection;
        ] );
      ( "experiments driver",
        [ Alcotest.test_case "rows" `Quick test_experiment_rows ] );
    ]
