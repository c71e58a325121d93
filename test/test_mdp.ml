(* Tests for Dtmc, Mdp, Value and Trace. *)

let simple_dtmc () =
  (* 0 -> 1 (0.3) | 2 (0.7); 1, 2 absorbing. *)
  Dtmc.make ~n:3 ~init:0
    ~transitions:[ (0, 1, 0.3); (0, 2, 0.7); (1, 1, 1.0); (2, 2, 1.0) ]
    ~labels:[ ("goal", [ 1 ]); ("fail", [ 2 ]) ]
    ~rewards:[| 1.0; 0.0; 0.0 |]
    ()

let test_dtmc_construction () =
  let d = simple_dtmc () in
  Alcotest.(check int) "n" 3 (Dtmc.num_states d);
  Alcotest.(check int) "init" 0 (Dtmc.init_state d);
  Alcotest.(check (float 1e-12)) "prob 0->1" 0.3 (Dtmc.prob d 0 1);
  Alcotest.(check (float 1e-12)) "prob 0->0" 0.0 (Dtmc.prob d 0 0);
  Alcotest.(check (list int)) "pred 1" [ 0; 1 ] (Dtmc.pred d 1);
  Alcotest.(check (list string)) "labels" [ "fail"; "goal" ] (Dtmc.labels d);
  Alcotest.(check bool) "has_label" true (Dtmc.has_label d 1 "goal");
  Alcotest.(check bool) "no label" false (Dtmc.has_label d 0 "goal");
  Alcotest.(check (list int)) "states_with_label" [ 2 ]
    (Dtmc.states_with_label d "fail");
  Alcotest.(check (list int)) "unknown label" []
    (Dtmc.states_with_label d "nope");
  Alcotest.(check bool) "absorbing 1" true (Dtmc.is_absorbing d 1);
  Alcotest.(check bool) "not absorbing 0" false (Dtmc.is_absorbing d 0);
  Alcotest.(check (float 1e-12)) "reward" 1.0 (Dtmc.reward d 0)

let test_dtmc_validation () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "row sums" (fun () ->
      Dtmc.make ~n:2 ~init:0 ~transitions:[ (0, 1, 0.5); (1, 1, 1.0) ] ());
  expect_invalid "negative prob" (fun () ->
      Dtmc.make ~n:2 ~init:0
        ~transitions:[ (0, 1, 1.5); (0, 0, -0.5); (1, 1, 1.0) ]
        ());
  expect_invalid "bad target" (fun () ->
      Dtmc.make ~n:2 ~init:0 ~transitions:[ (0, 5, 1.0); (1, 1, 1.0) ] ());
  expect_invalid "bad init" (fun () ->
      Dtmc.make ~n:2 ~init:9 ~transitions:[ (0, 0, 1.0); (1, 1, 1.0) ] ());
  expect_invalid "bad reward length" (fun () ->
      Dtmc.make ~n:2 ~init:0
        ~transitions:[ (0, 0, 1.0); (1, 1, 1.0) ]
        ~rewards:[| 1.0 |] ());
  (* duplicate edges are merged *)
  let d =
    Dtmc.make ~n:2 ~init:0
      ~transitions:[ (0, 1, 0.5); (0, 1, 0.5); (1, 1, 1.0) ]
      ()
  in
  Alcotest.(check (float 1e-12)) "merged" 1.0 (Dtmc.prob d 0 1)

let test_dtmc_matrix_roundtrip () =
  let d = simple_dtmc () in
  let m = Dtmc.transition_matrix d in
  Alcotest.(check (float 1e-12)) "m01" 0.3 (Linalg.Mat.get m 0 1);
  Alcotest.(check (float 1e-12)) "m22" 1.0 (Linalg.Mat.get m 2 2);
  let d2 = Dtmc.make ~n:3 ~init:0 ~transitions:(Dtmc.raw_transitions d) () in
  Alcotest.(check (float 1e-12)) "raw roundtrip" 0.7 (Dtmc.prob d2 0 2)

let test_dtmc_simulate () =
  let d = simple_dtmc () in
  let rng = Prng.create 1 in
  let n = 10_000 and hits = ref 0 in
  for _ = 1 to n do
    let path = Dtmc.simulate rng d ~max_steps:10 () in
    match List.rev path with
    | last :: _ -> if last = 1 then incr hits
    | [] -> Alcotest.fail "empty path"
  done;
  Alcotest.(check (float 0.02)) "goal frequency matches prob" 0.3
    (float_of_int !hits /. float_of_int n);
  (* stop predicate halts immediately at init *)
  let p = Dtmc.simulate rng d ~max_steps:10 ~stop:(fun s -> s = 0) () in
  Alcotest.(check (list int)) "stop at init" [ 0 ] p

(* ---------------- MDP ---------------- *)

let two_action_mdp () =
  (* 0: safe -> 1 surely (reward 0); risky -> 2 (0.8 reward 10 via state) or
     1 (0.2). States 1 (bad, r=0), 2 (good, r=10) absorbing. *)
  Mdp.make ~n:3 ~init:0
    ~actions:
      [ (0, "safe", [ (1, 1.0) ]);
        (0, "risky", [ (2, 0.8); (1, 0.2) ]);
        (1, "stay", [ (1, 1.0) ]);
        (2, "stay", [ (2, 1.0) ]);
      ]
    ~labels:[ ("good", [ 2 ]); ("bad", [ 1 ]) ]
    ~state_rewards:[| 0.0; 0.0; 10.0 |]
    ~features:[| [| 1.0; 0.0 |]; [| 0.0; 0.0 |]; [| 0.0; 1.0 |] |]
    ()

let test_mdp_construction () =
  let m = two_action_mdp () in
  Alcotest.(check int) "n" 3 (Mdp.num_states m);
  Alcotest.(check (list string)) "actions of 0" [ "risky"; "safe" ]
    (Mdp.action_names m 0);
  Alcotest.(check int) "total actions" 4 (Mdp.num_actions_total m);
  Alcotest.(check bool) "find" true (Mdp.find_action m 0 "risky" <> None);
  Alcotest.(check bool) "find missing" true (Mdp.find_action m 0 "jump" = None);
  Alcotest.(check int) "feature dim" 2 (Mdp.feature_dim m);
  Alcotest.(check (array (float 0.0))) "features" [| 0.0; 1.0 |] (Mdp.features_of m 2);
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "no actions" (fun () ->
      Mdp.make ~n:2 ~init:0 ~actions:[ (0, "a", [ (0, 1.0) ]) ] ());
  expect_invalid "dup action" (fun () ->
      Mdp.make ~n:1 ~init:0
        ~actions:[ (0, "a", [ (0, 1.0) ]); (0, "a", [ (0, 1.0) ]) ]
        ())

let test_mdp_policy () =
  let m = two_action_mdp () in
  let pi = [| "risky"; "stay"; "stay" |] in
  Alcotest.(check bool) "valid" true (Mdp.validate_policy m pi = Ok ());
  Alcotest.(check bool) "invalid" true
    (Mdp.validate_policy m [| "jump"; "stay"; "stay" |] <> Ok ());
  let d = Mdp.induced_dtmc m pi in
  Alcotest.(check (float 1e-12)) "induced 0->2" 0.8 (Dtmc.prob d 0 2);
  Alcotest.(check (float 1e-12)) "induced reward" 10.0 (Dtmc.reward d 2);
  Alcotest.(check bool) "labels preserved" true (Dtmc.has_label d 2 "good");
  let u = Mdp.uniform_random_dtmc m in
  Alcotest.(check (float 1e-12)) "uniform mix" (0.5 +. (0.5 *. 0.2))
    (Dtmc.prob u 0 1)

let test_value_iteration () =
  let m = two_action_mdp () in
  let v = Value.value_iteration ~gamma:0.9 m in
  (* risky: 0.8 * 0.9 * V(2); V(2) = 10/(1-0.9) = 100 -> q_risky = 72,
     q_safe = 0.9 * V(1) = 0. *)
  Alcotest.(check (float 1e-6)) "V(2)" 100.0 v.(2);
  Alcotest.(check (float 1e-6)) "V(1)" 0.0 v.(1);
  Alcotest.(check (float 1e-6)) "V(0)" 72.0 v.(0);
  let q = Value.q_values ~gamma:0.9 m in
  Alcotest.(check (float 1e-6)) "q risky" 72.0 (List.assoc "risky" q.(0));
  Alcotest.(check (float 1e-6)) "q safe" 0.0 (List.assoc "safe" q.(0));
  let pi = Value.greedy_policy m q in
  Alcotest.(check string) "greedy" "risky" pi.(0);
  let pi2, v2 = Value.optimal_policy ~gamma:0.9 m in
  Alcotest.(check string) "optimal_policy agrees" "risky" pi2.(0);
  Alcotest.(check (float 1e-6)) "values agree" v.(0) v2.(0);
  Alcotest.check_raises "bad gamma" (Invalid_argument "Value: gamma 0 outside (0, 1]")
    (fun () -> ignore (Value.value_iteration ~gamma:0.0 m))

let test_mdp_simulate () =
  let m = two_action_mdp () in
  let rng = Prng.create 3 in
  let pi = [| "risky"; "stay"; "stay" |] in
  let n = 5000 and good = ref 0 in
  for _ = 1 to n do
    let _, final = Mdp.simulate rng m pi ~max_steps:50 () in
    if final = 2 then incr good
  done;
  Alcotest.(check (float 0.03)) "risky success rate" 0.8
    (float_of_int !good /. float_of_int n);
  let steps, final = Mdp.simulate rng m pi ~max_steps:50 () in
  Alcotest.(check bool) "one transition then absorb" true
    (List.length steps = 1 && (final = 1 || final = 2))

(* ---------------- Trace ---------------- *)

let test_trace () =
  let t = Trace.make [ (0, "a"); (1, "b") ] 2 in
  Alcotest.(check int) "length" 2 (Trace.length t);
  Alcotest.(check (list int)) "states" [ 0; 1; 2 ] (Trace.states t);
  Alcotest.(check bool) "visits" true (Trace.visits_state t 1);
  Alcotest.(check bool) "not visits" false (Trace.visits_state t 7);
  Alcotest.(check bool) "action" true (Trace.visits_action t "b");
  Alcotest.(check (option int)) "nth_state" (Some 2) (Trace.nth_state t 2);
  Alcotest.(check (option string)) "nth_action" (Some "a") (Trace.nth_action t 0);
  Alcotest.(check (option string)) "nth_action out" None (Trace.nth_action t 5);
  let t2 = Trace.of_states [ 4; 5; 6 ] in
  Alcotest.(check (list int)) "of_states" [ 4; 5; 6 ] (Trace.states t2);
  Alcotest.check_raises "empty" (Invalid_argument "Trace.of_states: empty path")
    (fun () -> ignore (Trace.of_states []))

let test_trace_log_probability () =
  let m = two_action_mdp () in
  let t = Trace.make [ (0, "risky") ] 2 in
  Alcotest.(check (float 1e-9)) "log 0.8" (log 0.8) (Trace.log_probability m t);
  let t_bad = Trace.make [ (0, "jump") ] 2 in
  Alcotest.(check (float 0.0)) "impossible action" Float.neg_infinity
    (Trace.log_probability m t_bad);
  let t_zero = Trace.make [ (0, "safe") ] 2 in
  Alcotest.(check (float 0.0)) "impossible transition" Float.neg_infinity
    (Trace.log_probability m t_zero)

(* ---------------- Properties ---------------- *)

let qtest name ?(count = 50) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let gen_random_dtmc =
  (* Random chain on n states: each state gets 1-3 successors. *)
  let open QCheck2.Gen in
  let* n = int_range 2 8 in
  let* seeds = array_size (return n) (int_range 0 1_000_000) in
  let transitions =
    List.concat
      (List.init n (fun s ->
           let rng = Prng.create seeds.(s) in
           let k = 1 + Prng.int rng 3 in
           let targets = List.init k (fun _ -> Prng.int rng n) in
           let targets = List.sort_uniq Int.compare targets in
           let w = 1.0 /. float_of_int (List.length targets) in
           List.map (fun d -> (s, d, w)) targets))
  in
  return (Dtmc.make ~n ~init:0 ~transitions ())

let props =
  [ qtest "dtmc rows are stochastic" ~print:(fun d -> Format.asprintf "%a" Dtmc.pp d)
      gen_random_dtmc
      (fun d ->
         let ok = ref true in
         for s = 0 to Dtmc.num_states d - 1 do
           let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 (Dtmc.succ d s) in
           if Float.abs (total -. 1.0) > 1e-9 then ok := false
         done;
         !ok);
    qtest "pred is inverse of succ" ~print:(fun d -> Format.asprintf "%a" Dtmc.pp d)
      gen_random_dtmc
      (fun d ->
         let n = Dtmc.num_states d in
         let ok = ref true in
         for s = 0 to n - 1 do
           List.iter
             (fun (t, _) -> if not (List.mem s (Dtmc.pred d t)) then ok := false)
             (Dtmc.succ d s)
         done;
         !ok);
    qtest "simulate only follows edges" ~print:(fun d -> Format.asprintf "%a" Dtmc.pp d)
      gen_random_dtmc
      (fun d ->
         let rng = Prng.create 99 in
         let path = Dtmc.simulate rng d ~max_steps:20 () in
         let rec ok = function
           | a :: (b :: _ as rest) -> Dtmc.prob d a b > 0.0 && ok rest
           | _ -> true
         in
         ok path);
  ]

let () =
  Alcotest.run "mdp"
    [ ( "dtmc",
        [ Alcotest.test_case "construction" `Quick test_dtmc_construction;
          Alcotest.test_case "validation" `Quick test_dtmc_validation;
          Alcotest.test_case "matrix roundtrip" `Quick test_dtmc_matrix_roundtrip;
          Alcotest.test_case "simulate" `Quick test_dtmc_simulate;
        ] );
      ( "mdp",
        [ Alcotest.test_case "construction" `Quick test_mdp_construction;
          Alcotest.test_case "policy/induced" `Quick test_mdp_policy;
          Alcotest.test_case "value iteration" `Quick test_value_iteration;
          Alcotest.test_case "simulate" `Quick test_mdp_simulate;
        ] );
      ( "trace",
        [ Alcotest.test_case "basics" `Quick test_trace;
          Alcotest.test_case "log probability" `Quick test_trace_log_probability;
        ] );
      ("properties", props);
    ]
