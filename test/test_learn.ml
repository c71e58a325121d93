(* Tests for Mle and Irl. *)

module Q = Ratio

let test_transition_counts () =
  let traces = [ Trace.of_states [ 0; 1; 2 ]; Trace.of_states [ 0; 1; 1 ] ] in
  let c = Mle.transition_counts ~n:3 traces in
  Alcotest.(check (float 0.0)) "0->1" 2.0 c.(0).(1);
  Alcotest.(check (float 0.0)) "1->2" 1.0 c.(1).(2);
  Alcotest.(check (float 0.0)) "1->1" 1.0 c.(1).(1);
  Alcotest.(check (float 0.0)) "none" 0.0 c.(2).(0);
  Alcotest.check_raises "out of range" (Invalid_argument "Mle: state 9 out of range [0,3)")
    (fun () -> ignore (Mle.transition_counts ~n:3 [ Trace.of_states [ 0; 9 ] ]));
  Alcotest.check_raises "lone state out of range"
    (Invalid_argument "Mle: state 9 out of range [0,3)")
    (fun () -> ignore (Mle.transition_counts ~n:3 [ Trace.of_states [ 9 ] ]))

let test_learn_dtmc () =
  (* 3 of 4 transitions from 0 go to 1 *)
  let traces =
    [ Trace.of_states [ 0; 1 ]; Trace.of_states [ 0; 1 ];
      Trace.of_states [ 0; 1 ]; Trace.of_states [ 0; 2 ];
    ]
  in
  let d =
    Mle.learn_dtmc ~n:3 ~init:0 ~labels:[ ("goal", [ 1 ]) ]
      (Tally.of_traces traces)
  in
  Alcotest.(check (float 1e-12)) "p01" 0.75 (Dtmc.prob d 0 1);
  Alcotest.(check (float 1e-12)) "p02" 0.25 (Dtmc.prob d 0 2);
  (* unobserved sources become absorbing *)
  Alcotest.(check (float 1e-12)) "absorbing 1" 1.0 (Dtmc.prob d 1 1);
  Alcotest.(check bool) "labels kept" true (Dtmc.has_label d 1 "goal")

let test_learn_dtmc_smoothing () =
  let traces = [ Trace.of_states [ 0; 1 ]; Trace.of_states [ 0; 1 ] ] in
  let d =
    Mle.learn_dtmc ~n:3 ~init:0 ~smoothing:1.0
      ~support:[ (0, 1); (0, 2) ] (Tally.of_traces traces)
  in
  (* counts: 0->1: 2+1, 0->2: 0+1 *)
  Alcotest.(check (float 1e-12)) "smoothed p01" 0.75 (Dtmc.prob d 0 1);
  Alcotest.(check (float 1e-12)) "smoothed p02" 0.25 (Dtmc.prob d 0 2);
  Alcotest.check_raises "negative smoothing"
    (Invalid_argument "Mle.learn_dtmc: negative smoothing") (fun () ->
        ignore
          (Mle.learn_dtmc ~n:2 ~init:0 ~smoothing:(-1.0)
             (Tally.of_traces traces)))

let test_learn_mdp_dists () =
  let m =
    Mdp.make ~n:3 ~init:0
      ~actions:
        [ (0, "go", [ (1, 0.5); (2, 0.5) ]);
          (1, "stay", [ (1, 1.0) ]);
          (2, "stay", [ (2, 1.0) ]);
        ]
      ()
  in
  let traces =
    [ Trace.make [ (0, "go") ] 1;
      Trace.make [ (0, "go") ] 1;
      Trace.make [ (0, "go") ] 1;
      Trace.make [ (0, "go") ] 2;
    ]
  in
  let m' = Mle.learn_mdp_dists m traces in
  (match Mdp.find_action m' 0 "go" with
   | Some a ->
     Alcotest.(check (float 1e-12)) "p(1|0,go)" 0.75 (List.assoc 1 a.Mdp.dist);
     Alcotest.(check (float 1e-12)) "p(2|0,go)" 0.25 (List.assoc 2 a.Mdp.dist)
   | None -> Alcotest.fail "action lost");
  (* unobserved action distributions unchanged *)
  (match Mdp.find_action m' 1 "stay" with
   | Some a -> Alcotest.(check (float 1e-12)) "unchanged" 1.0 (List.assoc 1 a.Mdp.dist)
   | None -> Alcotest.fail "action lost")

let test_parametric_mle () =
  (* Two trace groups from state 0: group "x" goes to 1, group "y" goes
     to 2. P(0->1) = (1-x)·2 / ((1-x)·2 + (1-y)·1). *)
  let groups =
    [ ("x", [ Trace.of_states [ 0; 1 ]; Trace.of_states [ 0; 1 ] ]);
      ("y", [ Trace.of_states [ 0; 2 ] ]);
    ]
  in
  let pd = Mle.parametric_mle ~n:3 ~init:0 ~groups:(Tally.of_groups groups) () in
  Alcotest.(check (list string)) "params" [ "x"; "y" ] (Pdtmc.params pd);
  (* evaluate at x=0, y=0: counts 2 vs 1 *)
  let at vx vy =
    let env v = if v = "x" then vx else vy in
    List.assoc 1
      (List.map (fun (d, f) -> (d, Q.to_float (Ratfun.eval env f))) (Pdtmc.succ pd 0))
  in
  Alcotest.(check (float 1e-12)) "x=y=0" (2.0 /. 3.0) (at Q.zero Q.zero);
  (* dropping half of group x: (1·2)/(1·2 + 2·1)·... keep = 1-x = 1/2:
     (0.5·2)/(0.5·2+1·1) = 0.5 *)
  Alcotest.(check (float 1e-12)) "x=1/2" 0.5 (at Q.half Q.zero);
  (* dropping all of group y leaves only 0->1 *)
  Alcotest.(check (float 1e-12)) "y=1" 1.0 (at Q.zero Q.one);
  Alcotest.check_raises "duplicate groups"
    (Invalid_argument "Mle.parametric_mle: duplicate group names") (fun () ->
        ignore (Mle.parametric_mle ~n:2 ~init:0 ~groups:[ ("g", Tally.empty); ("g", Tally.empty) ] ()))

(* ---------------- IRL ---------------- *)

(* Two-path MDP: 0 --up--> 1(feature [1;0]) --> 3; 0 --down--> 2([0;1]) --> 3.
   Expert always goes up, so θ must weight feature 0 higher. *)
let irl_mdp () =
  Mdp.make ~n:4 ~init:0
    ~actions:
      [ (0, "up", [ (1, 1.0) ]);
        (0, "down", [ (2, 1.0) ]);
        (1, "go", [ (3, 1.0) ]);
        (2, "go", [ (3, 1.0) ]);
        (3, "stay", [ (3, 1.0) ]);
      ]
    ~features:[| [| 0.0; 0.0 |]; [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |]
    ()

let expert_traces () =
  [ Trace.make [ (0, "up"); (1, "go") ] 3; Trace.make [ (0, "up"); (1, "go") ] 3 ]

let test_irl_learn () =
  let m = irl_mdp () in
  let theta = Irl.learn m (expert_traces ()) in
  Alcotest.(check bool) "prefers feature 0" true (theta.(0) > theta.(1));
  Alcotest.(check bool) "norm bounded" true
    (sqrt ((theta.(0) ** 2.0) +. (theta.(1) ** 2.0)) <= 1.0 +. 1e-9);
  (* induced optimal policy follows the expert *)
  let m' = Irl.apply_reward m theta in
  let pi, _ = Value.optimal_policy ~gamma:0.9 m' in
  Alcotest.(check string) "optimal goes up" "up" pi.(0)

let test_irl_weighted () =
  let m = irl_mdp () in
  (* Weight the "down" trajectory heavily: learned reward must flip. *)
  let weighted =
    [ (Trace.make [ (0, "up"); (1, "go") ] 3, 0.05);
      (Trace.make [ (0, "down"); (2, "go") ] 3, 0.95);
    ]
  in
  let theta = Irl.learn_weighted m weighted in
  Alcotest.(check bool) "prefers feature 1" true (theta.(1) > theta.(0))

let test_irl_helpers () =
  let m = irl_mdp () in
  let emp =
    Irl.empirical_feature_expectations m
      [ (Trace.make [ (0, "up"); (1, "go") ] 3, 1.0) ]
  in
  Alcotest.(check (float 1e-12)) "f0" 1.0 emp.(0);
  Alcotest.(check (float 1e-12)) "f1" 0.0 emp.(1);
  let r = Irl.reward_vector m [| 2.0; -1.0 |] in
  Alcotest.(check (float 1e-12)) "reward s1" 2.0 r.(1);
  Alcotest.(check (float 1e-12)) "reward s2" (-1.0) r.(2);
  let policy = Irl.soft_policy m ~theta:[| 1.0; 0.0 |] ~horizon:3 in
  let p_up = List.assoc "up" policy.(0) in
  let p_down = List.assoc "down" policy.(0) in
  Alcotest.(check bool) "soft policy prefers up" true (p_up > p_down);
  Alcotest.(check (float 1e-9)) "policy normalised" 1.0 (p_up +. p_down);
  let freq = Irl.expected_state_frequencies m ~policy ~horizon:3 in
  Alcotest.(check bool) "mass flows to 1 over 2" true (freq.(1) > freq.(2));
  (* MDP without features is rejected *)
  let bare = Mdp.make ~n:1 ~init:0 ~actions:[ (0, "s", [ (0, 1.0) ]) ] () in
  Alcotest.check_raises "no features" (Invalid_argument "Irl: MDP has no state features")
    (fun () -> ignore (Irl.learn bare []))

(* property: MLE recovers the generating chain from enough samples *)
let props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"mle consistency" ~count:20
         ~print:(fun (p, seed) -> Printf.sprintf "p=%g seed=%d" p seed)
         QCheck2.Gen.(pair (float_range 0.2 0.8) (int_range 0 10_000))
         (fun (p, seed) ->
            let truth =
              Dtmc.make ~n:3 ~init:0
                ~transitions:
                  [ (0, 1, p); (0, 2, 1.0 -. p); (1, 0, 1.0); (2, 2, 1.0) ]
                ()
            in
            let rng = Prng.create seed in
            let traces =
              List.init 600 (fun _ ->
                  Trace.of_states (Dtmc.simulate rng truth ~max_steps:6 ()))
            in
            let learned = Mle.learn_dtmc ~n:3 ~init:0 (Tally.of_traces traces) in
            Float.abs (Dtmc.prob learned 0 1 -. p) < 0.08));
  ]

let () =
  Alcotest.run "learn"
    [ ( "mle",
        [ Alcotest.test_case "counts" `Quick test_transition_counts;
          Alcotest.test_case "learn dtmc" `Quick test_learn_dtmc;
          Alcotest.test_case "smoothing" `Quick test_learn_dtmc_smoothing;
          Alcotest.test_case "learn mdp" `Quick test_learn_mdp_dists;
          Alcotest.test_case "parametric" `Quick test_parametric_mle;
        ] );
      ( "irl",
        [ Alcotest.test_case "learn" `Quick test_irl_learn;
          Alcotest.test_case "weighted" `Quick test_irl_weighted;
          Alcotest.test_case "helpers" `Quick test_irl_helpers;
        ] );
      ("properties", props);
    ]
