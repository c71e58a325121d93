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
    (Invalid_argument "Mle.learn: negative smoothing") (fun () ->
        ignore
          (Mle.learn_dtmc ~n:2 ~init:0 ~smoothing:(-1.0)
             (Tally.of_traces traces)))

(* The float learner [Mle.learn_dtmc] had before it became the
   instantiation of the exact one: row-normalised float counts. *)
let float_reference ~n ~smoothing ~support (t : Tally.t) =
  let counts = Mle.counts ~n t in
  List.iter (fun (s, d) -> counts.(s).(d) <- counts.(s).(d) +. smoothing) support;
  let transitions = ref [] in
  for s = 0 to n - 1 do
    let total = Array.fold_left ( +. ) 0.0 counts.(s) in
    if total > 0.0 then
      Array.iteri
        (fun d c -> if c > 0.0 then transitions := (s, d, c /. total) :: !transitions)
        counts.(s)
    else transitions := (s, s, 1.0) :: !transitions
  done;
  Dtmc.make ~n ~init:0 ~transitions:!transitions ()

(* Seeded tallies: 2–9 states, up to 3n cells with counts up to 5000
   (and a few near 2^40), smoothing 0, 0.5 or 1 over the observed edges
   or over a random support. *)
let gen_learn_case =
  let open QCheck2.Gen in
  let* n = int_range 2 9 in
  let cell =
    triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
      (frequency [ (9, int_range 1 5000); (1, int_range 1 (1 lsl 40)) ])
  in
  let* cells = list_size (int_range 1 (3 * n)) cell in
  let* smoothing = oneofl [ 0.0; 0.5; 1.0 ] in
  let* support =
    option (list_size (int_range 1 n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))))
  in
  return (n, Tally.make ~traces:1 cells, smoothing, support)

let print_learn_case (n, (t : Tally.t), smoothing, support) =
  Printf.sprintf "n=%d smoothing=%g support=%s cells=[%s]" n smoothing
    (match support with
     | None -> "observed"
     | Some l -> String.concat ";" (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) l))
    (String.concat ";"
       (List.map (fun (s, d, k) -> Printf.sprintf "%d>%d:%d" s d k) t.Tally.transitions))

(* The exact learner's entries are the count ratios themselves, and its
   float instantiation equals the float reference bit for bit. *)
let check_learn_case (n, (t : Tally.t), smoothing, support) =
  let exact = Mle.learn ~n ~init:0 ~smoothing ?support t in
  let learned = Mle.learn_dtmc ~n ~init:0 ~smoothing ?support t in
  let support =
    match support with
    | Some l -> l
    | None -> List.map (fun (s, d, _) -> (s, d)) t.Tally.transitions
  in
  let reference = float_reference ~n ~smoothing ~support t in
  let bits d =
    List.sort compare
      (List.map (fun (s, d, p) -> (s, d, Int64.bits_of_float p)) (Dtmc.raw_transitions d))
  in
  if smoothing = 0.0 then
    List.iter
      (fun (s, d, k) ->
         let total =
           List.fold_left
             (fun acc (s', _, k') -> if s' = s then acc + k' else acc)
             0 t.Tally.transitions
         in
         let f = List.assoc d (Pdtmc.succ exact s) in
         if not (Ratfun.equal f (Ratfun.const (Q.of_ints k total))) then
           QCheck2.Test.fail_reportf "edge %d>%d is %s, not %d/%d" s d
             (Ratfun.to_string f) k total)
      t.Tally.transitions;
  bits learned = bits reference

let test_learn_exact_instantiation =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2018 |])
    (QCheck2.Test.make ~name:"exact learner instantiates bit-equal" ~count:300
       ~print:print_learn_case gen_learn_case check_learn_case)

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
          test_learn_exact_instantiation;
        ] );
      ( "irl",
        [ Alcotest.test_case "learn" `Quick test_irl_learn;
          Alcotest.test_case "weighted" `Quick test_irl_weighted;
          Alcotest.test_case "helpers" `Quick test_irl_helpers;
        ] );
      ("properties", props);
    ]
