(* Tests for Pdtmc and Elimination — the parametric model-checking engine. *)

module R = Ratfun
module P = Poly
module Q = Ratio

let rp = R.var "p"
let rq = R.var "q"
let rone = R.one

let check_rf msg expected actual =
  if not (R.equal expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (R.to_string expected)
      (R.to_string actual)

(* Geometric chain: 0 -> 1 with prob p, stays with 1-p; 1 absorbing. *)
let geometric () =
  Pdtmc.make ~n:2 ~init:0
    ~transitions:[ (0, 1, rp); (0, 0, R.sub rone rp); (1, 1, rone) ]
    ~labels:[ ("goal", [ 1 ]) ]
    ~rewards:[| rone; R.zero |]
    ()

let test_pdtmc_construction () =
  let d = geometric () in
  Alcotest.(check int) "n" 2 (Pdtmc.num_states d);
  Alcotest.(check (list string)) "params" [ "p" ] (Pdtmc.params d);
  Alcotest.(check (list int)) "label" [ 1 ] (Pdtmc.states_with_label d "goal");
  Alcotest.(check (list int)) "pred" [ 0; 1 ] (Pdtmc.pred d 1);
  check_rf "reward" rone (Pdtmc.reward d 0);
  (* symbolic row-sum validation *)
  (match
     Pdtmc.make ~n:2 ~init:0
       ~transitions:[ (0, 1, rp); (0, 0, rp); (1, 1, rone) ]
       ()
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected row-sum rejection");
  (match
     Pdtmc.make ~n:1 ~init:0 ~transitions:[ (0, 0, rone); (0, 0, R.zero) ] ()
   with
   | exception Invalid_argument _ -> Alcotest.fail "zero edges are dropped"
   | _ -> ())

let test_pdtmc_instantiate () =
  let d = geometric () in
  let env v = if v = "p" then Q.of_ints 1 4 else Q.zero in
  let c = Pdtmc.instantiate d env in
  Alcotest.(check (float 1e-12)) "prob" 0.25 (Dtmc.prob c 0 1);
  Alcotest.(check (float 1e-12)) "complement" 0.75 (Dtmc.prob c 0 0);
  Alcotest.(check bool) "labels survive" true (Dtmc.has_label c 1 "goal");
  (* out-of-range instantiation rejected *)
  (match Pdtmc.instantiate d (fun _ -> Q.of_int 2) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected rejection of p=2")

let test_of_dtmc_roundtrip () =
  let c =
    Dtmc.make ~n:3 ~init:0
      ~transitions:[ (0, 1, 0.3); (0, 2, 0.7); (1, 1, 1.0); (2, 2, 1.0) ]
      ~labels:[ ("goal", [ 1 ]) ]
      ()
  in
  let d = Pdtmc.of_dtmc c in
  Alcotest.(check (list string)) "no params" [] (Pdtmc.params d);
  let f = Elimination.reachability_probability d ~target:[ 1 ] in
  (match R.to_const_opt f with
   | Some v -> Alcotest.(check (float 1e-12)) "constant 0.3" 0.3 (Q.to_float v)
   | None -> Alcotest.fail "expected a constant")

let test_elim_geometric () =
  let d = geometric () in
  (* Pr(F goal) = p / (1 - (1-p)) = 1 *)
  check_rf "prob is 1" rone (Elimination.reachability_probability d ~target:[ 1 ]);
  (* E[steps] = 1/p *)
  check_rf "expected reward 1/p" (R.inv rp)
    (Elimination.expected_reward d ~target:[ 1 ])

let test_elim_branch () =
  let d =
    Pdtmc.make ~n:3 ~init:0
      ~transitions:
        [ (0, 1, rp); (0, 2, R.sub rone rp); (1, 1, rone); (2, 2, rone) ]
      ()
  in
  check_rf "Pr(F s1) = p" rp (Elimination.reachability_probability d ~target:[ 1 ]);
  check_rf "Pr(F s2) = 1-p" (R.sub rone rp)
    (Elimination.reachability_probability d ~target:[ 2 ]);
  check_rf "Pr(F {1,2}) = 1" rone
    (Elimination.reachability_probability d ~target:[ 1; 2 ])

let test_elim_two_param () =
  (* 0 -p-> 1, 0 -(1-p)-> 2(sink); 1 -q-> 3(goal), 1 -(1-q)-> 0.
     Pr(F goal) = pq / (1 - p(1-q)). *)
  let d =
    Pdtmc.make ~n:4 ~init:0
      ~transitions:
        [ (0, 1, rp);
          (0, 2, R.sub rone rp);
          (1, 3, rq);
          (1, 0, R.sub rone rq);
          (2, 2, rone);
          (3, 3, rone);
        ]
      ()
  in
  let f = Elimination.reachability_probability d ~target:[ 3 ] in
  let expected =
    R.div (R.mul rp rq) (R.sub rone (R.mul rp (R.sub rone rq)))
  in
  check_rf "two-parameter closed form" expected f

let test_elim_unreachable_and_trivial () =
  let d =
    Pdtmc.make ~n:3 ~init:0
      ~transitions:[ (0, 0, rone); (1, 2, rone); (2, 2, rone) ]
      ()
  in
  check_rf "unreachable target" R.zero
    (Elimination.reachability_probability d ~target:[ 2 ]);
  check_rf "init in target" rone
    (Elimination.reachability_probability d ~target:[ 0 ]);
  (match Elimination.expected_reward d ~target:[ 2 ] with
   | exception Elimination.Not_almost_sure 0 -> ()
   | exception e -> raise e
   | _ -> Alcotest.fail "expected Not_almost_sure");
  (match Elimination.reachability_probability d ~target:[] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty target rejected")

let test_elim_orders_agree () =
  let d =
    Pdtmc.make ~n:5 ~init:0
      ~transitions:
        [ (0, 1, rp); (0, 2, R.sub rone rp);
          (1, 3, rq); (1, 2, R.sub rone rq);
          (2, 0, R.const Q.half); (2, 4, R.const Q.half);
          (3, 3, rone); (4, 4, rone);
        ]
      ()
  in
  let f1 = Elimination.reachability_probability ~order:Min_degree d ~target:[ 3 ] in
  let f2 = Elimination.reachability_probability ~order:Ascending d ~target:[ 3 ] in
  let f3 = Elimination.reachability_probability ~order:Descending d ~target:[ 3 ] in
  check_rf "min-degree vs ascending" f1 f2;
  check_rf "min-degree vs descending" f1 f3

let test_elim_reward_compound () =
  (* 0 (r=2) -> 1 w.p. p else stay; 1 (r=3) -> 2 w.p. q else stay; 2 target.
     E = 2/p + 3/q. *)
  let d =
    Pdtmc.make ~n:3 ~init:0
      ~transitions:
        [ (0, 1, rp); (0, 0, R.sub rone rp);
          (1, 2, rq); (1, 1, R.sub rone rq);
          (2, 2, rone);
        ]
      ~rewards:[| R.of_int 2; R.of_int 3; R.zero |]
      ()
  in
  let e = Elimination.expected_reward d ~target:[ 2 ] in
  let expected = R.add (R.div (R.of_int 2) rp) (R.div (R.of_int 3) rq) in
  check_rf "2/p + 3/q" expected e

(* Cross-validation property: symbolic result evaluated at random valuations
   agrees with the numeric model checker on the instantiated chain. *)

let gen_param_chain =
  (* A 6-state parametric chain with params p, q placed on two rows. *)
  let open QCheck2.Gen in
  let* pv = int_range 5 95 in
  let* qv = int_range 5 95 in
  return (Q.of_ints pv 100, Q.of_ints qv 100)

let walk_pdtmc () =
  Pdtmc.make ~n:6 ~init:0
    ~transitions:
      [ (0, 1, rp); (0, 5, R.sub rone rp);
        (1, 2, rq); (1, 0, R.sub rone rq);
        (2, 3, rp); (2, 1, R.sub rone rp);
        (3, 4, R.const Q.half); (3, 2, R.const Q.half);
        (4, 4, rone); (5, 5, rone);
      ]
    ~labels:[ ("goal", [ 4 ]) ]
    ~rewards:[| rone; rone; rone; rone; R.zero; R.zero |]
    ()

let props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"symbolic = numeric (probability)" ~count:60
         ~print:(fun (a, b) -> Printf.sprintf "p=%s q=%s" (Q.to_string a) (Q.to_string b))
         gen_param_chain
         (fun (pv, qv) ->
            let d = walk_pdtmc () in
            let f = Elimination.reachability_probability d ~target:[ 4 ] in
            let env v = if v = "p" then pv else qv in
            let symbolic = Q.to_float (R.eval env f) in
            let numeric =
              Check_dtmc.path_probability (Pdtmc.instantiate d env)
                (Eventually (Prop "goal"))
            in
            Float.abs (symbolic -. numeric) < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"symbolic = numeric (expected reward)" ~count:60
         ~print:(fun (a, b) -> Printf.sprintf "p=%s q=%s" (Q.to_string a) (Q.to_string b))
         gen_param_chain
         (fun (pv, qv) ->
            let d = walk_pdtmc () in
            let f = Elimination.expected_reward d ~target:[ 4; 5 ] in
            let env v = if v = "p" then pv else qv in
            let symbolic = Q.to_float (R.eval env f) in
            let numeric =
              (* relabel the instantiated chain so the numeric checker can
                 name the absorbed set *)
              let c = Pdtmc.instantiate d env in
              let c2 =
                Dtmc.make ~n:6 ~init:0
                  ~transitions:(Dtmc.raw_transitions c)
                  ~labels:[ ("absorbed", [ 4; 5 ]) ]
                  ~rewards:(Dtmc.rewards c) ()
              in
              Check_dtmc.reachability_reward_from_init c2 (Prop "absorbed")
            in
            Float.abs (symbolic -. numeric) < 1e-7));
  ]

let () =
  Alcotest.run "parametric"
    [ ( "pdtmc",
        [ Alcotest.test_case "construction" `Quick test_pdtmc_construction;
          Alcotest.test_case "instantiate" `Quick test_pdtmc_instantiate;
          Alcotest.test_case "of_dtmc" `Quick test_of_dtmc_roundtrip;
        ] );
      ( "elimination",
        [ Alcotest.test_case "geometric" `Quick test_elim_geometric;
          Alcotest.test_case "branch" `Quick test_elim_branch;
          Alcotest.test_case "two params" `Quick test_elim_two_param;
          Alcotest.test_case "unreachable/trivial" `Quick test_elim_unreachable_and_trivial;
          Alcotest.test_case "orders agree" `Quick test_elim_orders_agree;
          Alcotest.test_case "compound reward" `Quick test_elim_reward_compound;
        ] );
      ("properties", props);
    ]
