(* Tests for Bisimulation (Prop. 1 epsilon-bisimilarity + quotienting). *)

let branch p =
  Dtmc.make ~n:3 ~init:0
    ~transitions:[ (0, 1, p); (0, 2, 1.0 -. p); (1, 1, 1.0); (2, 2, 1.0) ]
    ~labels:[ ("goal", [ 1 ]) ]
    ()

let test_epsilon_bound () =
  let a = branch 0.3 and b = branch 0.35 in
  Alcotest.(check (float 1e-12)) "bound" 0.05 (Bisimulation.epsilon_bound a b);
  Alcotest.(check (float 1e-12)) "self" 0.0 (Bisimulation.epsilon_bound a a);
  Alcotest.(check bool) "eps ok" true (Bisimulation.epsilon_bisimilar ~epsilon:0.06 a b);
  Alcotest.(check bool) "eps too small" false
    (Bisimulation.epsilon_bisimilar ~epsilon:0.04 a b);
  (* different structure -> infinity *)
  let c =
    Dtmc.make ~n:3 ~init:0
      ~transitions:[ (0, 1, 1.0); (1, 1, 1.0); (2, 2, 1.0) ]
      ()
  in
  Alcotest.(check bool) "structure mismatch" true
    (Bisimulation.epsilon_bound a c = Float.infinity);
  let d2 = Dtmc.make ~n:2 ~init:0 ~transitions:[ (0, 0, 1.0); (1, 1, 1.0) ] () in
  Alcotest.(check bool) "size mismatch" true
    (Bisimulation.epsilon_bound a d2 = Float.infinity)

let test_prop1_model_repair () =
  (* Prop. 1: the repaired model is epsilon-bisimilar with epsilon = max |Z|. *)
  let d = branch 0.3 in
  let spec =
    {
      Model_repair.variables = [ ("v", 0.0, 0.6) ];
      deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
    }
  in
  match Model_repair.repair ~base:(Pdtmc.of_dtmc d) d
    (Pctl_parser.parse "P>=0.5 [ F goal ]") spec with
  | Model_repair.Repaired r ->
    let v = List.assoc "v" r.Model_repair.assignment in
    Alcotest.(check (float 1e-9)) "epsilon = max |Z| = v*" v
      r.Model_repair.epsilon_bisimilarity;
    Alcotest.(check bool) "epsilon-bisimilar" true
      (Bisimulation.epsilon_bisimilar ~epsilon:(v +. 1e-9) d r.Model_repair.dtmc)
  | _ -> Alcotest.fail "expected Repaired"

(* Symmetric chain with duplicate states: 1 and 2 are bisimilar (same label,
   same behaviour), so the quotient has fewer states. *)
let symmetric () =
  Dtmc.make ~n:4 ~init:0
    ~transitions:
      [ (0, 1, 0.5); (0, 2, 0.5);
        (1, 3, 1.0); (2, 3, 1.0);
        (3, 3, 1.0);
      ]
    ~labels:[ ("mid", [ 1; 2 ]); ("end", [ 3 ]) ]
    ()

let test_quotient () =
  let d = symmetric () in
  let q, part = Bisimulation.quotient d in
  Alcotest.(check int) "3 classes" 3 (Bisimulation.num_blocks part);
  Alcotest.(check int) "quotient states" 3 (Dtmc.num_states q);
  Alcotest.(check int) "1 and 2 merged" part.(1) part.(2);
  Alcotest.(check bool) "0 separate" true (part.(0) <> part.(1));
  (* the quotient satisfies the same property with the same value *)
  let phi = Pctl.Eventually (Pctl.Prop "end") in
  Alcotest.(check (float 1e-12)) "same probability"
    (Check_dtmc.path_probability d phi)
    (Check_dtmc.path_probability q phi);
  (* merged transition mass: block(0) -> block(1) with probability 1 *)
  Alcotest.(check (float 1e-12)) "merged mass" 1.0
    (Dtmc.prob q part.(0) part.(1))

let test_quotient_distinguishes () =
  (* same labels but different dynamics -> not merged *)
  let d =
    Dtmc.make ~n:4 ~init:0
      ~transitions:
        [ (0, 1, 0.5); (0, 2, 0.5);
          (1, 3, 1.0);
          (2, 3, 0.5); (2, 2, 0.5);
          (3, 3, 1.0);
        ]
      ~labels:[ ("mid", [ 1; 2 ]) ]
      ()
  in
  let _, part = Bisimulation.quotient d in
  Alcotest.(check bool) "1 and 2 distinct" true (part.(1) <> part.(2));
  (* different rewards also distinguish *)
  let d2 =
    Dtmc.make ~n:3 ~init:0
      ~transitions:[ (0, 1, 0.5); (0, 2, 0.5); (1, 1, 1.0); (2, 2, 1.0) ]
      ~rewards:[| 0.0; 1.0; 2.0 |]
      ()
  in
  let _, part2 = Bisimulation.quotient d2 in
  Alcotest.(check bool) "rewards distinguish" true (part2.(1) <> part2.(2))

(* property: quotienting preserves reachability probabilities on random
   absorbing chains *)
let gen_chain =
  let open QCheck2.Gen in
  let* n = int_range 3 8 in
  let* seed = int_range 0 100_000 in
  let rng = Prng.create seed in
  let transitions = ref [ (n - 1, n - 1, 1.0) ] in
  for s = 0 to n - 2 do
    let fwd = s + 1 + Prng.int rng (n - s - 1) in
    let other = Prng.int rng n in
    let p = 0.25 *. float_of_int (1 + Prng.int rng 3) in
    if other = fwd then transitions := (s, fwd, 1.0) :: !transitions
    else transitions := (s, fwd, p) :: (s, other, 1.0 -. p) :: !transitions
  done;
  return (Dtmc.make ~n ~init:0 ~transitions:!transitions
            ~labels:[ ("goal", [ n - 1 ]) ] ())

let props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"quotient preserves reachability" ~count:60
         ~print:(fun d -> Format.asprintf "%a" Dtmc.pp d)
         gen_chain
         (fun d ->
            let q, _ = Bisimulation.quotient d in
            let phi = Pctl.Eventually (Pctl.Prop "goal") in
            Float.abs
              (Check_dtmc.path_probability d phi
               -. Check_dtmc.path_probability q phi)
            < 1e-9
            && Dtmc.num_states q <= Dtmc.num_states d));
  ]

let () =
  Alcotest.run "bisimulation"
    [ ( "epsilon",
        [ Alcotest.test_case "bound" `Quick test_epsilon_bound;
          Alcotest.test_case "Prop. 1 via model repair" `Quick test_prop1_model_repair;
        ] );
      ( "quotient",
        [ Alcotest.test_case "merges bisimilar" `Quick test_quotient;
          Alcotest.test_case "distinguishes" `Quick test_quotient_distinguishes;
        ] );
      ("properties", props);
    ]
