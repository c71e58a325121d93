(* Tests for Counterexample (most-probable paths, smallest witnesses). *)

let branch () =
  Dtmc.make ~n:3 ~init:0
    ~transitions:[ (0, 1, 0.3); (0, 2, 0.7); (1, 1, 1.0); (2, 2, 1.0) ]
    ~labels:[ ("goal", [ 1 ]); ("fail", [ 2 ]) ]
    ()

(* two routes of different probability into the target plus a retry loop *)
let routes () =
  Dtmc.make ~n:4 ~init:0
    ~transitions:
      [ (0, 3, 0.5); (0, 1, 0.3); (0, 0, 0.2);
        (1, 3, 1.0);
        (3, 3, 1.0); (2, 2, 1.0);
      ]
    ~labels:[ ("goal", [ 3 ]) ]
    ()

let test_most_probable_paths () =
  let d = routes () in
  let paths = Counterexample.most_probable_paths d ~target:(fun s -> s = 3) ~k:3 in
  Alcotest.(check int) "3 paths" 3 (List.length paths);
  (match paths with
   | (p1, q1) :: (p2, q2) :: (p3, q3) :: _ ->
     Alcotest.(check (list int)) "direct first" [ 0; 3 ] p1;
     Alcotest.(check (float 1e-12)) "q1" 0.5 q1;
     Alcotest.(check (list int)) "via 1 second" [ 0; 1; 3 ] p2;
     Alcotest.(check (float 1e-12)) "q2" 0.3 q2;
     (* third: one retry loop then direct: 0.2 * 0.5 *)
     Alcotest.(check (list int)) "retry third" [ 0; 0; 3 ] p3;
     Alcotest.(check (float 1e-12)) "q3" 0.1 q3
   | _ -> Alcotest.fail "expected three paths");
  (* probabilities are non-increasing *)
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "ordered" true
    (sorted (Counterexample.most_probable_paths d ~target:(fun s -> s = 3) ~k:10));
  Alcotest.(check int) "k=0" 0
    (List.length (Counterexample.most_probable_paths d ~target:(fun s -> s = 3) ~k:0));
  (* unreachable target: no paths *)
  Alcotest.(check int) "unreachable" 0
    (List.length
       (Counterexample.most_probable_paths ~max_len:20 d
          ~target:(fun s -> s = 2) ~k:5))

let test_smallest_counterexample () =
  let d = branch () in
  (* P <= 0.2 [F goal] is violated (true prob 0.3) *)
  (match
     Counterexample.smallest_counterexample d
       (Pctl_parser.parse "P<=0.2 [ F goal ]")
   with
   | Some w ->
     Alcotest.(check bool) "mass exceeds bound" true
       (w.Counterexample.total_mass > 0.2);
     Alcotest.(check int) "single path suffices" 1
       (List.length w.Counterexample.paths);
     Alcotest.(check (float 1e-12)) "bound recorded" 0.2 w.Counterexample.bound
   | None -> Alcotest.fail "expected a witness");
  (* the property holds: no counterexample *)
  Alcotest.(check bool) "holds -> None" true
    (Counterexample.smallest_counterexample d
       (Pctl_parser.parse "P<=0.4 [ F goal ]")
     = None);
  (* wrong formula shape *)
  (match
     Counterexample.smallest_counterexample d
       (Pctl_parser.parse "P>=0.5 [ F goal ]")
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "lower bounds rejected")

let test_smallest_counterexample_accumulates () =
  let d = routes () in
  (* Pr(F goal) = 1; a bound of 0.85 needs several paths *)
  match
    Counterexample.smallest_counterexample d
      (Pctl_parser.parse "P<=0.85 [ F goal ]")
  with
  | Some w ->
    Alcotest.(check bool) "needs >= 3 paths" true
      (List.length w.Counterexample.paths >= 3);
    Alcotest.(check bool) "mass > 0.85" true (w.Counterexample.total_mass > 0.85);
    (* mass equals the sum of its parts *)
    let s = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 w.Counterexample.paths in
    Alcotest.(check (float 1e-12)) "mass consistent" s w.Counterexample.total_mass
  | None -> Alcotest.fail "expected a witness"

let () =
  Alcotest.run "counterexample"
    [ ( "paths",
        [ Alcotest.test_case "most probable" `Quick test_most_probable_paths;
          Alcotest.test_case "smallest witness" `Quick test_smallest_counterexample;
          Alcotest.test_case "accumulation" `Quick test_smallest_counterexample_accumulates;
        ] );
    ]
