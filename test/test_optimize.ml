(* Tests for Nelder_mead and Nlp. *)

let test_nelder_mead_quadratic () =
  let f x = ((x.(0) -. 1.0) ** 2.0) +. ((x.(1) +. 2.0) ** 2.0) in
  let r = Nelder_mead.minimize f [| 0.0; 0.0 |] in
  Alcotest.(check bool) "converged" true r.Nelder_mead.converged;
  Alcotest.(check (float 1e-4)) "x0" 1.0 r.Nelder_mead.x.(0);
  Alcotest.(check (float 1e-4)) "x1" (-2.0) r.Nelder_mead.x.(1);
  Alcotest.(check (float 1e-8)) "f" 0.0 r.Nelder_mead.f

let test_nelder_mead_rosenbrock () =
  let f x =
    let a = 1.0 -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
    (a *. a) +. (100.0 *. b *. b)
  in
  let r = Nelder_mead.minimize ~max_iter:20000 f [| -1.2; 1.0 |] in
  Alcotest.(check (float 1e-3)) "rosenbrock x" 1.0 r.Nelder_mead.x.(0);
  Alcotest.(check (float 1e-3)) "rosenbrock y" 1.0 r.Nelder_mead.x.(1)

let circle_problem () =
  (* min x² + y² s.t. x + y >= 1, i.e. 1 - x - y <= 0.
     Optimum: x = y = 1/2, objective 1/2. *)
  Nlp.problem ~dim:2
    ~objective:(fun x -> (x.(0) *. x.(0)) +. (x.(1) *. x.(1)))
    ~inequalities:[ ("sum_ge_1", fun x -> 1.0 -. x.(0) -. x.(1)) ]
    ~lower:[| -5.0; -5.0 |] ~upper:[| 5.0; 5.0 |] ()

let test_nlp_feasible_penalty () =
  match Nlp.solve ~method_:Nlp.Penalty (circle_problem ()) with
  | Nlp.Feasible s ->
    Alcotest.(check (float 2e-3)) "x" 0.5 s.Nlp.x.(0);
    Alcotest.(check (float 2e-3)) "y" 0.5 s.Nlp.x.(1);
    Alcotest.(check (float 5e-3)) "objective" 0.5 s.Nlp.objective_value;
    Alcotest.(check bool) "no violations listed" true (s.Nlp.violated = [])
  | Nlp.Infeasible _ -> Alcotest.fail "expected feasible"

let test_nlp_feasible_auglag () =
  match Nlp.solve ~method_:Nlp.Augmented_lagrangian (circle_problem ()) with
  | Nlp.Feasible s ->
    Alcotest.(check (float 2e-3)) "x" 0.5 s.Nlp.x.(0);
    Alcotest.(check (float 5e-3)) "objective" 0.5 s.Nlp.objective_value
  | Nlp.Infeasible _ -> Alcotest.fail "expected feasible"

let test_nlp_infeasible () =
  (* x <= -1 and x >= 1 cannot both hold. *)
  let p =
    Nlp.problem ~dim:1 ~objective:(fun x -> x.(0) *. x.(0))
      ~inequalities:
        [ ("le_minus1", fun x -> x.(0) +. 1.0); ("ge_1", fun x -> 1.0 -. x.(0)) ]
      ~lower:[| -10.0 |] ~upper:[| 10.0 |] ()
  in
  match Nlp.solve p with
  | Nlp.Feasible _ -> Alcotest.fail "expected infeasible"
  | Nlp.Infeasible s ->
    (* the least-violating point is x = 0 with violation 1 *)
    Alcotest.(check bool) "violation ~ 1" true
      (s.Nlp.max_violation > 0.5 && s.Nlp.max_violation < 1.5);
    Alcotest.(check bool) "violations named" true
      (List.length s.Nlp.violated >= 1)

let test_nlp_bounds_only () =
  (* unconstrained objective, box keeps solution inside *)
  let p =
    Nlp.problem ~dim:1
      ~objective:(fun x -> (x.(0) -. 7.0) ** 2.0)
      ~lower:[| 0.0 |] ~upper:[| 2.0 |] ()
  in
  (match Nlp.solve p with
   | Nlp.Feasible s -> Alcotest.(check (float 1e-3)) "clipped to 2" 2.0 s.Nlp.x.(0)
   | Nlp.Infeasible _ -> Alcotest.fail "expected feasible");
  Alcotest.check_raises "bad dims" (Invalid_argument "Nlp.problem: dim must be positive")
    (fun () -> ignore (Nlp.problem ~dim:0 ~objective:(fun _ -> 0.0) ()));
  Alcotest.check_raises "empty box"
    (Invalid_argument "Nlp.problem: empty box in dimension 0") (fun () ->
        ignore
          (Nlp.problem ~dim:1 ~objective:(fun _ -> 0.0) ~lower:[| 1.0 |]
             ~upper:[| 0.0 |] ()))

let test_nlp_starts_validated () =
  Alcotest.check_raises "starts = 0"
    (Invalid_argument "Nlp.solve: starts must be >= 1") (fun () ->
      ignore (Nlp.solve ~starts:0 (circle_problem ())));
  Alcotest.check_raises "negative starts"
    (Invalid_argument "Nlp.solve: starts must be >= 1") (fun () ->
      ignore (Nlp.solve ~starts:(-3) (circle_problem ())))

let test_nlp_partial_nan_guarded () =
  (* The objective is NaN on half the box; NaN candidates must lose the
     best-solution fold instead of poisoning it. *)
  let p =
    Nlp.problem ~dim:1
      ~objective:(fun x ->
        if x.(0) < 0.0 then Float.nan else (x.(0) -. 1.0) ** 2.0)
      ~lower:[| -5.0 |] ~upper:[| 5.0 |] ()
  in
  match Nlp.solve ~starts:8 p with
  | Nlp.Feasible s ->
    Alcotest.(check bool) "finite objective" true
      (Float.is_finite s.Nlp.objective_value);
    Alcotest.(check (float 5e-2)) "found the clean minimum" 1.0 s.Nlp.x.(0)
  | Nlp.Infeasible _ -> Alcotest.fail "expected feasible"

let test_nlp_all_nan_raises_transient () =
  let p =
    Nlp.problem ~dim:1 ~objective:(fun _ -> Float.nan) ~lower:[| 0.0 |]
      ~upper:[| 1.0 |] ()
  in
  match Nlp.solve p with
  | _ -> Alcotest.fail "expected solver non-convergence"
  | exception Tml_error.Error (Tml_error.Solver_nonconvergence _ as k) ->
    Alcotest.(check bool) "classified transient" true
      (Tml_error.severity k = Tml_error.Transient)

let test_nlp_fallback_ladder () =
  (* A well-behaved problem converges on the first rung... *)
  (match Nlp.solve_with_fallback (circle_problem ()) with
   | Nlp.Feasible s, rung ->
     Alcotest.(check string) "first rung wins" "augmented-lagrangian" rung;
     Alcotest.(check (float 2e-3)) "x" 0.5 s.Nlp.x.(0)
   | Nlp.Infeasible _, _ -> Alcotest.fail "expected feasible");
  (* ... an infeasible one walks the whole ladder and reports the least
     violation found. *)
  let p =
    Nlp.problem ~dim:1 ~objective:(fun x -> x.(0) *. x.(0))
      ~inequalities:
        [ ("le_minus1", fun x -> x.(0) +. 1.0); ("ge_1", fun x -> 1.0 -. x.(0)) ]
      ~lower:[| -10.0 |] ~upper:[| 10.0 |] ()
  in
  (match Nlp.solve_with_fallback p with
   | Nlp.Feasible _, _ -> Alcotest.fail "expected infeasible"
   | Nlp.Infeasible s, _ ->
     Alcotest.(check bool) "violation ~ 1" true
       (s.Nlp.max_violation > 0.5 && s.Nlp.max_violation < 1.5))

let test_nlp_determinism () =
  let solve () =
    match Nlp.solve ~seed:3 (circle_problem ()) with
    | Nlp.Feasible s -> s.Nlp.x
    | Nlp.Infeasible s -> s.Nlp.x
  in
  Alcotest.(check (array (float 0.0))) "same seed, same answer" (solve ()) (solve ())

(* property: on random convex QPs with one active linear constraint the KKT
   solution is recovered *)
let props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"random active linear constraint" ~count:25
         ~print:(fun (a, b) -> Printf.sprintf "a=%g b=%g" a b)
         QCheck2.Gen.(pair (float_range 0.5 2.0) (float_range 0.5 2.0))
         (fun (a, b) ->
            (* min ax² + by² s.t. x + y >= 1: optimum x* = b/(a+b). *)
            let p =
              Nlp.problem ~dim:2
                ~objective:(fun x -> (a *. x.(0) *. x.(0)) +. (b *. x.(1) *. x.(1)))
                ~inequalities:[ ("c", fun x -> 1.0 -. x.(0) -. x.(1)) ]
                ~lower:[| -4.0; -4.0 |] ~upper:[| 4.0; 4.0 |] ()
            in
            match Nlp.solve p with
            | Nlp.Feasible s ->
              let expected = b /. (a +. b) in
              Float.abs (s.Nlp.x.(0) -. expected) < 0.01
            | Nlp.Infeasible _ -> false));
  ]

let () =
  Alcotest.run "optimize"
    [ ( "nelder-mead",
        [ Alcotest.test_case "quadratic" `Quick test_nelder_mead_quadratic;
          Alcotest.test_case "rosenbrock" `Quick test_nelder_mead_rosenbrock;
        ] );
      ( "nlp",
        [ Alcotest.test_case "feasible (penalty)" `Quick test_nlp_feasible_penalty;
          Alcotest.test_case "feasible (auglag)" `Quick test_nlp_feasible_auglag;
          Alcotest.test_case "infeasible" `Quick test_nlp_infeasible;
          Alcotest.test_case "bounds only" `Quick test_nlp_bounds_only;
          Alcotest.test_case "determinism" `Quick test_nlp_determinism;
          Alcotest.test_case "starts validated" `Quick test_nlp_starts_validated;
          Alcotest.test_case "partial nan guarded" `Quick
            test_nlp_partial_nan_guarded;
          Alcotest.test_case "all-nan raises transient" `Quick
            test_nlp_all_nan_raises_transient;
          Alcotest.test_case "fallback ladder" `Quick test_nlp_fallback_ladder;
        ] );
      ("properties", props);
    ]
