(* Tests for the region backend (lib/region): interval soundness edge
   cases, the Empty_feasible_box error contract, and the differential
   suite — grid-sampled Accept/Reject verdicts cross-checked against the
   exact model checker on both paper case studies, plus region-vs-NLP
   repair cost comparisons. *)

let half = Ratio.of_float 0.5

(* ----------------------- interval edge cases ------------------------- *)

let test_zero_width_box () =
  (* a point box must produce (near-)exact bounds: f = x² + y *)
  let f =
    Ratfun.add (Ratfun.mul (Ratfun.var "x") (Ratfun.var "x")) (Ratfun.var "y")
  in
  let b = Bounder.compile ~vars:[ "x"; "y" ] f in
  let box = Box.make [ ("x", 0.5, 0.5); ("y", 0.25, 0.25) ] in
  let iv = Bounder.bounds b box in
  Alcotest.(check (float 1e-12)) "lo" 0.5 iv.Interval.lo;
  Alcotest.(check (float 1e-12)) "hi" 0.5 iv.Interval.hi;
  Alcotest.(check bool) "point box" true (Box.is_point box);
  Alcotest.(check (float 0.0)) "volume of a point box" 1.0 (Box.volume box)

let test_pole_in_box () =
  (* 1/(x - 1/2) has a pole inside [0,1]: bounds must widen to infinity
     (not raise, not return a finite lie) and classification must land in
     Unknown — never a false Accept/Reject. *)
  let f =
    Ratfun.div Ratfun.one (Ratfun.sub (Ratfun.var "x") (Ratfun.const half))
  in
  let b = Bounder.compile ~vars:[ "x" ] f in
  let box = Box.make [ ("x", 0.0, 1.0) ] in
  let iv = Bounder.bounds b box in
  Alcotest.(check bool) "infinite bounds" false (Interval.is_finite iv);
  let c = Region_verify.constr ~name:"pole" ~vars:[ "x" ] Pctl.Le 11.0 f in
  (match Region_verify.classify [ c ] box with
   | Region_verify.Unknown -> ()
   | v ->
     Alcotest.failf "pole box classified %s, want unknown"
       (Region_verify.verdict_to_string v));
  (* away from the pole the same constraint is decidable *)
  (match Region_verify.classify [ c ] (Box.make [ ("x", 0.6, 1.0) ]) with
   | Region_verify.Accept -> ()
   | v ->
     Alcotest.failf "pole-free box classified %s, want accept"
       (Region_verify.verdict_to_string v))

let test_cancelled_factor () =
  (* (x - 1/2)² / (x - 1/2): the univariate GCD in Ratfun's normal form
     cancels the shared factor, so the straddling "denominator" is gone
     by the time the bounder sees it — bounds stay finite. *)
  let g = Ratfun.sub (Ratfun.var "x") (Ratfun.const half) in
  let f = Ratfun.div (Ratfun.mul g g) g in
  Alcotest.(check bool) "factor cancelled" true (Ratfun.equal f g);
  let b = Bounder.compile ~vars:[ "x" ] f in
  let iv = Bounder.bounds b (Box.make [ ("x", 0.0, 1.0) ]) in
  Alcotest.(check bool) "finite" true (Interval.is_finite iv);
  Alcotest.(check (float 1e-12)) "lo" (-0.5) iv.Interval.lo;
  Alcotest.(check (float 1e-12)) "hi" 0.5 iv.Interval.hi

let test_empty_accept_set () =
  (* x ≥ 2 has no solution in [0,1]: minimize must raise the typed
     permanent error, not loop or return junk. *)
  let c =
    Region_verify.constr ~name:"impossible" ~vars:[ "x" ] Pctl.Ge 2.0
      (Ratfun.var "x")
  in
  let box = Box.make [ ("x", 0.0, 1.0) ] in
  match Region_repair.minimize ~constraints:[ c ] box with
  | _ -> Alcotest.fail "empty accept set must raise"
  | exception (Tml_error.Error (Tml_error.Empty_feasible_box _) as e) ->
    (match Tml_error.classify e with
     | Tml_error.Permanent -> ()
     | Tml_error.Transient -> Alcotest.fail "Empty_feasible_box must be permanent")

(* ----------------------- differential: WSN --------------------------- *)

(* Grid-sample the root box and require every sampled point that falls in
   an Accept region to satisfy phi under the exact checker, and every
   Reject-region point to violate it.  Returns (accepts, rejects) seen. *)
let differential_check analysis pmodel phi var_names points =
  let accepts = ref 0 and rejects = ref 0 in
  List.iter
    (fun x ->
       match Region_verify.find_region analysis x with
       | None -> Alcotest.fail "sample point not covered by any region"
       | Some r ->
         let verify () =
           let env v =
             let i =
               match List.find_index (String.equal v) var_names with
               | Some i -> i
               | None -> Alcotest.failf "unknown variable %s" v
             in
             Ratio.of_float x.(i)
           in
           let d = Pdtmc.instantiate pmodel env in
           (Check_dtmc.check_verbose d phi).Check_dtmc.holds
         in
         (match r.Region_verify.verdict with
          | Region_verify.Accept ->
            incr accepts;
            Alcotest.(check bool) "accept point satisfies phi" true (verify ())
          | Region_verify.Reject ->
            incr rejects;
            Alcotest.(check bool) "reject point violates phi" false (verify ())
          | Region_verify.Unknown -> ()))
    points;
  (!accepts, !rejects)

let grid2d (lo0, hi0) (lo1, hi1) steps =
  List.concat
    (List.init (steps + 1) (fun i ->
         List.init (steps + 1) (fun j ->
             [|
               lo0 +. ((hi0 -. lo0) *. float_of_int i /. float_of_int steps);
               lo1 +. ((hi1 -. lo1) *. float_of_int j /. float_of_int steps);
             |])))

let test_wsn_differential () =
  let params = { Wsn.default_params with Wsn.n = 2 } in
  let chain = Wsn.chain params in
  (* E[attempts] falls from ~19.05 at the origin to ~9.76 at p = 0.1, so
     the bound 16 splits the correction box into fat reject (small p) and
     accept (large p) slabs — both verdicts get sampled *)
  let phi = Wsn.property 16 in
  let spec = Wsn.repair_spec params in
  let var_names = List.map (fun (n, _, _) -> n) spec.Model_repair.variables in
  let pmodel = Model_repair.parametric_model (Pdtmc.of_dtmc chain) spec in
  let query = Pquery.of_formula pmodel phi in
  let c = Region_verify.of_query ~vars:var_names query in
  let box = Box.make spec.Model_repair.variables in
  let analysis = Region_verify.analyze [ c ] box in
  let cert = analysis.Region_verify.certificate in
  Alcotest.(check bool) "coverage >= 0.95" true
    (cert.Region_verify.decided_fraction >= 0.95);
  (* 11 × 11 = 121 sample points over the (p, q) correction box *)
  let points =
    grid2d (Box.lo box 0, Box.hi box 0) (Box.lo box 1, Box.hi box 1) 10
  in
  let accepts, rejects = differential_check analysis pmodel phi var_names points in
  Alcotest.(check bool) "saw accept points" true (accepts > 0);
  Alcotest.(check bool) "saw reject points" true (rejects > 0)

let test_wsn_repair_vs_nlp () =
  let params = { Wsn.default_params with Wsn.n = 2 } in
  let chain = Wsn.chain params in
  let phi = Wsn.property 19 in
  let spec = Wsn.repair_spec params in
  let gap = 0.05 in
  let region =
    match Model_repair.repair ~backend:Repair_backend.Region ~gap
      ~base:(Pdtmc.of_dtmc chain) chain phi spec with
    | Model_repair.Repaired r -> r
    | _ -> Alcotest.fail "region backend must repair WSN n=2"
  in
  let nlp =
    match Model_repair.repair ~base:(Pdtmc.of_dtmc chain) chain phi spec with
    | Model_repair.Repaired r -> r
    | _ -> Alcotest.fail "NLP backend must repair WSN n=2"
  in
  Alcotest.(check bool) "region repair verified" true region.Model_repair.verified;
  let cert =
    match region.Model_repair.certificate with
    | Some c -> c
    | None -> Alcotest.fail "region repair must carry a certificate"
  in
  Alcotest.(check bool) "certified gap <= 5%" true
    (cert.Region_repair.optimality_gap <= gap +. 1e-12);
  Alcotest.(check bool) "decided volume >= 95%" true
    (cert.Region_repair.decided_fraction >= 0.95);
  (* global-optimality differential: the region cost may exceed the NLP's
     local optimum only within the certified gap, and the certified lower
     bound must not exceed any feasible cost the NLP found *)
  Alcotest.(check bool) "region cost within gap of NLP" true
    (region.Model_repair.cost
     <= (nlp.Model_repair.cost *. (1.0 +. gap)) +. 1e-9);
  Alcotest.(check bool) "lower bound below NLP cost" true
    (cert.Region_repair.cost_lower_bound <= nlp.Model_repair.cost +. 1e-9)

(* ------------------- differential: lane change ----------------------- *)

(* The paper's introduction example (examples/lane_change.ml), with the
   learned controller chain fixed for determinism: 5% of detections freeze
   the controller, so P > 0.99 [ F changedLane | reducedSpeed ] fails;
   the repair variable f moves freeze mass back to the lane change. *)
let car_chain () =
  Dtmc.make ~n:6 ~init:0
    ~transitions:
      [ (0, 1, 0.57); (0, 2, 0.38); (0, 5, 0.05);
        (1, 3, 0.95); (1, 2, 0.05);
        (2, 4, 1.0); (3, 3, 1.0); (4, 4, 1.0); (5, 5, 1.0);
      ]
    ~labels:[ ("changedLane", [ 3 ]); ("reducedSpeed", [ 4 ]); ("frozen", [ 5 ]) ]
    ()

let car_property = Pctl_parser.parse "P>0.99 [ F changedLane | reducedSpeed ]"

let car_spec =
  {
    Model_repair.variables = [ ("f", 0.0, 0.05) ];
    deltas = [ (0, 5, Ratfun.neg (Ratfun.var "f")); (0, 1, Ratfun.var "f") ];
  }

let test_car_differential () =
  let chain = car_chain () in
  let pmodel = Model_repair.parametric_model (Pdtmc.of_dtmc chain) car_spec in
  let query = Pquery.of_formula pmodel car_property in
  let c = Region_verify.of_query ~vars:[ "f" ] query in
  let box = Box.make car_spec.Model_repair.variables in
  let analysis = Region_verify.analyze [ c ] box in
  Alcotest.(check bool) "coverage >= 0.95" true
    (analysis.Region_verify.certificate.Region_verify.decided_fraction >= 0.95);
  (* 101 sample points along the f axis; reachability is 0.95 + f, so the
     true accept set is f > 0.04 — both verdicts must appear *)
  let points = List.init 101 (fun i -> [| 0.05 *. float_of_int i /. 100.0 |]) in
  let accepts, rejects =
    differential_check analysis pmodel car_property [ "f" ] points
  in
  Alcotest.(check bool) "saw accept points" true (accepts > 0);
  Alcotest.(check bool) "saw reject points" true (rejects > 0)

let test_car_repair_vs_nlp () =
  let chain = car_chain () in
  let gap = 0.05 in
  let region =
    match
      Model_repair.repair ~backend:Repair_backend.Region ~gap
        ~base:(Pdtmc.of_dtmc chain) chain
        car_property car_spec
    with
    | Model_repair.Repaired r -> r
    | _ -> Alcotest.fail "region backend must repair the car chain"
  in
  let nlp =
    match Model_repair.repair ~base:(Pdtmc.of_dtmc chain) chain car_property
      car_spec with
    | Model_repair.Repaired r -> r
    | _ -> Alcotest.fail "NLP backend must repair the car chain"
  in
  Alcotest.(check bool) "verified" true region.Model_repair.verified;
  Alcotest.(check string) "solver rung" "region-bnb" region.Model_repair.solver_rung;
  (* the true optimum is f ≈ 0.04 (cost 1.6e-3); both backends must land
     within the certified gap of each other *)
  Alcotest.(check bool) "region cost within gap of NLP" true
    (region.Model_repair.cost
     <= (nlp.Model_repair.cost *. (1.0 +. gap)) +. 1e-9);
  (match region.Model_repair.certificate with
   | Some cert ->
     Alcotest.(check bool) "lower bound below NLP cost" true
       (cert.Region_repair.cost_lower_bound <= nlp.Model_repair.cost +. 1e-9)
   | None -> Alcotest.fail "missing certificate")

(* ----------------------------- backend ------------------------------- *)

let test_backend_slugs () =
  List.iter
    (fun (slug, b) ->
       Alcotest.(check string) "to_string" slug (Repair_backend.to_string b);
       match Repair_backend.of_string slug with
       | Ok b' -> Alcotest.(check bool) "roundtrip" true (b = b')
       | Error e -> Alcotest.fail e)
    Repair_backend.all;
  match Repair_backend.of_string "simplex" with
  | Ok _ -> Alcotest.fail "unknown slug must be rejected"
  | Error _ -> ()

let test_smc_prefilter_backend () =
  (* the SMC pre-filter path must agree with the plain NLP path on the
     lane-change repair (it only short-circuits the initial check) *)
  let chain = car_chain () in
  let nlp = Model_repair.repair ~base:(Pdtmc.of_dtmc chain) chain car_property
    car_spec in
  let pre =
    Model_repair.repair ~backend:Repair_backend.Smc_prefilter
      ~base:(Pdtmc.of_dtmc chain) chain
      car_property car_spec
  in
  match (nlp, pre) with
  | Model_repair.Repaired a, Model_repair.Repaired b ->
    Alcotest.(check (float 1e-9)) "same cost" a.Model_repair.cost
      b.Model_repair.cost
  | _ -> Alcotest.fail "both backends must repair"

let () =
  Alcotest.run "region"
    [
      ( "intervals",
        [
          Alcotest.test_case "zero-width box" `Quick test_zero_width_box;
          Alcotest.test_case "pole in box" `Quick test_pole_in_box;
          Alcotest.test_case "cancelled factor" `Quick test_cancelled_factor;
        ] );
      ( "repair",
        [
          Alcotest.test_case "empty accept set" `Quick test_empty_accept_set;
          Alcotest.test_case "wsn region vs nlp" `Quick test_wsn_repair_vs_nlp;
          Alcotest.test_case "car region vs nlp" `Quick test_car_repair_vs_nlp;
        ] );
      ( "differential",
        [
          Alcotest.test_case "wsn verdict soundness" `Quick test_wsn_differential;
          Alcotest.test_case "car verdict soundness" `Quick test_car_differential;
        ] );
      ( "backend",
        [
          Alcotest.test_case "slugs" `Quick test_backend_slugs;
          Alcotest.test_case "smc prefilter" `Quick test_smc_prefilter_backend;
        ] );
    ]
