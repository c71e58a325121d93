(* Differential tests for the symbolic kernel under concurrent jobs:
   elimination run on pool worker domains, two queries at once, must be
   byte-identical to the same elimination run directly (on the WSN grids
   n=2..4, the lane-change chain and seeded generated chains, where
   elimination is also checked against a per-edge reference solver), and
   whole Model, Data and Reward Repairs must give the same outcome run as
   jobs through a 2-worker runtime as called directly. *)

(* ------------------------------ harness ------------------------------- *)

(* [f] run as [copies] tasks submitted at once to a 2-worker pool, so the
   copies run concurrently on two domains and share the kernel's cons
   cache and symbol table.  A raw pool, NOT a Runtime: Runtime.create
   would also install the elimination memo, and a memo hit would hide a
   divergence by serving both sides the same cached value. *)
let on_pool ?(copies = 2) f =
  let pool = Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       List.init copies (fun _ -> Pool.submit pool f)
       |> List.map (fun fut ->
           match Future.await ~timeout_s:120.0 fut with
           | Future.Value v -> v
           | Future.Failed e -> raise e
           | _ -> Alcotest.fail "pooled run did not complete"))

(* ------------------------------ fixtures ------------------------------ *)

let wsn_pm n =
  let params = { Wsn.default_params with Wsn.n } in
  Model_repair.parametric_model (Pdtmc.of_dtmc (Wsn.chain params))
    (Wsn.repair_spec params)

(* The paper's lane-change introduction example (as in test_region.ml):
   repair variable f moves freeze mass back to the lane change. *)
let car_pm () =
  let chain =
    Dtmc.make ~n:6 ~init:0
      ~transitions:
        [ (0, 1, 0.57); (0, 2, 0.38); (0, 5, 0.05);
          (1, 3, 0.95); (1, 2, 0.05);
          (2, 4, 1.0); (3, 3, 1.0); (4, 4, 1.0); (5, 5, 1.0);
        ]
      ~labels:
        [ ("changedLane", [ 3 ]); ("reducedSpeed", [ 4 ]); ("frozen", [ 5 ]) ]
      ()
  in
  let spec =
    {
      Model_repair.variables = [ ("f", 0.0, 0.05) ];
      deltas = [ (0, 5, Ratfun.neg (Ratfun.var "f")); (0, 1, Ratfun.var "f") ];
    }
  in
  Model_repair.parametric_model (Pdtmc.of_dtmc chain) spec

let orders =
  [ ("min-degree", Elimination.Min_degree);
    ("ascending", Elimination.Ascending);
    ("descending", Elimination.Descending);
  ]

(* ----------------------- elimination differential --------------------- *)

let normalize_saved = Metrics.counter "tml_elim_normalize_saved_total"

(* [f ()] and the amount it adds to the normalize-saved counter *)
let with_saved f =
  let before = Metrics.counter_value normalize_saved in
  let v = f () in
  (v, Metrics.counter_value normalize_saved - before)

(* The same query run directly and as two concurrent copies on a 2-worker
   pool.  Every copy must render to the same string as the direct run —
   byte-identical, not just numerically close — and the copies together
   must add twice the direct run's amount to the normalize-saved
   counter. *)
let check_elim_order name query (oname, order) =
  let direct, direct_saved = with_saved (fun () -> query order) in
  let pooled, pooled_saved = with_saved (fun () -> on_pool (fun () -> query order)) in
  List.iter
    (fun f ->
       Alcotest.(check string)
         (Printf.sprintf "%s/%s pooled=direct" name oname)
         (Ratfun.to_string direct) (Ratfun.to_string f))
    pooled;
  Alcotest.(check int)
    (Printf.sprintf "%s/%s normalize-saved" name oname)
    (2 * direct_saved) pooled_saved

let check_elim_identical name query =
  List.iter (check_elim_order name query) orders

let test_elim_wsn_reachability () =
  List.iter
    (fun n ->
       let pm = wsn_pm n in
       check_elim_identical
         (Printf.sprintf "wsn n=%d reach" n)
         (fun order ->
            Elimination.reachability_probability ~order pm ~target:[ 0 ]))
    [ 2; 3 ]

(* n=4 is ~200 ms per elimination, so one order covers it without
   dominating the suite's runtime *)
let test_elim_wsn_n4 () =
  let pm = wsn_pm 4 in
  check_elim_order "wsn n=4 reach"
    (fun order -> Elimination.reachability_probability ~order pm ~target:[ 0 ])
    ("min-degree", Elimination.Min_degree)

let test_elim_wsn_reward () =
  List.iter
    (fun n ->
       let pm = wsn_pm n in
       check_elim_identical
         (Printf.sprintf "wsn n=%d reward" n)
         (fun order -> Elimination.expected_reward ~order pm ~target:[ 0 ]))
    [ 2; 3 ]

let test_elim_lane_change () =
  let pm = car_pm () in
  check_elim_identical "lane-change reach" (fun order ->
      Elimination.reachability_probability ~order pm ~target:[ 3; 4 ])

(* ---------------------- generated-chain differential ------------------- *)

type chain_case = { chain : Pdtmc.t; target : int list }

(* Small parametric chains over one or two parameters.  Every row is an
   absorbing trap, a p / 1−p split, a constant c / 1−c split or a
   three-way constant split, over distinct destinations that may include
   the state itself; rewards are small integers. *)
let gen_chain_case =
  let open QCheck2.Gen in
  let* n = int_range 3 12 in
  let* params = oneofl [ [ "p" ]; [ "p"; "q" ] ] in
  let const den = map (fun k -> Ratio.of_ints k den) (int_range 1 7) in
  let row s =
    let* d1 = int_range 0 (n - 1) in
    let* k2 = int_range 1 (n - 1) in
    let* k3 = int_range 1 (n - 2) in
    let d2 = (d1 + k2) mod n in
    let d3 = (d1 + if k3 >= k2 then k3 + 1 else k3) mod n in
    let split d d' f = return [ (s, d, f); (s, d', Ratfun.sub Ratfun.one f) ] in
    frequency
      [ (1, return [ (s, s, Ratfun.one) ]);
        (3, oneofl params >>= fun x -> split d1 d2 (Ratfun.var x));
        (2, const 8 >>= fun c -> split d1 d2 (Ratfun.const c));
        ( 1,
          pair (const 16) (const 16) >>= fun (a, b) ->
          return
            [ (s, d1, Ratfun.const a); (s, d2, Ratfun.const b);
              (s, d3, Ratfun.const (Ratio.sub Ratio.one (Ratio.add a b))) ] );
      ]
  in
  let* rows = flatten_l (List.init n row) in
  let* rewards = array_size (return n) (int_range 0 3) in
  let* target = list_size (int_range 1 2) (int_range 1 (n - 1)) in
  return
    { chain =
        Pdtmc.make ~n ~init:0 ~transitions:(List.concat rows)
          ~rewards:(Array.map Ratfun.of_int rewards) ();
      target = List.sort_uniq compare target }

let print_chain_case { chain; target } =
  Format.asprintf "%a@.target = [%s]" Pdtmc.pp chain
    (String.concat "; " (List.map string_of_int target))

let expect cond fmt =
  Format.kasprintf (fun msg -> if not cond then QCheck2.Test.fail_report msg) fmt

(* For both queries and every order: a pooled run == the direct run byte
   for byte (result and normalize-saved tally), [Ratfun.equal] to the
   per-edge reference, and [Not_almost_sure] exactly when a reachable
   state has no path into the target. *)
let check_chain_case { chain; target } =
  let runs =
    List.concat_map
      (fun (oname, order) ->
         [ ( "reach", oname,
             fun () -> Some (Elimination.reachability_probability ~order chain ~target) );
           ( "reward", oname,
             fun () ->
               match Elimination.expected_reward ~order chain ~target with
               | f -> Some f
               | exception Elimination.Not_almost_sure _ -> None );
         ])
      orders
  in
  let all () = List.map (fun (_, _, query) -> with_saved query) runs in
  let direct = all () in
  let pooled = List.hd (on_pool ~copies:1 all) in
  let reference =
    [ ("reach", Some (Elim_reference.reachability_probability chain ~target));
      ( "reward",
        if Elim_reference.almost_sure chain ~target then
          Some (Elim_reference.expected_reward chain ~target)
        else None );
    ]
  in
  let show = Option.fold ~none:"Not_almost_sure" ~some:Ratfun.to_string in
  List.iter2
    (fun (q, oname, _) ((f, f_saved), (g, g_saved)) ->
       expect (show f = show g) "%s/%s: direct %s, pooled %s" q oname (show f)
         (show g);
       expect (f_saved = g_saved) "%s/%s: normalize-saved %d vs %d" q oname
         f_saved g_saved;
       match (f, List.assoc q reference) with
       | Some f, Some r ->
         expect (Ratfun.equal f r) "%s/%s: differs from the reference" q oname
       | None, None -> ()
       | Some _, None -> expect false "%s/%s: no Not_almost_sure" q oname
       | None, Some _ -> expect false "%s/%s: spurious Not_almost_sure" q oname)
    runs (List.combine direct pooled);
  true

let test_elim_generated =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2018 |])
    (QCheck2.Test.make ~name:"generated chains" ~count:200
       ~print:print_chain_case gen_chain_case check_chain_case)

(* --------------------------- NLP differential ------------------------- *)

(* outcome records hold float arrays; polymorphic compare is exactly the
   byte-identity the contract promises (no NaNs reach the fold) *)
let check_outcome_identical name seq par =
  Alcotest.(check bool) name true (compare seq par = 0)

(* A job run through a 2-worker runtime, as a server runs it — on a pool
   domain, with the elimination cache installed — against the direct call on this domain with neither.  The
   runtime keeps no reports, so every repeat really runs on the pool. *)
let check_served_identical ~repeats name job =
  let reference = Job.run job in
  Runtime.with_runtime ~workers:2 (fun rt ->
      for i = 1 to repeats do
        match Runtime.run_batch rt [ job ] with
        | [ Future.Value o ] ->
          check_outcome_identical
            (Printf.sprintf "%s served=direct (run %d)" name i)
            reference o
        | _ -> Alcotest.failf "%s: served run %d did not complete" name i
      done)

let wsn_data_job () =
  let p = Wsn.default_params in
  let groups = Wsn.observation_groups (Prng.create 42) p ~count:600 in
  Job.Data_repair
    { n = 9; init = 8; labels = [ ("delivered", [ 0 ]) ];
      rewards = Some (Array.init 9 (fun s -> if s = 0 then Ratio.zero else Ratio.one));
      phi = Wsn.property 19;
      spec = Data_repair.spec ~pinned:[ "success" ] (Tally.of_groups groups);
      starts = 4; backend = Repair_backend.Nlp_solver }

(* Data Repair's NLP is a plain multistart ([Nlp.solve ~starts]). *)
let test_multistart_identical () =
  check_served_identical ~repeats:3 "wsn data repair job" (wsn_data_job ())

(* Model Repair jobs climb the fallback ladder: X = 40 stops at the first
   feasible rung, X = 19 is infeasible on every rung. *)
let test_fallback_identical () =
  let p = Wsn.default_params in
  List.iter
    (fun bound ->
       check_served_identical ~repeats:3
         (Printf.sprintf "wsn model repair job X=%d" bound)
         (Job.Model_repair
            { model = Wsn.chain p; phi = Wsn.property bound;
              spec = Wsn.repair_spec p; starts = 4;
              backend = Repair_backend.Nlp_solver }))
    [ 40; 19 ]

(* Arena-backed problems: every start and rung evaluates the compiled
   constraint of the repair's eliminated chain.  A race in the kernel
   state concurrent jobs share (cons cache, symbol table, arena scratch)
   shows up as a different outcome (a penalty-rung answer, an unverified
   repair, a spurious Infeasible), so each check runs [repeats] copies of
   the solve at once on a 2-worker pool to give the interleaving a chance
   to bite: cheap solves get more repeats. *)
let check_pooled_identical ~repeats name solve =
  let reference = solve () in
  List.iteri
    (fun i o ->
       check_outcome_identical
         (Printf.sprintf "%s pooled=direct (run %d)" name (i + 1))
         reference o)
    (on_pool ~copies:repeats solve)

let test_model_repair_identical () =
  let p = Wsn.default_params in
  List.iter
    (fun fallback ->
       check_pooled_identical ~repeats:10
         (Printf.sprintf "wsn n=3 model repair fallback=%b" fallback)
         (fun () ->
            Model_repair.repair ~starts:4 ~fallback
              ~base:(Pdtmc.of_dtmc (Wsn.chain p)) (Wsn.chain p)
              (Wsn.property 40) (Wsn.repair_spec p)))
    [ false; true ]

let test_data_repair_identical () =
  let p = Wsn.default_params in
  let groups = Wsn.observation_groups (Prng.create 42) p ~count:600 in
  let rewards = Array.init 9 (fun s -> if s = 0 then Ratio.zero else Ratio.one) in
  let sp = Data_repair.spec ~pinned:[ "success" ] (Tally.of_groups groups) in
  check_pooled_identical ~repeats:40 "wsn data repair" (fun () ->
      Data_repair.repair ~n:9 ~init:8
        ~labels:[ ("delivered", [ 0 ]) ]
        ~rewards ~starts:4 (Wsn.property 19) sp)

let test_reward_repair_identical () =
  check_served_identical ~repeats:2 "car reward repair job"
    (Job.Reward_repair
       { mdp = Car.mdp (); theta = Car.paper_learned_theta;
         constraints = [ Car.unsafe_q_constraint ]; gamma = 0.9 })

let () =
  Alcotest.run "parallel"
    [ ( "elimination differential",
        [ Alcotest.test_case "wsn n=2..3 reachability" `Quick
            test_elim_wsn_reachability;
          Alcotest.test_case "wsn n=4 reachability" `Quick test_elim_wsn_n4;
          Alcotest.test_case "wsn n=2..3 expected reward" `Quick
            test_elim_wsn_reward;
          Alcotest.test_case "lane-change reachability" `Quick
            test_elim_lane_change;
          test_elim_generated;
        ] );
      ( "nlp differential",
        [ Alcotest.test_case "multistart" `Quick test_multistart_identical;
          Alcotest.test_case "fallback ladder" `Quick test_fallback_identical;
          Alcotest.test_case "wsn model repair" `Quick test_model_repair_identical;
          Alcotest.test_case "wsn data repair" `Quick test_data_repair_identical;
          Alcotest.test_case "car reward repair" `Quick
            test_reward_repair_identical;
        ] );
    ]
