(* Differential tests for the multicore symbolic kernel: the parallel
   elimination and the parallel NLP multistart must be byte-identical to
   their sequential reference paths (on the WSN grids n=2..4, the
   lane-change chain and seeded generated chains, where elimination is
   also checked against a per-edge reference solver, and on whole Model,
   Data and Reward Repairs whose
   concurrent starts share one compiled constraint or Bellman kernel),
   an injected worker crash mid-batch must be retried — not wedge the
   batch — and nested subtask submission must complete on a 1-worker
   pool. *)

(* ------------------------------ harness ------------------------------- *)

(* A raw pool + runner, NOT a Runtime: Runtime.create would also install
   the elimination memo, and a memo hit would hide a parallel/sequential
   divergence by serving both sides the same cached value. *)
let with_pool ~workers f =
  let pool = Pool.create ~workers () in
  Parallel.set_runner (Some (Pool.run_subtasks pool));
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_runner None;
      Pool.shutdown pool)
    (fun () -> f pool)

(* ------------------------------ fixtures ------------------------------ *)

let wsn_pm n =
  let params = { Wsn.default_params with Wsn.n } in
  Model_repair.parametric_model (Wsn.chain params) (Wsn.repair_spec params)

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
  Model_repair.parametric_model chain spec

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

(* Two runs of the same query: with no runner installed (the sequential
   schedule, one state per batch) and with a 2-worker pool runner (the
   batched schedule across pool domains).  They must render to the same
   string — byte-identical, not just numerically close — and add the same
   amount to the normalize-saved counter. *)
let check_elim_order name query (oname, order) =
  let seq, seq_saved = with_saved (fun () -> query order) in
  let pooled, pooled_saved =
    with_pool ~workers:2 (fun _ -> with_saved (fun () -> query order))
  in
  Alcotest.(check string)
    (Printf.sprintf "%s/%s pooled=no-runner" name oname)
    (Ratfun.to_string seq) (Ratfun.to_string pooled);
  Alcotest.(check int)
    (Printf.sprintf "%s/%s normalize-saved" name oname)
    seq_saved pooled_saved

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

(* For both queries and every order: pooled == no-runner byte for byte
   (result and normalize-saved tally), [Ratfun.equal] to the per-edge
   reference, and [Not_almost_sure] exactly when a reachable state has no
   path into the target. *)
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
  let seq = all () in
  let pooled = with_pool ~workers:2 (fun _ -> all ()) in
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
       expect (show f = show g) "%s/%s: no-runner %s, pooled %s" q oname (show f)
         (show g);
       expect (f_saved = g_saved) "%s/%s: normalize-saved %d vs %d" q oname
         f_saved g_saved;
       match (f, List.assoc q reference) with
       | Some f, Some r ->
         expect (Ratfun.equal f r) "%s/%s: differs from the reference" q oname
       | None, None -> ()
       | Some _, None -> expect false "%s/%s: no Not_almost_sure" q oname
       | None, Some _ -> expect false "%s/%s: spurious Not_almost_sure" q oname)
    runs (List.combine seq pooled);
  true

let test_elim_generated =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2018 |])
    (QCheck2.Test.make ~name:"generated chains" ~count:200
       ~print:print_chain_case gen_chain_case check_chain_case)

(* --------------------------- NLP differential ------------------------- *)

let feasible_problem () =
  Nlp.problem ~dim:2
    ~objective:(fun x ->
      ((x.(0) -. 0.3) *. (x.(0) -. 0.3)) +. ((x.(1) +. 0.2) *. (x.(1) +. 0.2)))
    ~inequalities:
      [ ("disc", fun x -> (x.(0) *. x.(0)) +. (x.(1) *. x.(1)) -. 1.0) ]
    ~lower:[| -1.0; -1.0 |] ~upper:[| 1.0; 1.0 |] ()

(* g > 0 everywhere in the box: every rung of the ladder stays
   infeasible, exercising the best-infeasible tie-breaking fold *)
let infeasible_problem () =
  Nlp.problem ~dim:2
    ~objective:(fun x -> x.(0) +. x.(1))
    ~inequalities:[ ("impossible", fun x -> x.(0) +. 10.0) ]
    ~lower:[| -1.0; -1.0 |] ~upper:[| 1.0; 1.0 |] ()

(* outcome records hold float arrays; polymorphic compare is exactly the
   byte-identity the contract promises (no NaNs reach the fold) *)
let check_outcome_identical name seq par =
  Alcotest.(check bool) name true (compare seq par = 0)

let test_multistart_identical () =
  let p = feasible_problem () in
  let solve () = Nlp.solve ~starts:8 ~seed:3 p in
  let reference = solve () in
  let pooled = with_pool ~workers:2 (fun _ -> solve ()) in
  check_outcome_identical "multistart pooled=sequential" reference pooled

let test_fallback_identical () =
  List.iter
    (fun (name, p) ->
       let solve () = Nlp.solve_with_fallback ~starts:4 ~seed:7 p in
       let reference = solve () in
       let pooled = with_pool ~workers:2 (fun _ -> solve ()) in
       check_outcome_identical
         (Printf.sprintf "fallback %s pooled=sequential" name)
         reference pooled)
    [ ("feasible", feasible_problem ()); ("infeasible", infeasible_problem ()) ]

(* Arena-backed problems: every start and every speculative rung of one
   solve evaluates the same compiled constraint.  A scratch buffer shared
   between domains shows up as a different outcome (a penalty-rung
   answer, an unverified repair, a spurious Infeasible), so each check
   repeats the pooled solve [repeats] times to give the interleaving a
   chance to bite: cheap solves get more repeats. *)
let check_pooled_identical ~repeats name solve =
  let reference = solve () in
  with_pool ~workers:2 (fun _ ->
      for i = 1 to repeats do
        check_outcome_identical
          (Printf.sprintf "%s pooled=sequential (run %d)" name i)
          reference (solve ())
      done)

let test_model_repair_identical () =
  let p = Wsn.default_params in
  List.iter
    (fun fallback ->
       check_pooled_identical ~repeats:10
         (Printf.sprintf "wsn n=3 model repair fallback=%b" fallback)
         (fun () ->
            Model_repair.repair ~starts:4 ~fallback (Wsn.chain p)
              (Wsn.property 40) (Wsn.repair_spec p)))
    [ false; true ]

let test_data_repair_identical () =
  let p = Wsn.default_params in
  let groups = Wsn.observation_groups (Prng.create 42) p ~count:600 in
  let rewards = Array.init 9 (fun s -> if s = 0 then Ratio.zero else Ratio.one) in
  let sp = Data_repair.spec ~pinned:[ "success" ] groups in
  check_pooled_identical ~repeats:40 "wsn data repair" (fun () ->
      Data_repair.repair ~n:9 ~init:8
        ~labels:[ ("delivered", [ 0 ]) ]
        ~rewards ~starts:4 (Wsn.property 19) sp)

let test_reward_repair_identical () =
  let m = Car.mdp () in
  check_pooled_identical ~repeats:4 "car reward repair" (fun () ->
      Reward_repair.repair_q ~gamma:0.9 ~starts:4 m
        ~theta:Car.paper_learned_theta
        ~constraints:[ Car.unsafe_q_constraint ])

(* ------------------------------- chaos -------------------------------- *)

(* A [Fault.Subtask] raise kills the first pool worker that probes the
   batch.  The batch must still complete (caller-drain), every task must
   run exactly once, and the pool must respawn the dead worker. *)
let test_subtask_crash_retried () =
  with_pool ~workers:2 (fun pool ->
      Fault.install
        (Some (Fault.plan [ Fault.spec Fault.Subtask Fault.Raise ]));
      Fun.protect ~finally:(fun () -> Fault.install None) (fun () ->
          let n = 16 in
          let hits = Array.make n 0 in
          let deadline = Unix.gettimeofday () +. 10.0 in
          let tasks =
            Array.init n (fun i () ->
                (* the first claimed task spins until the injected crash
                   has fired, so a pool worker reliably reaches the probe
                   before the batch is drained out from under it *)
                if i = 0 then
                  while
                    Fault.fired_at Fault.Subtask = 0
                    && Unix.gettimeofday () < deadline
                  do
                    Domain.cpu_relax ()
                  done;
                hits.(i) <- hits.(i) + 1)
          in
          Pool.run_subtasks pool tasks;
          Alcotest.(check int) "crash fired once" 1
            (Fault.fired_at Fault.Subtask);
          Array.iteri
            (fun i h ->
               Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1 h)
            hits;
          let rec await_respawn tries =
            if Pool.respawns pool >= 1 || tries = 0 then ()
            else begin
              Unix.sleepf 0.01;
              await_respawn (tries - 1)
            end
          in
          await_respawn 500;
          Alcotest.(check bool) "worker respawned" true
            (Pool.respawns pool >= 1));
      (* capacity restored: the pool still drains batches afterwards *)
      let c = Atomic.make 0 in
      Pool.run_subtasks pool (Array.init 8 (fun _ () -> Atomic.incr c));
      Alcotest.(check int) "post-crash batch completes" 8 (Atomic.get c))

(* ------------------------------- pool --------------------------------- *)

(* A job running ON the single worker fans out nested batches; the
   caller-drain design means the worker drains its own submissions, so
   this must complete rather than deadlock. *)
let test_nested_submit_one_worker () =
  with_pool ~workers:1 (fun pool ->
      let fut =
        Pool.submit pool (fun () ->
            Parallel.map_array
              (fun i ->
                 Array.fold_left ( + ) 0
                   (Parallel.map_array (fun j -> (10 * i) + j) [| 0; 1; 2 |]))
              [| 1; 2; 3; 4 |])
      in
      match Future.await ~timeout_s:30.0 fut with
      | Future.Value v ->
        Alcotest.(check (array int)) "nested fan-out result"
          [| 33; 63; 93; 123 |] v
      | _ -> Alcotest.fail "nested submit did not complete on 1 worker")

let test_lowest_index_exception () =
  let module E = struct
    exception Boom of int
  end in
  with_pool ~workers:2 (fun _ ->
      match
        Parallel.run
          (Array.init 8 (fun i () -> if i = 2 || i = 5 then raise (E.Boom i)))
      with
      | () -> Alcotest.fail "batch with failing tasks returned"
      | exception E.Boom i ->
        Alcotest.(check int) "lowest-indexed exception wins" 2 i)

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
      ( "chaos",
        [ Alcotest.test_case "subtask crash retried" `Quick
            test_subtask_crash_retried;
        ] );
      ( "pool",
        [ Alcotest.test_case "nested submit, 1 worker" `Quick
            test_nested_submit_one_worker;
          Alcotest.test_case "lowest-index exception" `Quick
            test_lowest_index_exception;
        ] );
    ]
