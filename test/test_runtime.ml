(* Tests for the concurrent repair-job runtime: the worker pool, futures,
   the memoizing caches and the Runtime facade.  Repair jobs reuse the
   small branch DTMC of test_core.ml so the suite stays fast. *)

let parse = Pctl_parser.parse

(* 0 -> goal(1) 0.3 | fail(2) 0.7, absorbing. *)
let branch () =
  Dtmc.make ~n:3 ~init:0
    ~transitions:[ (0, 1, 0.3); (0, 2, 0.7); (1, 1, 1.0); (2, 2, 1.0) ]
    ~labels:[ ("goal", [ 1 ]); ("fail", [ 2 ]) ]
    ()

let branch_spec () =
  {
    Model_repair.variables = [ ("v", 0.0, 0.5) ];
    deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
  }

(* Model-repair jobs against a sweep of probability bounds; all share the
   branch model, so they also share one parametric elimination. *)
let repair_jobs bounds =
  let model = branch () in
  let spec = branch_spec () in
  List.map
    (fun b ->
       Job.Model_repair
         {
           model;
           phi = parse (Printf.sprintf "P>=%g [ F goal ]" b);
           spec;
           starts = 2;
           backend = Repair_backend.Nlp_solver;
         })
    bounds

let bounds = [ 0.5; 0.25; 0.45; 0.5; 0.35; 0.6; 0.4; 0.55 ]
let render o = Format.asprintf "%a" Job.pp_outcome o

let value = function
  | Future.Value v -> v
  | Future.Failed e -> Alcotest.failf "job failed: %s" (Printexc.to_string e)
  | Future.Cancelled -> Alcotest.fail "job cancelled"
  | Future.Timed_out -> Alcotest.fail "job timed out"

(* ------------------------------- pool ---------------------------------- *)

let test_pool_submits_and_collects () =
  let pool = Pool.create ~workers:2 () in
  let futures = List.init 20 (fun i -> Pool.submit pool (fun () -> i * i)) in
  let results = List.map (fun f -> value (Future.await f)) futures in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "all jobs ran, in submission order"
    (List.init 20 (fun i -> i * i))
    results

let test_pool_propagates_exceptions () =
  let pool = Pool.create ~workers:1 () in
  let fut = Pool.submit pool (fun () -> failwith "boom") in
  (match Future.await fut with
   | Future.Failed (Failure msg) -> Alcotest.(check string) "message" "boom" msg
   | _ -> Alcotest.fail "expected Failed (Failure boom)");
  Pool.shutdown pool

let test_pool_backpressure () =
  (* Capacity-1 queue with a blocked worker: the third submit must wait
     for the queue slot, not crash or drop the job. *)
  let pool = Pool.create ~workers:1 ~queue_capacity:1 () in
  let futures =
    List.init 3 (fun i ->
        Pool.submit pool (fun () -> Unix.sleepf 0.02; i))
  in
  let results = List.map (fun f -> value (Future.await f)) futures in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "fifo through a full queue" [ 0; 1; 2 ] results

let test_pool_try_submit_sheds () =
  let pool = Pool.create ~workers:1 ~queue_capacity:1 () in
  let started = Atomic.make false in
  let slow =
    Pool.submit pool (fun () ->
        Atomic.set started true;
        Unix.sleepf 0.2;
        "slow")
  in
  (* only fill the queue once the worker is actually busy, so the
     capacity-1 queue is deterministically full for the third submit *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let queued = Pool.try_submit pool (fun () -> "queued") in
  Alcotest.(check bool) "fits in the queue" true (queued <> None);
  (match Pool.try_submit pool (fun () -> "shed") with
   | None -> ()
   | Some _ -> Alcotest.fail "expected None from a full queue");
  Alcotest.(check string) "running job unaffected" "slow"
    (value (Future.await slow));
  (match queued with
   | Some f -> Alcotest.(check string) "queued job ran" "queued" (value (Future.await f))
   | None -> ());
  Pool.shutdown pool;
  (* after shutdown, try_submit mirrors submit: a Cancelled future, not a
     shed — the queue is not "full", it is gone *)
  match Pool.try_submit pool (fun () -> "late") with
  | Some f -> (
      match Future.await f with
      | Future.Cancelled -> ()
      | _ -> Alcotest.fail "post-shutdown try_submit resolves Cancelled")
  | None -> Alcotest.fail "post-shutdown try_submit returns a settled future"

(* ------------------------- timeout / cancellation ---------------------- *)

let test_job_timeout () =
  let pool = Pool.create ~workers:1 () in
  (* Occupy the only worker, then give the next job a deadline it cannot
     meet while queued. *)
  let slow = Pool.submit pool (fun () -> Unix.sleepf 0.2; "slow") in
  let quick = Pool.submit pool ~timeout_s:0.05 (fun () -> "quick") in
  (match Future.await quick with
   | Future.Timed_out -> ()
   | _ -> Alcotest.fail "expected Timed_out");
  Alcotest.(check string) "slow job unaffected" "slow" (value (Future.await slow));
  Pool.shutdown pool

let test_await_timeout_leaves_future_pending () =
  let fut : int Future.t = Future.create () in
  (match Future.await ~timeout_s:0.05 fut with
   | Future.Timed_out -> ()
   | _ -> Alcotest.fail "expected Timed_out from await");
  Alcotest.(check bool) "still pending" true (Future.is_pending fut);
  Future.resolve fut 7;
  Alcotest.(check int) "late resolution lands" 7 (value (Future.await fut))

let test_cancellation () =
  let pool = Pool.create ~workers:1 () in
  let slow = Pool.submit pool (fun () -> Unix.sleepf 0.1; "slow") in
  let doomed = Pool.submit pool (fun () -> "never runs") in
  Alcotest.(check bool) "cancel pending" true (Future.cancel doomed);
  (match Future.await doomed with
   | Future.Cancelled -> ()
   | _ -> Alcotest.fail "expected Cancelled");
  Alcotest.(check string) "other job survives" "slow" (value (Future.await slow));
  Alcotest.(check bool) "cancel resolved is refused" false (Future.cancel slow);
  Pool.shutdown pool

(* ------------------------------ shutdown ------------------------------- *)

let test_shutdown_drains_queued_jobs () =
  let pool = Pool.create ~workers:1 () in
  let futures =
    List.init 5 (fun i -> Pool.submit pool (fun () -> Unix.sleepf 0.01; i))
  in
  Pool.shutdown pool (* drain=true: must not deadlock, must finish all *);
  let results = List.map (fun f -> value (Future.await f)) futures in
  Alcotest.(check (list int)) "all queued jobs drained" [ 0; 1; 2; 3; 4 ] results;
  (* submit-after-shutdown must not raise mid-batch: it settles the new
     future as Cancelled so callers never leak an unawaited future *)
  match Future.await (Pool.submit pool (fun () -> 0)) with
  | Future.Cancelled -> ()
  | _ -> Alcotest.fail "submit after shutdown resolves Cancelled"

let test_shutdown_no_drain_cancels_queue () =
  let pool = Pool.create ~workers:1 () in
  let started = Atomic.make false in
  let slow =
    Pool.submit pool (fun () ->
        Atomic.set started true;
        Unix.sleepf 0.05;
        "slow")
  in
  let queued = List.init 4 (fun _ -> Pool.submit pool (fun () -> "queued")) in
  (* Only shut down once the worker is actually running the slow job, so
     the queued jobs are the ones cancelled. *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Pool.shutdown ~drain:false pool;
  (* The running job completes (never preempted); queued jobs resolve
     Cancelled rather than hanging. *)
  Alcotest.(check string) "running job finished" "slow" (value (Future.await slow));
  List.iter
    (fun f ->
       match Future.await f with
       | Future.Cancelled -> ()
       | _ -> Alcotest.fail "queued job should be Cancelled")
    queued

(* ------------------------------ lru cache ------------------------------ *)

let test_lru_cache_basics () =
  let cache = Lru_cache.create ~capacity:2 () in
  let calls = ref 0 in
  let get k = Lru_cache.find_or_compute cache ~key:k (fun () -> incr calls; k) in
  Alcotest.(check string) "computes" "a" (get "a");
  Alcotest.(check string) "cached" "a" (get "a");
  Alcotest.(check int) "one computation" 1 !calls;
  ignore (get "b");
  ignore (get "a") (* refresh a: b is now the LRU victim *);
  ignore (get "c") (* evicts b *);
  ignore (get "a");
  let c = Lru_cache.counters cache in
  Alcotest.(check int) "evictions" 1 c.Lru_cache.evictions;
  Alcotest.(check int) "misses" 3 c.Lru_cache.misses;
  Alcotest.(check int) "b recomputes after eviction" 3 !calls;
  ignore (get "b");
  Alcotest.(check int) "fourth computation" 4 !calls

let test_lru_cache_failure_not_cached () =
  let cache = Lru_cache.create ~capacity:4 () in
  (match Lru_cache.find_or_compute cache ~key:"k" (fun () -> failwith "nope") with
   | exception Failure msg -> Alcotest.(check string) "message" "nope" msg
   | _ -> Alcotest.fail "expected the computation's exception");
  Alcotest.(check int) "retry recomputes" 3
    (Lru_cache.find_or_compute cache ~key:"k" (fun () -> 3))

(* Four domains race find_or_compute on the same key: the in-flight entry
   must coalesce them onto ONE computation, and nobody may observe a
   partially built value (the compute only assembles its result after a
   deliberate delay, so a non-coalescing cache would double-compute and a
   broken one could expose an incomplete intermediate). *)
let test_lru_parallel_fill_coalesces () =
  let cache = Lru_cache.create ~capacity:8 () in
  let computes = Atomic.make 0 in
  for round = 0 to 2 do
    let key = Printf.sprintf "k%d" round in
    let expected = key ^ "-built-completely" in
    let barrier = Atomic.make 0 in
    let domains =
      List.init 4 (fun _ ->
          Domain.spawn (fun () ->
              Atomic.incr barrier;
              while Atomic.get barrier < 4 do
                Domain.cpu_relax ()
              done;
              Lru_cache.find_or_compute cache ~key (fun () ->
                  Atomic.incr computes;
                  Unix.sleepf 0.02;
                  String.concat "-" [ key; "built"; "completely" ])))
    in
    let results = List.map Domain.join domains in
    List.iter
      (fun r ->
         Alcotest.(check string) "every domain sees the complete value"
           expected r)
      results
  done;
  Alcotest.(check int) "exactly one compute per key" 3 (Atomic.get computes)

(* ------------------------------- runtime ------------------------------- *)

let test_batch_matches_sequential () =
  let jobs = repair_jobs bounds in
  let sequential = List.map (fun j -> render (Job.run j)) jobs in
  List.iter
    (fun workers ->
       Runtime.with_runtime ~workers (fun rt ->
           let got =
             List.map (fun o -> render (value o)) (Runtime.run_batch rt jobs)
           in
           Alcotest.(check (list string))
             (Printf.sprintf "workers=%d matches sequential" workers)
             sequential got))
    [ 1; 2; 4 ]

(* Jobs are deterministic, so [run_batch] runs each distinct digest once:
   [bounds] lists 0.5 twice, and both positions get the one run's report.
   The runtime keeps no reports, so a second batch runs every job again
   (on a warm elimination cache) and yields the same reports. *)
let test_batch_runs_each_digest_once () =
  let jobs = repair_jobs bounds in
  let distinct = List.length (List.sort_uniq compare (List.map Job.digest jobs)) in
  Alcotest.(check int) "bounds holds one duplicate" (List.length jobs - 1) distinct;
  Runtime.with_runtime ~workers:2 (fun rt ->
      let first = List.map (fun o -> render (value o)) (Runtime.run_batch rt jobs) in
      Alcotest.(check string) "duplicates share a report" (List.nth first 0)
        (List.nth first 3);
      let stats = Runtime.stats rt in
      Alcotest.(check int) "one submit per digest" distinct
        stats.Runtime_stats.submitted;
      Alcotest.(check int) "one run per digest" distinct
        stats.Runtime_stats.completed;
      let second = List.map (fun o -> render (value o)) (Runtime.run_batch rt jobs) in
      Alcotest.(check (list string)) "identical reports on repeat" first second;
      Alcotest.(check int) "the repeat runs again" (2 * distinct)
        (Runtime.stats rt).Runtime_stats.completed;
      let c = Runtime.elim_cache_counters rt in
      Alcotest.(check bool) "elimination coalesced across bounds" true
        (c.Lru_cache.hits > 0);
      (* 8 bounds, one shared parametric model: one elimination. *)
      Alcotest.(check int) "single elimination" 1 c.Lru_cache.misses)

let arena_compiles = Metrics.counter "tml_arena_compiles_total"

(* How many arenas [f ()] compiles. *)
let compiles f =
  let before = Metrics.counter_value arena_compiles in
  let v = f () in
  (v, Metrics.counter_value arena_compiles - before)

(* Under a runtime the elimination cache holds the compiled value, and the
   NLP's property constraint and achieved value reuse its arena (the spec
   order is the query's own): a cold Model Repair compiles one arena, a
   repeat on the same chain with another bound compiles none. *)
let test_model_repair_compiles_once () =
  Runtime.with_runtime ~workers:1 (fun _rt ->
      let model = branch () and spec = branch_spec () in
      let repair b =
        Model_repair.repair ~base:(Pdtmc.of_dtmc model) model
          (parse (Printf.sprintf "P>=%g [ F goal ]" b))
          spec
      in
      let repaired = function
        | Model_repair.Repaired r -> r.Model_repair.verified
        | _ -> false
      in
      let cold, n_cold = compiles (fun () -> repair 0.5) in
      Alcotest.(check bool) "cold repair verified" true (repaired cold);
      Alcotest.(check int) "cold repair compiles one arena" 1 n_cold;
      let warm, n_warm = compiles (fun () -> repair 0.45) in
      Alcotest.(check bool) "repeat verified" true (repaired warm);
      Alcotest.(check int) "repeat compiles no arena" 0 n_warm)

let test_runtime_stage_timings () =
  Runtime.with_runtime ~workers:1 (fun rt ->
      let _ = Runtime.run_batch rt (repair_jobs [ 0.5 ]) in
      let stats = Runtime.stats rt in
      let stage s = List.assoc s stats.Runtime_stats.stages in
      let elim = stage "eliminate" in
      let solve = stage "solve" in
      Alcotest.(check bool) "elimination observed" true
        (elim.Runtime_stats.count >= 1);
      Alcotest.(check bool) "elimination time nonnegative" true
        (elim.Runtime_stats.total_s >= 0.0);
      Alcotest.(check bool) "solver observed" true (solve.Runtime_stats.count >= 1);
      let json = Runtime.stats_json rt in
      let rec path j = function
        | [] -> Some j
        | k :: rest -> Option.bind (Json.member k j) (fun v -> path v rest)
      in
      List.iter
        (fun keys ->
           Alcotest.(check bool)
             (Printf.sprintf "stats json has %s" (String.concat "." keys))
             true (path json keys <> None))
        [ [ "jobs" ]; [ "stages"; "eliminate" ]; [ "caches"; "elimination"; "hit_rate" ] ];
      Alcotest.(check bool) "stats json workers = 1" true
        (Json.member "workers" json = Some (Json.Num 1.0)))

(* Stage totals are per runtime even when runtimes overlap: shutting
   down a second runtime must not stop the first from seeing its own
   stages. *)
let test_stage_totals_survive_other_runtime () =
  Runtime.with_runtime ~workers:1 (fun a ->
      Runtime.shutdown (Runtime.create ~workers:1 ());
      let _ = Runtime.run_batch a (repair_jobs [ 0.5 ]) in
      let elim = List.assoc "eliminate" (Runtime.stats a).Runtime_stats.stages in
      Alcotest.(check bool) "eliminate counted after another runtime's shutdown"
        true (elim.Runtime_stats.count >= 1))

(* Satellite of the server PR: a saturated queue sheds with a typed,
   transient Overloaded instead of blocking the submitting thread. *)
let test_submit_sheds_overloaded () =
  (* delay every Check stage so the single worker stays busy while the
     capacity-1 queue fills behind it *)
  Fault.install
    (Some (Fault.plan [ Fault.spec ~fires:8 Fault.Check (Fault.Delay 0.3) ]));
  Fun.protect ~finally:(fun () -> Fault.install None) @@ fun () ->
  Runtime.with_runtime ~workers:1 ~queue_capacity:1 (fun rt ->
      let model = branch () in
      let job b =
        Job.Check { model; phi = parse (Printf.sprintf "P>=%g [ F goal ]" b) }
      in
      let first = Runtime.submit rt (job 0.05) in
      Unix.sleepf 0.05 (* let the worker dequeue it before flooding *);
      let rest = List.init 3 (fun i -> Runtime.submit rt (job (0.1 +. (0.05 *. float_of_int i)))) in
      let outcomes = List.map Future.await (first :: rest) in
      let shed, kept =
        List.partition
          (function
            | Future.Failed (Tml_error.Error (Tml_error.Overloaded _)) -> true
            | _ -> false)
          outcomes
      in
      Alcotest.(check bool) "at least one submit shed" true
        (List.length shed >= 1);
      Alcotest.(check bool) "admitted submits completed" true
        (List.length kept >= 1
         && List.for_all (function Future.Value _ -> true | _ -> false) kept);
      List.iter
        (function
          | Future.Failed e ->
            Alcotest.(check bool) "shed error is transient" true
              (Tml_error.is_transient e)
          | _ -> ())
        shed)

(* run_batch keeps the classic blocking back-pressure: a batch larger
   than the queue never sheds, it just waits for slots. *)
let test_run_batch_blocks_through_full_queue () =
  Runtime.with_runtime ~workers:1 ~queue_capacity:1 (fun rt ->
      let model = branch () in
      let jobs =
        List.init 6 (fun i ->
            Job.Check
              { model; phi = parse (Printf.sprintf "P>=0.%d [ F goal ]" (i + 1)) })
      in
      let outcomes = Runtime.run_batch rt jobs in
      Alcotest.(check int) "all ran" 6 (List.length outcomes);
      List.iter
        (function
          | Future.Value _ -> ()
          | _ -> Alcotest.fail "batch job did not complete")
        outcomes)

let test_digest_distinguishes_jobs () =
  let jobs = repair_jobs [ 0.5; 0.25 ] in
  let again = repair_jobs [ 0.5 ] in
  match (jobs, again) with
  | [ a; b ], [ a' ] ->
    Alcotest.(check bool) "different bounds differ" true
      (Job.digest a <> Job.digest b);
    Alcotest.(check string) "structurally equal jobs share a digest"
      (Job.digest a) (Job.digest a')
  | _ -> assert false

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "submits and collects" `Quick
            test_pool_submits_and_collects;
          Alcotest.test_case "propagates exceptions" `Quick
            test_pool_propagates_exceptions;
          Alcotest.test_case "backpressure" `Quick test_pool_backpressure;
          Alcotest.test_case "try_submit sheds when full" `Quick
            test_pool_try_submit_sheds;
        ] );
      ( "timeout-cancel",
        [
          Alcotest.test_case "queue timeout" `Quick test_job_timeout;
          Alcotest.test_case "await timeout" `Quick
            test_await_timeout_leaves_future_pending;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "drains queued jobs" `Quick
            test_shutdown_drains_queued_jobs;
          Alcotest.test_case "no-drain cancels queue" `Quick
            test_shutdown_no_drain_cancels_queue;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru basics" `Quick test_lru_cache_basics;
          Alcotest.test_case "failures not cached" `Quick
            test_lru_cache_failure_not_cached;
          Alcotest.test_case "parallel fills coalesce" `Quick
            test_lru_parallel_fill_coalesces;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "batch matches sequential" `Quick
            test_batch_matches_sequential;
          Alcotest.test_case "batch runs each digest once" `Quick
            test_batch_runs_each_digest_once;
          Alcotest.test_case "model repair compiles once" `Quick
            test_model_repair_compiles_once;
          Alcotest.test_case "stage timings" `Quick test_runtime_stage_timings;
          Alcotest.test_case "stage totals survive another runtime" `Quick
            test_stage_totals_survive_other_runtime;
          Alcotest.test_case "full queue sheds Overloaded" `Quick
            test_submit_sheds_overloaded;
          Alcotest.test_case "run_batch blocks, never sheds" `Quick
            test_run_batch_blocks_through_full_queue;
          Alcotest.test_case "job digests" `Quick test_digest_distinguishes_jobs;
        ] );
    ]
