(* Chaos tests for the fault-tolerant runtime: every injected fault —
   worker kills, raised solver faults, NaN corruption, wedged cache fills,
   injected delays — must be survived, and jobs that ultimately succeed
   must produce reports byte-identical to a fault-free run. *)

let with_plan plan f =
  Fault.install (Some plan);
  Fun.protect ~finally:(fun () -> Fault.install None) f

(* A small deterministic suite of model-repair jobs over the WSN case
   study; big enough to exercise every pipeline stage, small enough to
   keep the chaos tests fast. *)
let wsn_jobs n =
  let params = Wsn.default_params in
  let chain = Wsn.chain params in
  let spec = Wsn.repair_spec params in
  List.init n (fun j ->
      Job.Model_repair
        {
          model = chain;
          phi = Wsn.property (40 + (5 * j));
          spec;
          starts = 2;
          backend = Repair_backend.Nlp_solver;
        })

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let render outcomes =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (function
      | Future.Value o -> Format.fprintf fmt "%a" Job.pp_outcome o
      | Future.Failed e -> Format.fprintf fmt "FAILED %s@." (Printexc.to_string e)
      | Future.Cancelled -> Format.fprintf fmt "CANCELLED@."
      | Future.Timed_out -> Format.fprintf fmt "TIMED OUT@.")
    outcomes;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let run_suite ?retry () =
  Runtime.with_runtime ~workers:1 (fun rt ->
      let outcomes = Runtime.run_batch rt ?retry (wsn_jobs 2) in
      (render outcomes, Runtime.stats rt))

let clean_reference = lazy (fst (run_suite ()))

(* ------------------------- retry semantics ---------------------------- *)

let test_retry_transient_then_succeed () =
  let attempts = ref 0 in
  let retries = ref 0 in
  let policy = Retry.make ~max_retries:3 ~base_backoff_ms:0.01 () in
  let v =
    Retry.run policy ~key:"k"
      ~on_retry:(fun _ -> incr retries)
      (fun () ->
        incr attempts;
        if !attempts < 3 then
          raise (Tml_error.Error (Tml_error.Solver_nonconvergence "flaky"));
        "ok")
  in
  Alcotest.(check string) "value" "ok" v;
  Alcotest.(check int) "attempts" 3 !attempts;
  Alcotest.(check int) "retries" 2 !retries

let test_retry_permanent_propagates () =
  let attempts = ref 0 in
  let retries = ref 0 in
  let policy = Retry.make ~max_retries:3 ~base_backoff_ms:0.01 () in
  (match
     Retry.run policy ~key:"k"
       ~on_retry:(fun _ -> incr retries)
       (fun () ->
         incr attempts;
         raise (Tml_error.Error (Tml_error.Malformed_model "bad")))
   with
  | _ -> Alcotest.fail "expected the permanent error to escape"
  | exception Tml_error.Error (Tml_error.Malformed_model _) -> ());
  Alcotest.(check int) "single attempt" 1 !attempts;
  Alcotest.(check int) "no retries" 0 !retries

let test_retry_budget_exhausted () =
  let attempts = ref 0 in
  let policy = Retry.make ~max_retries:2 ~base_backoff_ms:0.01 () in
  (match
     Retry.run policy ~key:"k"
       ~on_retry:(fun _ -> ())
       (fun () ->
         incr attempts;
         raise (Tml_error.Error (Tml_error.Timeout "always")))
   with
  | _ -> Alcotest.fail "expected exhaustion"
  | exception Tml_error.Error (Tml_error.Timeout _) -> ());
  Alcotest.(check int) "initial + 2 retries" 3 !attempts

let test_retry_markers_not_retryable () =
  Alcotest.(check bool)
    "deadline marker" false
    (Retry.retryable Instr.Deadline_exceeded);
  Alcotest.(check bool)
    "cancel marker" false
    (Retry.retryable Instr.Cancelled_in_flight);
  Alcotest.(check bool)
    "transient error" true
    (Retry.retryable (Tml_error.Error (Tml_error.Cache_race "x")));
  Alcotest.(check bool) "arbitrary exn" false (Retry.retryable Exit)

let test_backoff_deterministic_and_capped () =
  let policy =
    Retry.make ~max_retries:8 ~base_backoff_ms:50.0 ~cap_backoff_ms:400.0 ()
  in
  let b attempt = Retry.backoff_s policy ~key:"job" ~attempt in
  Alcotest.(check (float 1e-12)) "replayable" (b 0) (b 0);
  for attempt = 0 to 7 do
    let s = b attempt in
    Alcotest.(check bool) "within jittered cap" true (s <= 0.4 *. 1.5);
    Alcotest.(check bool) "positive" true (s > 0.0)
  done;
  Alcotest.(check bool) "keys decorrelate" true
    (Retry.backoff_s policy ~key:"other" ~attempt:0 <> b 0)

(* --------------------------- fault plans ------------------------------ *)

let test_plan_determinism () =
  let pattern () =
    with_plan
      (Fault.plan ~seed:42
         [ Fault.spec ~fires:1000 ~rate:0.5 Fault.Check Fault.Raise ])
      (fun () ->
        List.init 64 (fun _ ->
            match Fault.with_site Fault.Check (fun () -> ()) with
            | () -> false
            | exception Tml_error.Error (Tml_error.Injected_fault _) -> true))
  in
  let p1 = pattern () and p2 = pattern () in
  Alcotest.(check (list bool)) "same seed, same firing pattern" p1 p2;
  Alcotest.(check bool) "rate actually thins" true
    (List.exists Fun.id p1 && not (List.for_all Fun.id p1))

let test_nan_window_scoped_to_site () =
  with_plan (Fault.plan [ Fault.spec Fault.Solve Fault.Nan ]) (fun () ->
      Fault.with_site Fault.Solve (fun () ->
          Alcotest.(check bool)
            "armed inside the window" true
            (Float.is_nan (Fault.corrupt Fault.Solve 1.0)));
      Alcotest.(check (float 0.0))
        "disarmed outside the window" 1.0
        (Fault.corrupt Fault.Solve 1.0);
      Alcotest.(check int) "fired once" 1 (Fault.fired_at Fault.Solve))

(* ----------------------- end-to-end recovery -------------------------- *)

let retry_fast = Retry.make ~max_retries:3 ~base_backoff_ms:1.0 ()

let check_recovers_byte_identical name plan =
  let reference = Lazy.force clean_reference in
  let report, stats =
    with_plan plan (fun () -> run_suite ~retry:retry_fast ())
  in
  Alcotest.(check string) (name ^ ": byte-identical report") reference report;
  Alcotest.(check bool)
    (name ^ ": fault fired")
    true
    (stats.Runtime_stats.faults_injected >= 1);
  Alcotest.(check bool)
    (name ^ ": retried")
    true
    (stats.Runtime_stats.retried >= 1)

let test_solver_raise_recovered () =
  check_recovers_byte_identical "solve raise"
    (Fault.plan [ Fault.spec Fault.Solve Fault.Raise ])

let test_solver_nan_recovered () =
  check_recovers_byte_identical "solve nan"
    (Fault.plan [ Fault.spec Fault.Solve Fault.Nan ])

let test_cache_fault_recovered () =
  check_recovers_byte_identical "cache raise"
    (Fault.plan [ Fault.spec Fault.Cache Fault.Raise ])

let test_eliminate_fault_recovered () =
  check_recovers_byte_identical "eliminate raise"
    (Fault.plan [ Fault.spec Fault.Eliminate Fault.Raise ])

let test_unretried_fault_fails_cleanly () =
  (* Without a retry policy the injected fault surfaces as a Failed
     outcome — never a hang, never a lost future. *)
  let report, stats =
    with_plan (Fault.plan [ Fault.spec Fault.Solve Fault.Raise ]) (fun () ->
        run_suite ())
  in
  Alcotest.(check bool)
    "one job failed with the injected fault" true
    (contains report "FAILED");
  Alcotest.(check int) "no retries happened" 0 stats.Runtime_stats.retried

(* ------------------------ worker supervision -------------------------- *)

let test_worker_kill_respawns_no_lost_futures () =
  with_plan (Fault.plan [ Fault.spec ~fires:2 Fault.Worker Fault.Raise ])
    (fun () ->
      let pool = Pool.create ~workers:2 () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let futures =
        List.init 8 (fun i -> Pool.submit pool (fun () -> i * i))
      in
      List.iteri
        (fun i fut ->
          match Future.await fut with
          | Future.Value v -> Alcotest.(check int) "job result" (i * i) v
          | _ -> Alcotest.fail "every future settles with its value")
        futures;
      Alcotest.(check int) "two workers respawned" 2 (Pool.respawns pool);
      Alcotest.(check int) "both faults fired" 2 (Fault.fired_at Fault.Worker))

let test_runtime_counts_respawns () =
  with_plan (Fault.plan [ Fault.spec Fault.Worker Fault.Raise ]) (fun () ->
      Runtime.with_runtime ~workers:2 (fun rt ->
          let outcomes = Runtime.run_batch rt (wsn_jobs 2) in
          List.iter
            (function
              | Future.Value _ -> ()
              | _ -> Alcotest.fail "jobs survive a worker kill")
            outcomes;
          Alcotest.(check int) "respawn counted" 1 (Runtime.respawns rt);
          let stats = Runtime.stats rt in
          Alcotest.(check int) "respawn in stats" 1
            stats.Runtime_stats.respawned))

(* -------------------- deadlines and cancellation ---------------------- *)

let test_delay_fault_hits_deadline () =
  with_plan
    (Fault.plan [ Fault.spec Fault.Eliminate (Fault.Delay 0.3) ])
    (fun () ->
      Runtime.with_runtime ~workers:1 (fun rt ->
          match Runtime.run_batch rt ~timeout_s:0.05 (wsn_jobs 1) with
          | [ Future.Timed_out ] -> ()
          | [ _ ] -> Alcotest.fail "expected a mid-run timeout"
          | _ -> Alcotest.fail "one job, one outcome"));
  (* The wedged fill was cleaned up: the same job on a fresh runtime (no
     plan installed any more) completes normally. *)
  Runtime.with_runtime ~workers:1 (fun rt ->
      match Runtime.run_batch rt (wsn_jobs 1) with
      | [ Future.Value _ ] -> ()
      | _ -> Alcotest.fail "job recovers once the fault plan is gone")

let test_inflight_cancellation () =
  let pool = Pool.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let started = Atomic.make false in
  let checkpoints = Atomic.make 0 in
  let fut =
    Pool.submit pool (fun () ->
        Atomic.set started true;
        for _ = 1 to 200 do
          Instr.time Instr.Check (fun () ->
              Atomic.incr checkpoints;
              Unix.sleepf 0.005)
        done;
        "ran to completion")
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.02;
  ignore (Future.cancel fut);
  (match Future.await fut with
  | Future.Cancelled -> ()
  | _ -> Alcotest.fail "cancelled mid-run");
  (* The worker abandoned the loop at a checkpoint and is free again. *)
  (match Future.await (Pool.submit pool (fun () -> 41 + 1)) with
  | Future.Value 42 -> ()
  | _ -> Alcotest.fail "worker survives an in-flight cancellation");
  Alcotest.(check bool)
    "stopped early" true
    (Atomic.get checkpoints < 200)

let test_batch_after_shutdown_cancelled () =
  let rt = Runtime.create ~workers:1 () in
  (match Runtime.run_batch rt (wsn_jobs 1) with
  | [ Future.Value _ ] -> ()
  | _ -> Alcotest.fail "baseline batch succeeds");
  Runtime.shutdown rt;
  (* Fresh jobs (bounds the baseline never used), so the stopped pool is
     exercised by jobs that never ran. *)
  let params = Wsn.default_params in
  let fresh =
    List.map
      (fun bound ->
        Job.Model_repair
          {
            model = Wsn.chain params;
            phi = Wsn.property bound;
            spec = Wsn.repair_spec params;
            starts = 2;
            backend = Repair_backend.Nlp_solver;
          })
      [ 70; 75 ]
  in
  match Runtime.run_batch rt fresh with
  | [ Future.Cancelled; Future.Cancelled ] -> ()
  | _ -> Alcotest.fail "batch racing shutdown resolves Cancelled, no raise"

(* --------------------------- cache wedges ----------------------------- *)

let test_wedged_fill_wakes_waiters () =
  let cache = Lru_cache.create ~capacity:8 () in
  let first = Atomic.make true in
  let d1 =
    Domain.spawn (fun () ->
        match
          Lru_cache.find_or_compute cache ~key:"k" (fun () ->
              if Atomic.exchange first false then begin
                Unix.sleepf 0.05;
                failwith "wedged fill"
              end
              else 42)
        with
        | v -> `Value v
        | exception Failure _ -> `Raised)
  in
  Unix.sleepf 0.01;
  (* Coalesces on d1's in-flight fill; when that fill fails the waiter is
     woken and recomputes. *)
  let d2 =
    Domain.spawn (fun () ->
        match
          Lru_cache.find_or_compute cache ~key:"k" (fun () ->
              if Atomic.exchange first false then failwith "wedged fill"
              else 42)
        with
        | v -> `Value v
        | exception Failure _ -> `Raised)
  in
  let r1 = Domain.join d1 in
  let r2 = Domain.join d2 in
  (match r1 with
  | `Raised -> ()
  | `Value _ -> Alcotest.fail "first fill raises");
  (match r2 with
  | `Value 42 -> ()
  | _ -> Alcotest.fail "woken waiter recomputes and succeeds");
  (* The failed fill left no residue: a fresh caller hits the Done entry. *)
  Alcotest.(check int) "entry landed" 42
    (Lru_cache.find_or_compute cache ~key:"k" (fun () ->
         Alcotest.fail "a landed entry is not recomputed"))

(* ----------------------------- stats ---------------------------------- *)

let test_stats_json_has_resilience () =
  with_plan (Fault.plan [ Fault.spec Fault.Solve Fault.Raise ]) (fun () ->
      Runtime.with_runtime ~workers:1 (fun rt ->
          ignore (Runtime.run_batch rt ~retry:retry_fast (wsn_jobs 1));
          let resilience = Json.member "resilience" (Runtime.stats_json rt) in
          Alcotest.(check bool) "resilience block" true (resilience <> None);
          let count key = Option.bind resilience (Json.member key) in
          Alcotest.(check bool) "retried count" true
            (count "retried" = Some (Json.Num 1.0));
          Alcotest.(check bool) "fault count" true
            (count "faults_injected" = Some (Json.Num 1.0))))

(* TML_TRACE=1 runs the whole chaos suite with span recording live, so
   CI exercises the tracing hot paths under injected faults, kills and
   retries; results must be identical either way. *)
let () =
  if Sys.getenv_opt "TML_TRACE" <> None then Trace_span.enable ();
  Alcotest.run "faults"
    [
      ( "retry",
        [
          Alcotest.test_case "transient then succeed" `Quick
            test_retry_transient_then_succeed;
          Alcotest.test_case "permanent propagates" `Quick
            test_retry_permanent_propagates;
          Alcotest.test_case "budget exhausted" `Quick
            test_retry_budget_exhausted;
          Alcotest.test_case "markers not retryable" `Quick
            test_retry_markers_not_retryable;
          Alcotest.test_case "deterministic capped backoff" `Quick
            test_backoff_deterministic_and_capped;
        ] );
      ( "plan",
        [
          Alcotest.test_case "seeded determinism" `Quick test_plan_determinism;
          Alcotest.test_case "nan window scoping" `Quick
            test_nan_window_scoped_to_site;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "solver raise" `Quick test_solver_raise_recovered;
          Alcotest.test_case "solver nan" `Quick test_solver_nan_recovered;
          Alcotest.test_case "cache raise" `Quick test_cache_fault_recovered;
          Alcotest.test_case "eliminate raise" `Quick
            test_eliminate_fault_recovered;
          Alcotest.test_case "no retry, clean failure" `Quick
            test_unretried_fault_fails_cleanly;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "worker kill, no lost futures" `Quick
            test_worker_kill_respawns_no_lost_futures;
          Alcotest.test_case "runtime counts respawns" `Quick
            test_runtime_counts_respawns;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "delay fault times out" `Quick
            test_delay_fault_hits_deadline;
          Alcotest.test_case "in-flight cancellation" `Quick
            test_inflight_cancellation;
          Alcotest.test_case "batch after shutdown" `Quick
            test_batch_after_shutdown_cancelled;
        ] );
      ( "cache",
        [
          Alcotest.test_case "wedged fill wakes waiters" `Quick
            test_wedged_fill_wakes_waiters;
        ] );
      ( "stats",
        [
          Alcotest.test_case "resilience json" `Quick
            test_stats_json_has_resilience;
        ] );
    ]
