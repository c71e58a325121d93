(* Tests for the observability layer: hierarchical trace spans (nesting,
   cross-domain parenting, survival of domain death), the atomic metrics
   registry (counters, gauges, histogram bucket edges), the exporters
   (JSONL golden + round-trip, tree rendering, Prometheus text) and the
   near-zero cost of disabled tracing. *)

let with_tracing f =
  Trace_span.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace_span.disable ();
      ignore (Trace_span.drain () : Trace_span.t list))
    f

let find_span name spans =
  match
    List.find_opt (fun (s : Trace_span.t) -> s.Trace_span.name = name) spans
  with
  | Some s -> s
  | None -> Alcotest.failf "span %S not recorded" name

(* ------------------------------ spans ------------------------------ *)

let test_span_nesting () =
  with_tracing (fun () ->
      let v =
        Trace_span.with_span "outer" (fun () ->
            Trace_span.with_span "inner" (fun () -> 41 + 1))
      in
      Alcotest.(check int) "body value" 42 v;
      let spans = Trace_span.drain () in
      Alcotest.(check int) "two spans" 2 (List.length spans);
      let outer = find_span "outer" spans in
      let inner = find_span "inner" spans in
      Alcotest.(check (option int)) "outer is a root" None outer.Trace_span.parent;
      Alcotest.(check (option int))
        "inner nests under outer" (Some outer.Trace_span.id)
        inner.Trace_span.parent;
      Alcotest.(check bool) "inner fits inside outer" true
        (inner.Trace_span.dur_s <= outer.Trace_span.dur_s);
      Alcotest.(check (list unit)) "drain empties the buffers" []
        (List.map ignore (Trace_span.drain ())))

let test_cross_domain_parenting () =
  with_tracing (fun () ->
      let submit = Trace_span.event "submit" ~job:"j1" in
      Alcotest.(check bool) "event returns an id" true (submit <> None);
      let d =
        Domain.spawn (fun () ->
            Trace_span.with_span "run" ?parent:submit ~job:"j1" (fun () ->
                Trace_span.with_span "child" (fun () -> ())))
      in
      Domain.join d;
      let spans = Trace_span.drain () in
      let s = find_span "submit" spans in
      let r = find_span "run" spans in
      let c = find_span "child" spans in
      Alcotest.(check (option int))
        "run hangs under the submit event" (Some s.Trace_span.id)
        r.Trace_span.parent;
      Alcotest.(check (option int))
        "child hangs under run on the worker side" (Some r.Trace_span.id)
        c.Trace_span.parent;
      Alcotest.(check bool) "run executed on another domain" true
        (r.Trace_span.domain <> s.Trace_span.domain))

let test_spans_survive_domain_death () =
  with_tracing (fun () ->
      let d =
        Domain.spawn (fun () ->
            Trace_span.with_span "doomed" (fun () -> ()))
      in
      Domain.join d;
      (* the writing domain is gone; its buffer must not be *)
      let spans = Trace_span.drain () in
      ignore (find_span "doomed" spans : Trace_span.t))

let test_drain_order_deterministic () =
  with_tracing (fun () ->
      List.iter
        (fun n -> ignore (Trace_span.event n : int option))
        [ "a"; "b"; "c" ];
      let spans = Trace_span.drain () in
      let ids = List.map (fun (s : Trace_span.t) -> s.Trace_span.id) spans in
      Alcotest.(check (list int)) "sorted by (rel_s, id)" (List.sort compare ids)
        ids)

let test_event_is_instant () =
  with_tracing (fun () ->
      ignore (Trace_span.event "tick" : int option);
      let s = find_span "tick" (Trace_span.drain ()) in
      Alcotest.(check (float 0.0)) "zero duration" 0.0 s.Trace_span.dur_s)

let test_error_status_and_reraise () =
  with_tracing (fun () ->
      (try Trace_span.with_span "boom" (fun () -> failwith "kapow")
       with Failure _ -> ());
      let s = find_span "boom" (Trace_span.drain ()) in
      match s.Trace_span.status with
      | Trace_span.Error msg ->
        Alcotest.(check bool) "exception text captured" true
          (String.length msg > 0)
      | Trace_span.Ok -> Alcotest.fail "span should carry Error status")

let test_attrs_and_current () =
  with_tracing (fun () ->
      Trace_span.with_span "attributed" ~attrs:[ ("k", "v") ] (fun () ->
          Alcotest.(check bool) "current span visible" true
            (Trace_span.current () <> None);
          Trace_span.add_attr "late" "yes");
      let s = find_span "attributed" (Trace_span.drain ()) in
      Alcotest.(check (list (pair string string)))
        "attrs in add order"
        [ ("k", "v"); ("late", "yes") ]
        s.Trace_span.attrs)

let test_disabled_is_noop () =
  Alcotest.(check bool) "tracing off" false (Trace_span.enabled ());
  let v = Trace_span.with_span "invisible" (fun () -> 7) in
  Alcotest.(check int) "body still runs" 7 v;
  Alcotest.(check (option int)) "event yields no id" None
    (Trace_span.event "invisible-too");
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace_span.drain ()))

(* Near-zero overhead when tracing is off: the probe is one atomic load.
   The bound is deliberately generous (CI machines vary); the point is to
   catch an accidental mutex or allocation on the disabled path. *)
let test_disabled_overhead () =
  assert (not (Trace_span.enabled ()));
  let iters = 1_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Trace_span.with_span "off" (fun () -> ()) : unit)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "1M disabled probes in %.3fs (< 1s)" dt)
    true (dt < 1.0)

(* ----------------------------- metrics ----------------------------- *)

let test_counter_basics () =
  let c = Metrics.counter "tmltest_counter_total" ~help:"test" in
  let before = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "incremented" (before + 5) (Metrics.counter_value c);
  let c' = Metrics.counter "tmltest_counter_total" in
  Alcotest.(check int) "re-registration shares state" (before + 5)
    (Metrics.counter_value c')

let test_gauge_basics () =
  let g = Metrics.gauge "tmltest_gauge" in
  Metrics.set_gauge g 2.5;
  Metrics.max_gauge g 1.0;
  Alcotest.(check (float 0.0)) "max keeps high-water" 2.5
    (Metrics.gauge_value g);
  Metrics.max_gauge g 9.0;
  Alcotest.(check (float 0.0)) "max raises" 9.0 (Metrics.gauge_value g)

let test_kind_mismatch_rejected () =
  ignore (Metrics.counter "tmltest_kind" : Metrics.counter);
  (try
     ignore (Metrics.gauge "tmltest_kind" : Metrics.gauge);
     Alcotest.fail "gauge over counter must be rejected"
   with Invalid_argument _ -> ());
  try
    ignore
      (Metrics.histogram "tmltest_hist_bounds" ~buckets:[| 2.0; 1.0 |]
        : Metrics.histogram);
    Alcotest.fail "unsorted bounds must be rejected"
  with Invalid_argument _ -> ()

let test_histogram_bucket_edges () =
  let h =
    Metrics.histogram "tmltest_hist_seconds" ~buckets:[| 1.0; 2.0; 5.0 |]
  in
  (* exactly-on-bound observations land in that bound's bucket (le is
     inclusive, the Prometheus convention) *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 5.0; 7.0 ];
  Alcotest.(check (list (pair (float 0.0) int)))
    "cumulative le counts"
    [ (1.0, 2); (2.0, 3); (5.0, 4); (infinity, 5) ]
    (Metrics.histogram_buckets h);
  Alcotest.(check int) "count" 5 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 15.0 (Metrics.histogram_sum h)

let test_reset_keeps_handles () =
  let c = Metrics.counter "tmltest_reset_total" in
  Metrics.incr ~by:3 c;
  Metrics.reset ();
  Alcotest.(check int) "value zeroed" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "handle still live" 1 (Metrics.counter_value c)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_prometheus_rendering () =
  Metrics.reset ();
  let c =
    Metrics.counter "tmltest_prom_total" ~help:"a test counter"
      ~label:("case", "a")
  in
  Metrics.incr ~by:3 c;
  let h = Metrics.histogram "tmltest_prom_seconds" ~buckets:[| 0.1; 1.0 |] in
  Metrics.observe h 0.05;
  Metrics.observe h 2.0;
  let out = Metrics.to_prometheus () in
  List.iter
    (fun line ->
       Alcotest.(check bool) (Printf.sprintf "contains %S" line) true
         (contains out line))
    [
      "# HELP tmltest_prom_total a test counter";
      "# TYPE tmltest_prom_total counter";
      "tmltest_prom_total{case=\"a\"} 3";
      "# TYPE tmltest_prom_seconds histogram";
      "tmltest_prom_seconds_bucket{le=\"0.1\"} 1";
      "tmltest_prom_seconds_bucket{le=\"+Inf\"} 2";
      "tmltest_prom_seconds_sum 2.05";
      "tmltest_prom_seconds_count 2";
    ]

(* Concurrent updates from several domains must not lose increments —
   the registry's promise is atomics, not mutexes, on the hot path. *)
let test_metrics_domain_safety () =
  let c = Metrics.counter "tmltest_torn_total" in
  let h = Metrics.histogram "tmltest_torn_seconds" ~buckets:[| 0.5 |] in
  let before = Metrics.counter_value c in
  let per_domain = 10_000 in
  let domains =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c;
              Metrics.observe h 0.25
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost counter increments"
    (before + (3 * per_domain))
    (Metrics.counter_value c);
  Alcotest.(check int) "no lost observations" (3 * per_domain)
    (Metrics.histogram_count h)

(* ----------------------------- exporters ----------------------------- *)

let golden_span =
  {
    Trace_span.id = 3;
    parent = Some 1;
    name = "stage:solve";
    job = Some "ab12cd34";
    domain = 0;
    wall_s = 100.5;
    rel_s = 0.25;
    dur_s = 0.125;
    attrs = [ ("rung", "penalty") ];
    status = Trace_span.Error "boom \"x\"";
  }

let test_jsonl_golden () =
  Alcotest.(check string) "span_to_json golden"
    "{\"id\":3,\"parent\":1,\"name\":\"stage:solve\",\"job\":\"ab12cd34\",\
     \"domain\":0,\"wall_s\":100.500000,\"rel_s\":0.250000,\
     \"dur_s\":0.125000,\"status\":\"error\",\"error\":\"boom \\\"x\\\"\",\
     \"attrs\":{\"rung\":\"penalty\"}}"
    (Trace_export.span_to_json golden_span)

let test_jsonl_round_trip () =
  with_tracing (fun () ->
      let submit = Trace_span.event "job:submit" ~job:"deadbeef" in
      Trace_span.with_span "job:run" ?parent:submit ~job:"deadbeef"
        ~attrs:[ ("kind", "model-repair") ]
        (fun () ->
          try Trace_span.with_span "stage:solve" (fun () -> failwith "nope")
          with Failure _ -> ());
      let spans = Trace_span.drain () in
      let text = Trace_export.to_jsonl spans in
      let parsed = Trace_export.of_jsonl text in
      (* printing is idempotent after one round trip: %.6f stabilises *)
      Alcotest.(check string) "parse . print is the identity on dumps" text
        (Trace_export.to_jsonl parsed);
      Alcotest.(check int) "same span count" (List.length spans)
        (List.length parsed);
      List.iter2
        (fun (a : Trace_span.t) (b : Trace_span.t) ->
           Alcotest.(check int) "id" a.Trace_span.id b.Trace_span.id;
           Alcotest.(check (option int)) "parent" a.Trace_span.parent
             b.Trace_span.parent;
           Alcotest.(check string) "name" a.Trace_span.name b.Trace_span.name;
           Alcotest.(check (option string)) "job" a.Trace_span.job
             b.Trace_span.job;
           Alcotest.(check (list (pair string string)))
             "attrs" a.Trace_span.attrs b.Trace_span.attrs)
        spans parsed)

let test_jsonl_rejects_garbage () =
  let good = Trace_export.span_to_json golden_span in
  List.iter
    (fun (what, bad) ->
       match Trace_export.of_jsonl (good ^ "\n" ^ bad ^ "\n") with
       | _ -> Alcotest.failf "%s: malformed line must raise" what
       | exception Trace_export.Parse_error msg ->
         Alcotest.(check bool) (what ^ ": error names the line") true
           (contains msg "line 2"))
    [ ("not json", "not json");
      ("deep nesting", String.make 1_000_000 '[') ]

(* Non-ASCII escapes decode to UTF-8 (the trace dump's old private
   reader turned them into '?'). *)
let test_jsonl_unicode_escape () =
  let line =
    {|{"id":1,"parent":null,"name":"caf\u00e9","job":null,"domain":0,|}
    ^ {|"wall_s":1.0,"rel_s":0.0,"dur_s":0.0,"status":"ok","attrs":{}}|}
  in
  match Trace_export.of_jsonl line with
  | [ s ] -> Alcotest.(check string) "escape decoded" "café" s.Trace_span.name
  | _ -> Alcotest.fail "expected one span"

let mk ?parent ?job ?(attrs = []) ?(status = Trace_span.Ok) ~id ~rel ~dur name =
  {
    Trace_span.id;
    parent;
    name;
    job;
    domain = 0;
    wall_s = 1000.0 +. rel;
    rel_s = rel;
    dur_s = dur;
    attrs;
    status;
  }

let test_tree_golden () =
  let spans =
    [
      mk ~id:1 ~rel:0.0 ~dur:0.002 ~job:"abc" "job:run";
      mk ~id:2 ~parent:1 ~rel:0.001 ~dur:0.001
        ~attrs:[ ("rung", "penalty") ]
        "stage:solve";
      mk ~id:3 ~parent:1 ~rel:0.002 ~dur:0.0 "pool:dequeue";
    ]
  in
  Alcotest.(check string) "rendered tree"
    "job:run [job abc]  2.000 ms\n\
     |- stage:solve (rung=penalty)  1.000 ms\n\
     `- pool:dequeue  \xc2\xb7\n"
    (Trace_export.tree spans)

let test_tree_orphans_become_roots () =
  let spans = [ mk ~id:5 ~parent:99 ~rel:0.0 ~dur:0.0 "orphan" ] in
  Alcotest.(check string) "orphan rendered flush-left" "orphan  \xc2\xb7\n"
    (Trace_export.tree spans)

let test_summary_mentions_aggregates () =
  let spans =
    [
      mk ~id:1 ~rel:0.0 ~dur:0.5 "stage:solve";
      mk ~id:2 ~rel:0.6 ~dur:0.25
        ~status:(Trace_span.Error "x") "stage:solve";
    ]
  in
  let out = Trace_export.summary spans in
  List.iter
    (fun needle ->
       Alcotest.(check bool) (Printf.sprintf "summary contains %S" needle) true
         (contains out needle))
    [ "trace: 2 span(s), 1 domain(s)"; "stage:solve"; "750.000 ms" ]

(* --------------------------- integration --------------------------- *)

(* 0 -> goal(1) p | fail(2) 1-p, absorbing: the cheap job of
   test_runtime.ml, enough to push work through every runtime seam. *)
let branch () =
  Dtmc.make ~n:3 ~init:0
    ~transitions:[ (0, 1, 0.3); (0, 2, 0.7); (1, 1, 1.0); (2, 2, 1.0) ]
    ~labels:[ ("goal", [ 1 ]); ("fail", [ 2 ]) ]
    ()

let check_jobs n =
  let model = branch () in
  List.init n (fun j ->
      Job.Check
        {
          model;
          phi =
            Pctl_parser.parse
              (Printf.sprintf "P>=%g [ F goal ]" (0.1 +. (0.05 *. float_of_int j)));
        })

let test_runtime_spans_end_to_end () =
  with_tracing (fun () ->
      Runtime.with_runtime ~workers:2 (fun rt ->
          List.iter
            (function
              | Future.Value _ -> ()
              | _ -> Alcotest.fail "check jobs succeed")
            (Runtime.run_batch rt (check_jobs 4)));
      let spans = Trace_span.drain () in
      let by_name n =
        List.filter (fun (s : Trace_span.t) -> s.Trace_span.name = n) spans
      in
      Alcotest.(check int) "one submit event per job" 4
        (List.length (by_name "job:submit"));
      let runs = by_name "job:run" in
      Alcotest.(check int) "one run span per job" 4 (List.length runs);
      let submit_ids =
        List.map (fun (s : Trace_span.t) -> s.Trace_span.id) (by_name "job:submit")
      in
      List.iter
        (fun (r : Trace_span.t) ->
           match r.Trace_span.parent with
           | Some p ->
             Alcotest.(check bool) "run parented to a submit event" true
               (List.mem p submit_ids)
           | None -> Alcotest.fail "job:run must have a parent")
        runs;
      List.iter
        (fun (r : Trace_span.t) ->
           Alcotest.(check bool) "run carries its job id" true
             (r.Trace_span.job <> None))
        runs)

(* The registry outlives runtimes and workers: a worker kill mid-batch
   must still land its respawn in the process-wide counter, and the
   registry must keep rendering afterwards. *)
let test_metrics_survive_respawn () =
  let respawns = Metrics.counter "tml_worker_respawns_total" in
  let before = Metrics.counter_value respawns in
  Fault.install (Some (Fault.plan [ Fault.spec Fault.Worker Fault.Raise ]));
  Fun.protect
    ~finally:(fun () -> Fault.install None)
    (fun () ->
      Runtime.with_runtime ~workers:2 (fun rt ->
          List.iter
            (function
              | Future.Value _ -> ()
              | _ -> Alcotest.fail "jobs survive the worker kill")
            (Runtime.run_batch rt (check_jobs 4))));
  Alcotest.(check int) "respawn recorded in the process-wide registry"
    (before + 1)
    (Metrics.counter_value respawns);
  Alcotest.(check bool) "registry still renders" true
    (contains (Metrics.to_prometheus ()) "tml_worker_respawns_total")

let () =
  Alcotest.run "observe"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "cross-domain parenting" `Quick
            test_cross_domain_parenting;
          Alcotest.test_case "survive domain death" `Quick
            test_spans_survive_domain_death;
          Alcotest.test_case "deterministic drain order" `Quick
            test_drain_order_deterministic;
          Alcotest.test_case "events are instant" `Quick test_event_is_instant;
          Alcotest.test_case "error status" `Quick
            test_error_status_and_reraise;
          Alcotest.test_case "attrs and current" `Quick test_attrs_and_current;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "disabled overhead" `Slow test_disabled_overhead;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_kind_mismatch_rejected;
          Alcotest.test_case "histogram bucket edges" `Quick
            test_histogram_bucket_edges;
          Alcotest.test_case "reset keeps handles" `Quick
            test_reset_keeps_handles;
          Alcotest.test_case "prometheus rendering" `Quick
            test_prometheus_rendering;
          Alcotest.test_case "domain safety" `Slow test_metrics_domain_safety;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "jsonl rejects garbage" `Quick
            test_jsonl_rejects_garbage;
          Alcotest.test_case "jsonl unicode escape" `Quick
            test_jsonl_unicode_escape;
          Alcotest.test_case "tree golden" `Quick test_tree_golden;
          Alcotest.test_case "orphans become roots" `Quick
            test_tree_orphans_become_roots;
          Alcotest.test_case "summary aggregates" `Quick
            test_summary_mentions_aggregates;
        ] );
      ( "integration",
        [
          Alcotest.test_case "runtime spans end to end" `Quick
            test_runtime_spans_end_to_end;
          Alcotest.test_case "metrics survive respawn" `Quick
            test_metrics_survive_respawn;
        ] );
    ]
