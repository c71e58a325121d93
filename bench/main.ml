(* Benchmark harness.

   Running `dune exec bench/main.exe` does two things:

   1. regenerates the paper's evaluation (experiments E1–E6 and F1 from
      DESIGN.md's index) and prints the paper-vs-measured table — the data
      behind EXPERIMENTS.md;
   2. runs Bechamel micro-benchmarks: one per experiment component, plus
      the ablations DESIGN.md calls out (optimizer method, elimination
      order) and a WSN grid-size scaling sweep.

   Pass --table-only to skip the micro-benchmarks, --bench-only to skip
   the tables, or --runtime-only for just the runtime-scaling comparison,
   the traced stage breakdown and the serving runs (8 concurrent clients
   against an in-process `tml serve` on a Unix socket, cold and warm, the
   warm run with 1k/10k idle connections held open by a helper process;
   no results file rewrite).

   --perf-check runs the runtime-scaling comparison plus the tracked
   bench set (the symbolic_kernel section, the e2/e4 elimination /
   constraint-eval benches, and the event loop's warm per-request time)
   and exits non-zero if any tracked bench's fastest observed per-run
   time regresses more than 20% against bench/results/baseline.json;
   --update-baseline reruns the same set and rewrites the baseline. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                      *)
(* ------------------------------------------------------------------ *)

let wsn_params = Wsn.default_params
let wsn_chain = lazy (Wsn.chain wsn_params)
let wsn_base = lazy (Pdtmc.of_dtmc (Lazy.force wsn_chain))
let car_mdp = lazy (Car.mdp ())
let car_theta = lazy (Irl.learn (Lazy.force car_mdp) (Car.expert_traces 5))

let wsn_parametric =
  lazy
    (Model_repair.parametric_model (Lazy.force wsn_base)
       (Wsn.repair_spec wsn_params))

let data_groups =
  lazy
    (let rng = Prng.create 42 in
     Wsn.observation_groups rng wsn_params ~count:3000)

let data_pdtmc =
  lazy
    (Mle.parametric_mle ~n:9 ~init:8
       ~labels:[ ("delivered", [ 0 ]) ]
       ~rewards:(Array.init 9 (fun s -> if s = 0 then Ratio.zero else Ratio.one))
       ~groups:(Tally.of_groups (Lazy.force data_groups)) ())

let data_query = lazy (Pquery.of_formula (Lazy.force data_pdtmc) (Wsn.property 19))

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                     *)
(* ------------------------------------------------------------------ *)

let bench_e1 =
  Test.make ~name:"e1/wsn numeric check (R<=100)"
    (Staged.stage (fun () ->
         Check_dtmc.check (Lazy.force wsn_chain) (Wsn.property 100)))

let bench_e2_elimination =
  Test.make ~name:"e2/parametric elimination f(p,q)"
    (Staged.stage (fun () ->
         Pquery.of_formula (Lazy.force wsn_parametric) (Wsn.property 40)))

let bench_e2_repair =
  Test.make ~name:"e2/full model repair (X=40) backend=nlp"
    (Staged.stage (fun () ->
         Model_repair.repair ~starts:4 ~base:(Lazy.force wsn_base)
           (Lazy.force wsn_chain) (Wsn.property 40) (Wsn.repair_spec wsn_params)))

let bench_e3_repair =
  Test.make ~name:"e3/full repair, infeasible (X=19) backend=nlp"
    (Staged.stage (fun () ->
         Model_repair.repair ~starts:4 ~base:(Lazy.force wsn_base)
           (Lazy.force wsn_chain) (Wsn.property 19) (Wsn.repair_spec wsn_params)))

let bench_e4_parametric_mle =
  Test.make ~name:"e4/parametric MLE (3000 observations)"
    (Staged.stage (fun () ->
         Mle.parametric_mle ~n:9 ~init:8
           ~groups:(Tally.of_groups (Lazy.force data_groups)) ()))

let bench_e4_elimination =
  Test.make ~name:"e4/data-repair elimination f(x)"
    (Staged.stage (fun () ->
         Pquery.of_formula (Lazy.force data_pdtmc) (Wsn.property 19)))

let bench_e4_constraint_eval =
  Test.make ~name:"e4/compiled constraint evaluation"
    (Staged.stage (fun () ->
         let q = Lazy.force data_query in
         q.Pquery.eval (fun v -> if v = "fail_other" then 0.3 else 0.1)))

let bench_e5_irl =
  Test.make ~name:"e5/maxent IRL (expert demo, 50 iters)"
    (Staged.stage (fun () ->
         Irl.learn
           ~options:{ Irl.default_options with iterations = 50 }
           (Lazy.force car_mdp) (Car.expert_traces 5)))

let bench_e5_repair =
  Test.make ~name:"e5/reward repair (Q-constraint) backend=qp"
    (Staged.stage (fun () ->
         Reward_repair.repair_q ~gamma:0.9 (Lazy.force car_mdp)
           ~theta:(Lazy.force car_theta)
           ~constraints:[ Car.unsafe_q_constraint ]))

let bench_e6_projection =
  let trajs =
    lazy
      (let rng = Prng.create 7 in
       Reward_repair.sample_trajectories rng (Lazy.force car_mdp)
         ~theta:(Lazy.force car_theta) ~horizon:8 ~count:150)
  in
  Test.make ~name:"e6/Prop.4 projection (150 trajectories)"
    (Staged.stage (fun () ->
         Reward_repair.projection_weights (Lazy.force car_mdp)
           ~theta:(Lazy.force car_theta)
           ~rules:[ (Car.safety_rule, 10.0) ]
           (Lazy.force trajs)))

let bench_f1_value_iteration =
  Test.make ~name:"f1/car value iteration (gamma=0.9)"
    (Staged.stage (fun () ->
         Value.value_iteration ~gamma:0.9
           (Irl.apply_reward (Lazy.force car_mdp) (Lazy.force car_theta))))

let experiment_benches =
  [ bench_e1; bench_e2_elimination; bench_e2_repair; bench_e3_repair;
    bench_e4_parametric_mle; bench_e4_elimination; bench_e4_constraint_eval;
    bench_e5_irl; bench_e5_repair; bench_e6_projection;
    bench_f1_value_iteration;
  ]

(* Ablations (DESIGN.md §5). *)

let e2_nlp_with method_ =
  Model_repair.repair ~solver:method_ ~starts:4 ~base:(Lazy.force wsn_base)
    (Lazy.force wsn_chain) (Wsn.property 40) (Wsn.repair_spec wsn_params)

let ablation_benches =
  [ Test.make ~name:"ablation/optimizer=penalty backend=nlp"
      (Staged.stage (fun () -> e2_nlp_with Nlp.Penalty));
    Test.make ~name:"ablation/optimizer=auglag backend=nlp"
      (Staged.stage (fun () -> e2_nlp_with Nlp.Augmented_lagrangian));
    Test.make ~name:"ablation/elim-order=min-degree"
      (Staged.stage (fun () ->
           Elimination.reachability_probability ~order:Elimination.Min_degree
             (Lazy.force wsn_parametric) ~target:[ 0 ]));
    Test.make ~name:"ablation/elim-order=ascending"
      (Staged.stage (fun () ->
           Elimination.reachability_probability ~order:Elimination.Ascending
             (Lazy.force wsn_parametric) ~target:[ 0 ]));
    Test.make ~name:"ablation/elim-order=descending"
      (Staged.stage (fun () ->
           Elimination.reachability_probability ~order:Elimination.Descending
             (Lazy.force wsn_parametric) ~target:[ 0 ]));
  ]

(* Scaling: WSN grid side 2..4 (a 16-state model with 2 parameters is
   already a substantial exact elimination). *)

let scale_benches =
  List.map
    (fun n ->
       let params = { wsn_params with Wsn.n } in
       let pm =
         lazy
           (Model_repair.parametric_model (Pdtmc.of_dtmc (Wsn.chain params))
              (Wsn.repair_spec params))
       in
       Test.make ~name:(Printf.sprintf "scale/wsn-grid n=%d" n)
         (Staged.stage (fun () ->
              Elimination.expected_reward (Lazy.force pm) ~target:[ 0 ])))
    [ 2; 3 ]

(* n = 4 is ~1000x costlier (exact rational functions grow fast without
   multivariate GCD) — measured once rather than under bechamel's sampler. *)
let one_shot_n4 () =
  let params = { wsn_params with Wsn.n = 4 } in
  let pm =
    Model_repair.parametric_model (Pdtmc.of_dtmc (Wsn.chain params))
      (Wsn.repair_spec params)
  in
  let t0 = Unix.gettimeofday () in
  let f = Elimination.expected_reward pm ~target:[ 0 ] in
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "  %-45s %8.3f s  (one shot; %d+%d terms)@\n"
    "scale/wsn-grid n=4" dt
    (Poly.num_terms (Ratfun.num f))
    (Poly.num_terms (Ratfun.den f))

(* Figure-style series: the λ sweep of Prop. 4 (how fast violating mass
   dies as the rule weight grows) and the MLE-smoothing sweep (how Laplace
   smoothing shifts the learned WSN chain's expected attempts). *)

let lambda_sweep () =
  let m = Lazy.force car_mdp in
  let theta = Lazy.force car_theta in
  let rng = Prng.create 7 in
  let trajs =
    Reward_repair.sample_trajectories rng m ~theta ~horizon:8 ~count:300
  in
  let labels = Mdp.has_label m in
  let violating tr = not (Trace_logic.eval ~labels tr Car.safety_rule) in
  Format.printf "@\n-- series: Prop.4 lambda sweep (violating mass) --------@\n";
  Format.printf "  %-8s %s@\n" "lambda" "violating mass";
  List.iter
    (fun lambda ->
       let weighted =
         Reward_repair.projection_weights m ~theta
           ~rules:[ (Car.safety_rule, lambda) ]
           trajs
       in
       let mass =
         List.fold_left
           (fun acc (tr, w) -> if violating tr then acc +. w else acc)
           0.0 weighted
       in
       Format.printf "  %-8g %.6f@\n" lambda mass)
    [ 0.0; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0 ]

let smoothing_sweep () =
  let truth = Lazy.force wsn_chain in
  let rng = Prng.create 5 in
  let traces =
    List.init 400 (fun _ ->
        Trace.of_states (Dtmc.simulate rng truth ~max_steps:400 ()))
  in
  let support = List.map (fun (s, d, _) -> (s, d)) (Dtmc.raw_transitions truth) in
  Format.printf "@\n-- series: MLE smoothing sweep (learned E[attempts]) ----@\n";
  Format.printf "  %-8s %-14s %s@\n" "alpha" "E[attempts]" "R<=100 holds";
  List.iter
    (fun alpha ->
       let learned =
         Mle.learn_dtmc ~n:9 ~init:8
           ~labels:[ ("delivered", [ 0 ]) ]
           ~rewards:(Array.init 9 (fun s -> if s = 0 then 0.0 else 1.0))
           ~smoothing:alpha ~support (Tally.of_traces traces)
       in
       let e =
         Check_dtmc.reachability_reward_from_init learned (Prop "delivered")
       in
       Format.printf "  %-8g %-14.2f %b@\n" alpha e
         (Check_dtmc.check learned (Wsn.property 100)))
    [ 0.0; 0.1; 1.0; 10.0; 100.0 ]

(* Substrate micro-benchmarks. *)

let substrate_benches =
  let a = Bigint.of_string "123456789012345678901234567890123456789" in
  let b = Bigint.of_string "987654321098765432109876543210" in
  let p1 = Poly.pow Poly.(var "x" + var "y" + one) 6 in
  let p2 = Poly.pow Poly.(var "x" - var "y") 5 in
  let traces =
    lazy
      (let rng = Prng.create 5 in
       List.init 800 (fun _ ->
           Trace.of_states
             (Dtmc.simulate rng (Lazy.force wsn_chain) ~max_steps:400 ())))
  in
  [ Test.make ~name:"substrate/bigint mul (39x30 digits)"
      (Staged.stage (fun () -> Bigint.mul a b));
    Test.make ~name:"substrate/bigint divmod"
      (Staged.stage (fun () -> Bigint.divmod a b));
    Test.make ~name:"substrate/poly mul (28x6 terms)"
      (Staged.stage (fun () -> Poly.mul p1 p2));
    Test.make ~name:"substrate/pctl check (wsn reward)"
      (Staged.stage (fun () ->
           Check_dtmc.reachability_reward_from_init (Lazy.force wsn_chain)
             (Prop "delivered")));
    Test.make ~name:"substrate/mle (800 traces)"
      (Staged.stage (fun () ->
           Mle.learn_dtmc ~n:9 ~init:8 (Tally.of_traces (Lazy.force traces))));
    Test.make ~name:"substrate/bisim quotient (wsn chain)"
      (Staged.stage (fun () -> Bisimulation.quotient (Lazy.force wsn_chain)));
    Test.make ~name:"substrate/smc estimate (2000 samples)"
      (let rng = Prng.create 31 in
       Staged.stage (fun () ->
           Smc.estimate ~samples:2000 rng (Lazy.force wsn_chain)
             (Eventually (Prop "delivered"))));
    Test.make ~name:"substrate/robust reachability (wsn +-0.01)"
      (let ball = lazy (Idtmc.of_dtmc ~radius:0.01 (Lazy.force wsn_chain)) in
       Staged.stage (fun () ->
           Robust.reachability Robust.Pessimistic (Lazy.force ball) ~target:[ 0 ]));
  ]

(* Region-lifting section (lib/region): the bound propagator, the
   verify loop and a full certified repair, all on the 2x2 WSN grid so
   the tracked perf gate stays cheap.  The repair bench carries its
   backend in the name, like every repair row. *)

let region_n2 =
  lazy
    (let params = { wsn_params with Wsn.n = 2 } in
     let chain = Wsn.chain params in
     let spec = Wsn.repair_spec params in
     let vars = List.map (fun (v, _, _) -> v) spec.Model_repair.variables in
     let pm = Model_repair.parametric_model (Pdtmc.of_dtmc chain) spec in
     let query = Pquery.of_formula pm (Wsn.property 16) in
     let c = Region_verify.of_query ~vars query in
     let box = Box.make spec.Model_repair.variables in
     (chain, spec, c, box))

let region_benches =
  [ Test.make ~name:"region/bounder bounds f(p,q) wsn n=2"
      (Staged.stage (fun () ->
           let _, _, c, box = Lazy.force region_n2 in
           Bounder.bounds c.Region_verify.bounder box));
    Test.make ~name:"region/analyze wsn n=2 (X=16)"
      (Staged.stage (fun () ->
           let _, _, c, box = Lazy.force region_n2 in
           Region_verify.analyze [ c ] box));
    Test.make ~name:"region/model repair wsn n=2 (X=19) backend=region"
      (Staged.stage (fun () ->
           let chain, spec, _, _ = Lazy.force region_n2 in
           Model_repair.repair ~backend:Repair_backend.Region
             ~base:(Pdtmc.of_dtmc chain) chain (Wsn.property 19) spec));
  ]

(* Symbolic-kernel section: the exact-arithmetic layers behind state
   elimination — interned monomials, the small-rational fast path,
   Karatsuba bigint multiplication and the arena evaluator.  Together
   with the e2/e4 experiment benches these form the tracked set that
   `--perf-check` gates against bench/results/baseline.json. *)

let symbolic_kernel_benches =
  let repeat s k = String.concat "" (List.init k (fun _ -> s)) in
  (* ~480 digits each: ~52 base-2^31 limbs, well above the Karatsuba
     threshold *)
  let big_a = Bigint.of_string (repeat "123456789012345678901234567890" 16) in
  let big_b = Bigint.of_string (repeat "987654321098765432109876543210" 16) in
  let p84 = Poly.pow Poly.(var "x" + var "y" + var "z" + one) 6 in
  let p15 = Poly.pow Poly.(var "x" - (var "y" * var "z") + one) 4 in
  (* numerator and denominator just under the 2^30 small-path bound, so
     the product overflows the fast path and promotes to bignums *)
  let boundary = Ratio.of_ints ((1 lsl 30) - 35) ((1 lsl 30) - 41) in
  let e4_violation =
    lazy
      (let q = Lazy.force data_query in
       let vars = Ratfun.vars q.Pquery.value in
       let x =
         Array.of_list
           (List.map (fun v -> if v = "fail_other" then 0.3 else 0.1) vars)
       in
       (Pquery.compile_violation q ~vars, x))
  in
  let e4_grad =
    lazy
      (let q = Lazy.force data_query in
       let a = q.Pquery.arena in
       let x =
         Array.map
           (fun v -> if v = "fail_other" then 0.3 else 0.1)
           (Arena.vars a)
       in
       (a, x))
  in
  [ Test.make ~name:"symbolic/ratio small-path sum (harmonic 100)"
      (Staged.stage (fun () ->
           let acc = ref Ratio.zero in
           for k = 1 to 100 do
             acc := Ratio.add !acc (Ratio.of_ints 1 k)
           done;
           !acc));
    Test.make ~name:"symbolic/ratio promotion-boundary mul"
      (Staged.stage (fun () -> Ratio.mul boundary boundary));
    Test.make ~name:"symbolic/ratio pow (3/7)^12"
      (let r = Ratio.of_ints 3 7 in
       Staged.stage (fun () -> Ratio.pow r 12));
    Test.make ~name:"symbolic/bigint karatsuba mul (480x480 digits)"
      (Staged.stage (fun () -> Bigint.mul big_a big_b));
    Test.make ~name:"symbolic/poly mul interned (84x15 terms)"
      (Staged.stage (fun () -> Poly.mul p84 p15));
    Test.make ~name:"symbolic/poly pow (x+y+1)^8"
      (let base = Poly.(var "x" + var "y" + one) in
       Staged.stage (fun () -> Poly.pow base 8));
    Test.make ~name:"symbolic/arena violation eval (e4)"
      (Staged.stage (fun () ->
           let f, x = Lazy.force e4_violation in
           f x));
    Test.make ~name:"symbolic/arena gradient (e4)"
      (Staged.stage (fun () ->
           let a, x = Lazy.force e4_grad in
           Arena.eval_grad a x));
  ]

(* ------------------------------------------------------------------ *)
(* Runtime scaling: the concurrent job engine vs a naive sequential     *)
(* loop on the same batch workload.                                     *)
(* ------------------------------------------------------------------ *)

(* Eight model-repair jobs against bounds the WSN chain violates
   (E[attempts] ~ 47.1), so every job runs the full repair path.  They
   share one parametric model, so the runtime's elimination cache turns
   eight eliminations into one. *)
let runtime_jobs () =
  let chain = Lazy.force wsn_chain in
  let spec = Wsn.repair_spec wsn_params in
  List.map
    (fun b -> Job.Model_repair
       {
         model = chain;
         phi = Wsn.property b;
         spec;
         starts = 4;
         backend = Repair_backend.Nlp_solver;
       })
    [ 35; 36; 37; 38; 39; 40; 41; 42 ]

type runtime_run = {
  rname : string;
  workers : int;  (** domain count the row actually ran with *)
  seconds : float;
  identical : bool;  (** results byte-identical to the sequential loop *)
}

type runtime_report = {
  cores : int;
  runs : runtime_run list;
  speedup : float;  (** naive sequential / cached runtime, 1 worker *)
  elim_cache : Lru_cache.counters;
}

let runtime_scaling () =
  let jobs = runtime_jobs () in
  let render o = Format.asprintf "%a" Job.pp_outcome o in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* No runtime exists here, so no elimination memo is installed: this is
     the uncached one-shot pipeline, once per job. *)
  let reference, t_naive = timed (fun () -> List.map render (List.map Job.run jobs)) in
  let batch rt =
    List.map
      (function Future.Value o -> render o | _ -> "<not a value>")
      (Runtime.run_batch rt jobs)
  in
  let with_workers w =
    Runtime.with_runtime ~workers:w (fun rt ->
        let cold, t_cold = timed (fun () -> batch rt) in
        let warm, t_warm = timed (fun () -> batch rt) in
        ((cold = reference && warm = reference, t_cold, t_warm),
         Runtime.elim_cache_counters rt))
  in
  let (ok1, t1_cold, t1_warm), elim_cache = with_workers 1 in
  let (ok4, t4_cold, t4_warm), _ = with_workers 4 in
  let runs =
    [ { rname = "naive sequential (no cache)"; workers = 1; seconds = t_naive;
        identical = true };
      { rname = "runtime, 1 worker, cold"; workers = 1; seconds = t1_cold;
        identical = ok1 };
      { rname = "runtime, 1 worker, repeat"; workers = 1; seconds = t1_warm;
        identical = ok1 };
      { rname = "runtime, 4 workers, cold"; workers = 4; seconds = t4_cold;
        identical = ok4 };
      { rname = "runtime, 4 workers, repeat"; workers = 4; seconds = t4_warm;
        identical = ok4 };
    ]
  in
  let report =
    {
      cores = Domain.recommended_domain_count ();
      runs;
      speedup = t_naive /. t1_cold;
      elim_cache;
    }
  in
  Format.printf
    "@\n-- runtime scaling (8 wsn model-repair jobs, %d core%s) --@\n"
    report.cores (if report.cores = 1 then "" else "s");
  List.iter
    (fun r ->
       Format.printf "  %-45s %8.3f s  %s@\n" r.rname r.seconds
         (if r.identical then "" else "(MISMATCH vs sequential)"))
    runs;
  Format.printf "  elimination coalescing: %.2fx vs naive@\n" report.speedup;
  Format.printf "  elimination cache: %d hit(s), %d miss(es)@\n"
    elim_cache.Lru_cache.hits elim_cache.Lru_cache.misses;
  Format.print_flush ();
  report

(* ------------------------------------------------------------------ *)
(* Region lifting: certificates per grid side                           *)
(* ------------------------------------------------------------------ *)

type region_row = {
  zname : string;
  zbackend : string;
  zregions : int;
  zdecided : float;  (** decided-volume fraction of the certificate *)
  zgap : float;  (** certified relative optimality gap (0 for verify rows) *)
  zseconds : float;  (** wall time to the certificate *)
}

(* One shot per row, like [one_shot_n4]: a certificate is a terminal
   artefact, so time-to-certificate is the honest measure (bechamel
   sampling would amortise the elimination that dominates larger grids). *)
let region_lifting_report () =
  let timed name backend f =
    let t0 = Unix.gettimeofday () in
    let zregions, zdecided, zgap = f () in
    { zname = name; zbackend = backend; zregions; zdecided; zgap;
      zseconds = Unix.gettimeofday () -. t0 }
  in
  let verify_row n bound =
    timed (Printf.sprintf "wsn n=%d verify (X=%d)" n bound) "region"
      (fun () ->
         let params = { wsn_params with Wsn.n } in
         let spec = Wsn.repair_spec params in
         let vars = List.map (fun (v, _, _) -> v) spec.Model_repair.variables in
         let pm = Model_repair.parametric_model
           (Pdtmc.of_dtmc (Wsn.chain params)) spec in
         let query = Pquery.of_formula pm (Wsn.property bound) in
         let c = Region_verify.of_query ~vars query in
         let a = Region_verify.analyze [ c ] (Box.make spec.Model_repair.variables) in
         let cert = a.Region_verify.certificate in
         (cert.Region_verify.regions_explored,
          cert.Region_verify.decided_fraction, 0.0))
  in
  let repair_row n bound =
    timed (Printf.sprintf "wsn n=%d model repair (X=%d)" n bound) "region"
      (fun () ->
         let params = { wsn_params with Wsn.n } in
         let chain = Wsn.chain params in
         match
           Model_repair.repair ~backend:Repair_backend.Region
             ~base:(Pdtmc.of_dtmc chain) chain (Wsn.property bound)
             (Wsn.repair_spec params)
         with
         | Model_repair.Repaired { certificate = Some c; _ } ->
           (c.Region_repair.regions_explored, c.Region_repair.decided_fraction,
            c.Region_repair.optimality_gap)
         | _ -> (0, 0.0, 0.0))
  in
  let rows =
    [ verify_row 2 16; repair_row 2 19; verify_row 3 40; repair_row 3 40 ]
  in
  Format.printf "@\n-- region lifting (certificates, one shot) -------------@\n";
  Format.printf "  %-38s %8s %9s %7s %9s@\n" "" "regions" "decided" "gap"
    "time";
  List.iter
    (fun r ->
       Format.printf "  %-38s %8d %8.1f%% %6.2f%% %8.3f s@\n" r.zname
         r.zregions (100.0 *. r.zdecided) (100.0 *. r.zgap) r.zseconds)
    rows;
  Format.print_flush ();
  rows

(* ------------------------------------------------------------------ *)
(* Kernel scaling ladder: one microbench per symbolic-kernel primitive  *)
(* at 1/2/4/8 domains.                                                  *)
(* ------------------------------------------------------------------ *)

type kernel_rung = {
  k_domains : int;
  k_skipped : bool;  (** rung above [Domain.recommended_domain_count] *)
  k_ns_per_op : float;  (** wall time per op as seen by one domain *)
  k_ops_per_s : float;  (** aggregate throughput across the domains *)
  k_scaling_x : float;  (** throughput relative to this bench's 1-domain rung *)
}

type kernel_bench = {
  k_name : string;
  k_iters : int;  (** calibrated per-domain iterations per measurement *)
  k_rungs : kernel_rung list;
}

(* The primitives that concurrent jobs' state eliminations share, chosen
   so each rung hammers one shared-kernel layer: interned-monomial products (the
   sharded global cons cache), small-rational arithmetic, a whole
   min-degree elimination (every layer at once), and the compiled arena
   evaluator (the NLP multistart inner loop).  Everything is built
   eagerly here — the ops run in freshly spawned domains, and forcing a
   shared lazy from several domains at once is not safe. *)
let kernel_primitives () =
  let p84 = Poly.pow Poly.(var "x" + var "y" + var "z" + one) 6 in
  let p15 = Poly.pow Poly.(var "x" - (var "y" * var "z") + one) 4 in
  let n2_pm =
    let params = { wsn_params with Wsn.n = 2 } in
    Model_repair.parametric_model (Pdtmc.of_dtmc (Wsn.chain params))
      (Wsn.repair_spec params)
  in
  let e4_violation, e4_x =
    let q = Lazy.force data_query in
    let vars = Ratfun.vars q.Pquery.value in
    let x =
      Array.of_list
        (List.map (fun v -> if v = "fail_other" then 0.3 else 0.1) vars)
    in
    (Pquery.compile_violation q ~vars, x)
  in
  [ ( "mono mul (84x15-term product)",
      fun () -> ignore (Poly.mul p84 p15 : Poly.t) );
    ( "ratio add (harmonic 100)",
      fun () ->
        let acc = ref Ratio.zero in
        for k = 1 to 100 do
          acc := Ratio.add !acc (Ratio.of_ints 1 k)
        done;
        ignore (!acc : Ratio.t) );
    ( "eliminate (wsn n=2, min-degree)",
      fun () ->
        ignore
          (Elimination.reachability_probability ~order:Elimination.Min_degree
             n2_pm ~target:[ 0 ]
            : Ratfun.t) );
    ( "arena eval (e4 violation)",
      fun () -> ignore (e4_violation e4_x : float) );
  ]

let kernel_rung_targets = [ 1; 2; 4; 8 ]

let kernel_scaling_ladder () =
  let cores = Domain.recommended_domain_count () in
  (* d domains, each completing [iters] ops; the measurement is the wall
     time from first spawn to last join *)
  let time_batch d op iters =
    let loop () =
      for _ = 1 to iters do
        op ()
      done
    in
    let t0 = Unix.gettimeofday () in
    if d = 1 then loop ()
    else begin
      let doms = List.init d (fun _ -> Domain.spawn loop) in
      List.iter Domain.join doms
    end;
    Unix.gettimeofday () -. t0
  in
  let bench (name, op) =
    op ();  (* warm the cons caches and any one-time setup *)
    let t1 =
      let t0 = Unix.gettimeofday () in
      op ();
      Unix.gettimeofday () -. t0
    in
    (* aim for ~0.2 s per measurement *)
    let iters =
      max 10 (min 2_000_000 (int_of_float (0.2 /. Float.max 1e-9 t1)))
    in
    let base = ref Float.nan in
    let rungs =
      List.map
        (fun d ->
           if d > cores then
             (* never fabricate a rung the machine cannot run: record it
                as skipped so the JSON stays honest on small hosts *)
             { k_domains = d; k_skipped = true; k_ns_per_op = Float.nan;
               k_ops_per_s = Float.nan; k_scaling_x = Float.nan }
           else begin
             (* best of three: one descheduled domain would otherwise
                read as a kernel regression *)
             let wall =
               List.fold_left Float.min Float.infinity
                 (List.init 3 (fun _ -> time_batch d op iters))
             in
             let ops_per_s = float_of_int (d * iters) /. wall in
             if d = 1 then base := ops_per_s;
             { k_domains = d; k_skipped = false;
               k_ns_per_op = wall *. 1e9 /. float_of_int iters;
               k_ops_per_s = ops_per_s;
               k_scaling_x = ops_per_s /. !base }
           end)
        kernel_rung_targets
    in
    { k_name = name; k_iters = iters; k_rungs = rungs }
  in
  let report = List.map bench (kernel_primitives ()) in
  Format.printf
    "@\n-- kernel scaling ladder (%d core%s available) -----------@\n" cores
    (if cores = 1 then "" else "s");
  List.iter
    (fun kb ->
       Format.printf "  %s (%d iters/domain)@\n" kb.k_name kb.k_iters;
       List.iter
         (fun r ->
            if r.k_skipped then
              Format.printf "    %d domain(s): skipped (only %d core%s)@\n"
                r.k_domains cores
                (if cores = 1 then "" else "s")
            else
              Format.printf
                "    %d domain(s): %10.1f ns/op  %12.0f ops/s  %5.2fx@\n"
                r.k_domains r.k_ns_per_op r.k_ops_per_s r.k_scaling_x)
         kb.k_rungs)
    report;
  Format.print_flush ();
  report

(* ------------------------------------------------------------------ *)
(* Span-derived stage breakdown                                         *)
(* ------------------------------------------------------------------ *)

type breakdown_row = { bname : string; bcount : int; btotal_s : float }

(* One traced 1-worker pass over the same batch workload: where does the
   wall time of a cold batch actually go?  Runs AFTER the untraced
   [runtime_scaling] measurements so tracing overhead (small, but not
   zero) cannot leak into them.  Aggregated per span name from the
   drained trace, not from the stage histograms, so nested work (cache
   fills inside retries, NLP rungs inside solve) is attributed too. *)
let stage_breakdown () =
  Trace_span.enable ();
  let spans =
    Fun.protect
      ~finally:(fun () -> Trace_span.disable ())
      (fun () ->
         Runtime.with_runtime ~workers:1 (fun rt ->
             ignore (Runtime.run_batch rt (runtime_jobs ())));
         Trace_span.drain ())
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace_span.t) ->
       let c, t =
         Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.Trace_span.name)
       in
       Hashtbl.replace tbl s.Trace_span.name
         (c + 1, t +. s.Trace_span.dur_s))
    spans;
  let rows =
    Hashtbl.fold
      (fun bname (bcount, btotal_s) acc -> { bname; bcount; btotal_s } :: acc)
      tbl []
    |> List.sort (fun a b ->
        match compare b.btotal_s a.btotal_s with
        | 0 -> compare a.bname b.bname
        | c -> c)
  in
  Format.printf "@\n-- stage breakdown (traced 1-worker cold batch) ---------@\n";
  List.iter
    (fun r ->
       Format.printf "  %-45s %5d x %10.3f s@\n" r.bname r.bcount r.btotal_s)
    rows;
  Format.print_flush ();
  rows

(* ------------------------------------------------------------------ *)
(* Server throughput: N concurrent clients against a live `tml serve`   *)
(* instance (in-process, Unix socket) checking WSN reward bounds.       *)
(* ------------------------------------------------------------------ *)

type server_report = {
  sclients : int;
  srequests : int;
  sfailures : int;
  sseconds : float;
  rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

(* 24 distinct bounds cycled across the clients: repeats of a digest are
   deduplicated server-side, so the mix exercises both the submit path
   and the report/LRU cache path, like a real fleet of callers would *)
let wsn_requests total =
  let model = Dtmc_io.to_string (Lazy.force wsn_chain) in
  Array.init total (fun i ->
      Wire.Check_req
        { model; phi = Printf.sprintf "R<=%d [ F delivered ]" (80 + (i mod 24)) })

(* [clients] threads each running [per_client] submit+wait pairs against
   the server at Unix-socket [path]: returns (failures, wall seconds,
   latencies sorted ascending). *)
let client_batch ~clients ~per_client ~reqs path =
  let total = clients * per_client in
  let latencies = Array.make total 0.0 in
  let failures = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let worker c =
    Client.with_client (`Unix path) @@ fun cl ->
    for k = 0 to per_client - 1 do
      let idx = (c * per_client) + k in
      let s = Unix.gettimeofday () in
      (match Client.run cl reqs.(idx) with
       | _, Wire.Job_done _ -> ()
       | _ -> Atomic.incr failures
       | exception _ -> Atomic.incr failures);
      latencies.(idx) <- Unix.gettimeofday () -. s
    done
  in
  let threads = List.init clients (fun c -> Thread.create worker c) in
  List.iter Thread.join threads;
  let seconds = Unix.gettimeofday () -. t0 in
  Array.sort compare latencies;
  (Atomic.get failures, seconds, latencies)

let batch_report ~clients ~total (failures, seconds, latencies) =
  let pct q =
    latencies.(min (total - 1) (int_of_float (q *. float_of_int (total - 1))))
    *. 1e3
  in
  {
    sclients = clients;
    srequests = total;
    sfailures = failures;
    sseconds = seconds;
    rps = float_of_int total /. seconds;
    p50_ms = pct 0.50;
    p95_ms = pct 0.95;
    p99_ms = pct 0.99;
  }

let server_throughput ?(clients = 8) ?(per_client = 25) () =
  let total = clients * per_client in
  let reqs = wsn_requests total in
  Runtime.with_runtime ~workers:4 @@ fun rt ->
  let router = Router.create rt in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tml-bench-%d.sock" (Unix.getpid ()))
  in
  let server = Server.start ~handler:(Server.handler_of_router router) (`Unix path) in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let report =
    batch_report ~clients ~total (client_batch ~clients ~per_client ~reqs path)
  in
  Format.printf
    "@\n-- server throughput (%d clients x %d reqs, unix socket) --@\n"
    clients per_client;
  Format.printf "  %-20s %d requests in %.3f s  (%.1f req/s)@\n" "total"
    report.srequests report.sseconds report.rps;
  Format.printf "  %-20s p50 %.2f ms   p95 %.2f ms   p99 %.2f ms@\n" "latency"
    report.p50_ms report.p95_ms report.p99_ms;
  Format.printf "  %-20s %d@\n" "dropped responses" report.sfailures;
  Format.print_flush ();
  report

(* ------------------------------------------------------------------ *)
(* Event-loop serving core: warm throughput + held-connection ladder    *)
(* ------------------------------------------------------------------ *)

type held_run = {
  h_target : int;  (** connections the holder process was asked to open *)
  h_held : int;  (** connections the server actually had open *)
  h_requests : int;
  h_failures : int;
  h_seconds : float;
  h_rps : float;
  h_p99_ms : float;
}

type event_loop_report = {
  el_backend : string;  (** which {!Poll} backend the loops ran on *)
  el_loops : int;
  el_throughput : server_report;  (** warm 8-client lockstep RPC rate *)
  el_pipelined : server_report;
      (** same workload with each client pipelining its window
          ([Client.pipeline]): the event-driven core's headline rate *)
  el_held : held_run list;
}

(* The same submit+wait workload, but each client fires its whole window
   as two pipelined bursts (all submits, then all waits) instead of 2N
   lockstep round-trips.  A request's latency spans from the burst start
   to its wait reply, so queueing inside the window is charged to it. *)
(* The pipelined mode drives all [clients] connections from a single
   thread over [Unix.select]: each connection gets its whole request
   window in one write burst, and replies are decoded as readiness
   reports them.  One thread, deliberately — real clients are separate
   processes, so [clients] threads sharing this process's runtime lock
   would serialize their decode work through a lock convoy and measure
   the harness, not the server.  Latency here spans burst write to reply
   decode, so it reads as batch wall time rather than per-RPC time:
   pipelining trades per-request latency for throughput. *)
let pipelined_batch ~clients ~per_client ~reqs path =
  let total = clients * per_client in
  let latencies = Array.make total 0.0 in
  let failures = ref 0 in
  let fds =
    Array.init clients (fun _ ->
        let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
  @@ fun () ->
  let digests = Array.make total "" in
  let rbuf = Bytes.create 65536 in
  let fd_index = Hashtbl.create clients in
  Array.iteri (fun c fd -> Hashtbl.replace fd_index fd c) fds;
  (* one phase: burst every connection's window, then read replies until
     every window is answered.  [mk c k] builds request [k] of client
     [c]; [on_reply c i resp] sees reply [i] in order. *)
  let run_phase ~first_id ~mk ~on_reply =
    let decs =
      Array.init clients (fun _ -> Wire.Decoder.create ())
    in
    Array.iteri
      (fun c fd ->
         Wire.write_frames fd
           (List.init per_client (fun k ->
                Wire.request_to_json ~id:(first_id + k) (mk c k))))
      fds;
    let got = Array.make clients 0 in
    let unfinished () =
      Array.to_list
        (Array.of_seq
           (Seq.filter_map
              (fun c -> if got.(c) < per_client then Some fds.(c) else None)
              (Seq.init clients Fun.id)))
    in
    let deadline = Unix.gettimeofday () +. 30.0 in
    let rec pump pending =
      match pending with
      | [] -> ()
      | pending ->
        if Unix.gettimeofday () > deadline then
          failwith "pipelined batch stalled";
        (match Unix.select pending [] [] 30.0 with
         | exception Unix.Unix_error (EINTR, _, _) -> pump pending
         | readable, _, _ ->
           List.iter
             (fun fd ->
                let c = Hashtbl.find fd_index fd in
                match Unix.read fd rbuf 0 (Bytes.length rbuf) with
                | 0 ->
                  (* peer hung up mid-window: every outstanding reply on
                     this connection is a dropped response *)
                  failures := !failures + (per_client - got.(c));
                  got.(c) <- per_client
                | n ->
                  Wire.Decoder.feed decs.(c) rbuf 0 n;
                  let rec drain () =
                    if got.(c) < per_client then
                      match Wire.Decoder.next decs.(c) with
                      | `Await -> ()
                      | `Oversized _ ->
                        incr failures;
                        got.(c) <- got.(c) + 1;
                        drain ()
                      | `Frame j ->
                        let _, resp = Wire.response_of_json j in
                        on_reply c got.(c) resp;
                        got.(c) <- got.(c) + 1;
                        drain ()
                  in
                  drain ()
                | exception Unix.Unix_error (EINTR, _, _) -> ())
             readable;
           pump (unfinished ()))
    in
    pump (unfinished ())
  in
  let t0 = Unix.gettimeofday () in
  run_phase ~first_id:1
    ~mk:(fun c k -> Wire.Submit reqs.((c * per_client) + k))
    ~on_reply:(fun c i r ->
      match r with
      | Wire.Accepted { job; _ } -> digests.((c * per_client) + i) <- job
      | _ -> incr failures);
  let t_waits = Unix.gettimeofday () in
  run_phase ~first_id:(per_client + 1)
    ~mk:(fun c k -> Wire.Wait (digests.((c * per_client) + k), Some 30.0))
    ~on_reply:(fun c i r ->
      latencies.((c * per_client) + i) <- Unix.gettimeofday () -. t_waits;
      match r with
      | Wire.Status { state = Wire.Job_done _; _ } -> ()
      | _ -> incr failures);
  let seconds = Unix.gettimeofday () -. t0 in
  Array.sort compare latencies;
  (!failures, seconds, latencies)

(* Hidden child mode (`--hold-conns SOCK N`): open N idle connections to
   the Unix socket at SOCK, report readiness on stdout, and hold them all
   until stdin closes.  A separate process, so the held client-side fds
   don't count against the bench process's RLIMIT_NOFILE (the server side
   of each connection already lives in the bench process). *)
let hold_conns_child sock n : unit =
  ignore (Poll.raise_nofile (n + 64));
  let sa = Unix.ADDR_UNIX sock in
  let connect () =
    (* the server drains its accept backlog in 64-connection bursts, so a
       burst of thousands of connects can transiently fill the listen
       queue — retry the transient errnos with a small pause *)
    let rec go attempts =
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      match Unix.connect fd sa with
      | () -> fd
      | exception
          Unix.Unix_error
            ((ECONNREFUSED | EAGAIN | ECONNRESET | ENOBUFS), _, _)
        when attempts < 500 ->
        Unix.close fd;
        Thread.delay 0.01;
        go (attempts + 1)
    in
    go 0
  in
  let fds = Array.init n (fun _ -> connect ()) in
  print_string "ready\n";
  flush stdout;
  let buf = Bytes.create 1 in
  let rec hold () = if Unix.read Unix.stdin buf 0 1 > 0 then hold () in
  (try hold () with _ -> ());
  Array.iter (fun fd -> try Unix.close fd with _ -> ()) fds;
  exit 0

(* Spawn the holder child, wait for its readiness line, run [f], then
   release the connections by closing the child's stdin. *)
let with_held_conns path n f =
  (* cloexec: the child must NOT inherit the originals (create_process
     dup2s them onto its stdio, which clears the flag there) — an
     inherited copy of [in_w] would keep the child's stdin from ever
     reaching EOF, so it would hold its connections forever *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--hold-conns"; path; string_of_int n |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close in_w with Unix.Unix_error _ -> ());
      (try Unix.close out_r with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
  @@ fun () ->
  let buf = Bytes.create 64 in
  let rec await () =
    match Unix.read out_r buf 0 64 with
    | 0 -> failwith "hold-conns child exited before becoming ready"
    | k -> if not (Bytes.exists (Char.equal '\n') (Bytes.sub buf 0 k)) then await ()
    | exception Unix.Unix_error (EINTR, _, _) -> await ()
  in
  await ();
  f ()

(* Hidden child mode (`--serve-child SOCK`): run a full router-backed
   server on SOCK in a process of its own, exactly as `tml serve` deploys
   it.  In-process serving couples the harness's GC to the server's —
   every minor collection in either domain stops the world across both,
   and on one core each stop-the-world handshake costs a scheduling
   quantum — so an in-process measurement understates the serving core by
   2-3x.  The child also takes a larger minor heap: fewer collections
   means fewer cross-domain pauses between its own loops. *)
let serve_child sock : unit =
  Gc.set { (Gc.get ()) with minor_heap_size = 8 * 1024 * 1024 };
  ignore (Poll.raise_nofile 16_384);
  Runtime.with_runtime ~workers:4 (fun rt ->
      let router = Router.create rt in
      let server =
        Server.start ~handler:(Server.handler_of_router router) (`Unix sock)
      in
      print_string "ready\n";
      flush stdout;
      let buf = Bytes.create 1 in
      let rec hold () = if Unix.read Unix.stdin buf 0 1 > 0 then hold () in
      (try hold () with _ -> ());
      Server.stop server);
  exit 0

(* Spawn the server child, wait for readiness, run [f], then shut the
   server down by closing the child's stdin (same lifecycle — and the
   same cloexec trap — as [with_held_conns]). *)
let with_server_child path f =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-child"; path |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close in_w with Unix.Unix_error _ -> ());
      (try Unix.close out_r with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
  @@ fun () ->
  let buf = Bytes.create 64 in
  let rec await () =
    match Unix.read out_r buf 0 64 with
    | 0 -> failwith "serve child exited before becoming ready"
    | k -> if not (Bytes.exists (Char.equal '\n') (Bytes.sub buf 0 k)) then await ()
    | exception Unix.Unix_error (EINTR, _, _) -> await ()
  in
  await ();
  f ()

(* The serving layer's vitals ride in the ["server"] section of a
   [Stats] reply (ignored by clients that don't know it), which is how
   the harness observes the out-of-process server. *)
let stat_num field j =
  match Wire.member field j with Some (Wire.Num f) -> int_of_float f | _ -> 0

let stat_str field j =
  match Wire.member field j with Some (Wire.Str s) -> s | _ -> "unknown"

(* The event-loop acceptance benchmark (ISSUE: `server_event_loop`):
   steady-state request rate over the same 8-client WSN submit+wait
   workload as [server_throughput] — after a warm pass so the measured
   window reflects the serving core rather than first-contact model
   parsing — plus a ladder of runs with 1k and 10k idle connections held
   open by a helper process while requests keep flowing. *)
let server_event_loop ?(clients = 8) ?(per_client = 25)
    ?(held_targets = [ 1_000; 10_000 ]) () =
  let total = clients * per_client in
  let reqs = wsn_requests total in
  ignore (Poll.raise_nofile 16_384);
  (* harness-side GC tuning, mirrored from the serve child: the 8 client
     threads render/parse every frame, and minor collections while the
     server is mid-burst show up directly as tail latency.  Restored on
     exit so later bench sections measure under stock settings. *)
  let stock_gc = Gc.get () in
  Gc.set { stock_gc with minor_heap_size = 8 * 1024 * 1024 };
  Fun.protect ~finally:(fun () -> Gc.set stock_gc) @@ fun () ->
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tml-bench-el-%d.sock" (Unix.getpid ()))
  in
  with_server_child path @@ fun () ->
  Client.with_client (`Unix path) @@ fun stats_cl ->
  let server_stats () =
    match Wire.member "server" (Client.stats stats_cl) with
    | Some section -> section
    | None -> Wire.Null
  in
  let s0 = server_stats () in
  let el_backend = stat_str "backend" s0 in
  let el_loops = max 1 (stat_num "loops" s0) in
  (* minus one: the harness's own stats connection *)
  let connections () = stat_num "connections" (server_stats ()) - 1 in
  let run () =
    batch_report ~clients ~total (client_batch ~clients ~per_client ~reqs path)
  in
  ignore (run ());
  (* best of two warm passes: the gate tracks this number, and a single
     pass on a loaded machine is too noisy for a 20% threshold *)
  let a = run () and b = run () in
  let throughput = if a.rps >= b.rps then a else b in
  let run_pipelined () =
    batch_report ~clients ~total (pipelined_batch ~clients ~per_client ~reqs path)
  in
  (* best of twelve ~7 ms passes: on a single loaded core the scheduler
     can cost any one pass 30-50%, and this is the gated headline *)
  let pipelined =
    List.fold_left
      (fun best r -> if r.rps > best.rps then r else best)
      (run_pipelined ())
      (List.init 11 (fun _ -> Thread.delay 0.005; run_pipelined ()))
  in
  Format.printf
    "@\n-- server event loop (%s, %d loop%s; %d clients x %d reqs, warm) --@\n"
    el_backend el_loops
    (if el_loops = 1 then "" else "s")
    clients per_client;
  Format.printf "  %-20s %d requests in %.3f s  (%.1f req/s)@\n" "lockstep rpc"
    throughput.srequests throughput.sseconds throughput.rps;
  Format.printf "  %-20s p50 %.2f ms   p95 %.2f ms   p99 %.2f ms@\n" "  latency"
    throughput.p50_ms throughput.p95_ms throughput.p99_ms;
  Format.printf "  %-20s %d requests in %.3f s  (%.1f req/s)@\n" "pipelined"
    pipelined.srequests pipelined.sseconds pipelined.rps;
  Format.printf "  %-20s p50 %.2f ms   p95 %.2f ms   p99 %.2f ms@\n" "  latency"
    pipelined.p50_ms pipelined.p95_ms pipelined.p99_ms;
  Format.printf "  %-20s %d@\n" "dropped responses"
    (throughput.sfailures + pipelined.sfailures);
  Format.print_flush ();
  (* the select fallback caps out at FD_SETSIZE fds per poller; keep the
     ladder meaningful rather than guaranteed-failing there *)
  let held_targets =
    if el_backend = "select" then
      List.filter_map
        (fun n -> if n > 512 then None else Some n)
        held_targets
    else held_targets
  in
  let held =
    List.map
      (fun target ->
         let r =
           with_held_conns path target @@ fun () ->
           (* the child's connects are queued/accepted asynchronously;
              wait until the loops have adopted them all *)
           let deadline = Unix.gettimeofday () +. 15.0 in
           let rec settle () =
             let c = connections () in
             if c >= target || Unix.gettimeofday () > deadline then c
             else begin
               Thread.delay 0.02;
               settle ()
             end
           in
           let h_held = settle () in
           let hc = 4 and hp = 25 in
           let hreqs = wsn_requests (hc * hp) in
           let r =
             batch_report ~clients:hc ~total:(hc * hp)
               (client_batch ~clients:hc ~per_client:hp ~reqs:hreqs path)
           in
           {
             h_target = target;
             h_held;
             h_requests = r.srequests;
             h_failures = r.sfailures;
             h_seconds = r.sseconds;
             h_rps = r.rps;
             h_p99_ms = r.p99_ms;
           }
         in
         (* let the server reap the released connections before the next
            rung piles its own on top *)
         let deadline = Unix.gettimeofday () +. 10.0 in
         while connections () > 64 && Unix.gettimeofday () < deadline do
           Thread.delay 0.02
         done;
         Format.printf
           "  %-20s held %d conns; %d reqs at %.1f req/s, p99 %.2f ms, %d dropped@\n"
           (Printf.sprintf "held %d" r.h_target)
           r.h_held r.h_requests r.h_rps r.h_p99_ms r.h_failures;
         Format.print_flush ();
         r)
      held_targets
  in
  { el_backend; el_loops; el_throughput = throughput;
    el_pipelined = pipelined; el_held = held }

(* ------------------------------------------------------------------ *)
(* Fleet throughput: coordinator over N in-process backends             *)
(* ------------------------------------------------------------------ *)

type fleet_run = {
  f_nodes : int;
  f_requests : int;
  f_failures : int;
  f_seconds : float;
  f_rps : float;
  f_p99_ms : float;
}

type fleet_report = {
  f_single : fleet_run;
  f_four : fleet_run;
  f_chaos : fleet_run;
  f_chaos_reroutes : int;  (** re-routes during the chaos run *)
}

(* One coordinator-mediated batch over [nodes] freshly started backend
   servers.  With [chaos] set, one backend is stopped (socket removed,
   runtime gone) a quarter of the way through the batch — the
   coordinator must re-route and resubmit so every request still
   completes. *)
let fleet_batch ?(clients = 8) ?(per_client = 15) ~nodes ~chaos () =
  let model = Dtmc_io.to_string (Lazy.force wsn_chain) in
  let total = clients * per_client in
  let reqs =
    Array.init total (fun i ->
        Wire.Check_req
          { model; phi = Printf.sprintf "R<=%d [ F delivered ]" (80 + (i mod 24)) })
  in
  let sock i =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tml-fleet-bench-%d-%d.sock" (Unix.getpid ()) i)
  in
  let backends =
    List.init nodes (fun i ->
        let rt = Runtime.create ~workers:2 () in
        let router = Router.create rt in
        let server =
          Server.start ~handler:(Server.handler_of_router router)
            (`Unix (sock i))
        in
        (rt, server))
  in
  let addrs = List.init nodes (fun i -> `Unix (sock i)) in
  let coord = Coordinator.create ~rpc_timeout_s:30.0 addrs in
  let coord_sock = sock 999 in
  let front =
    Server.start ~handler:(Coordinator.handler coord) (`Unix coord_sock)
  in
  let stopped = ref [] in
  let stop_backend (rt, server) =
    if not (List.memq server !stopped) then begin
      stopped := server :: !stopped;
      Server.stop server;
      Runtime.shutdown rt
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop front;
      Coordinator.shutdown coord;
      List.iter stop_backend backends)
  @@ fun () ->
  let reroutes_before =
    Metrics.counter_value (Metrics.counter "tml_fleet_reroutes_total")
  in
  let latencies = Array.make total 0.0 in
  let failures = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let worker c =
    Client.with_client (`Unix coord_sock) @@ fun cl ->
    for k = 0 to per_client - 1 do
      let idx = (c * per_client) + k in
      let s = Unix.gettimeofday () in
      (match Client.run cl reqs.(idx) with
       | _, Wire.Job_done _ -> ()
       | _ -> Atomic.incr failures
       | exception _ -> Atomic.incr failures);
      latencies.(idx) <- Unix.gettimeofday () -. s;
      Atomic.incr completed
    done
  in
  let killer =
    if not chaos then None
    else
      Some
        (Thread.create
           (fun () ->
              while Atomic.get completed < total / 4 do
                Thread.delay 0.005
              done;
              stop_backend (List.hd backends))
           ())
  in
  let threads = List.init clients (fun c -> Thread.create worker c) in
  List.iter Thread.join threads;
  Option.iter Thread.join killer;
  let f_seconds = Unix.gettimeofday () -. t0 in
  Array.sort compare latencies;
  let p99 =
    latencies.(min (total - 1) (int_of_float (0.99 *. float_of_int (total - 1))))
    *. 1e3
  in
  let reroutes =
    Metrics.counter_value (Metrics.counter "tml_fleet_reroutes_total")
    - reroutes_before
  in
  ( {
      f_nodes = nodes;
      f_requests = total;
      f_failures = Atomic.get failures;
      f_seconds;
      f_rps = float_of_int total /. f_seconds;
      f_p99_ms = p99;
    },
    reroutes )

let fleet_throughput () =
  Format.printf "@\n-- fleet throughput (coordinator over in-process nodes) --@\n";
  Format.print_flush ();
  let print_run label r =
    Format.printf "  %-22s %d reqs in %.3f s  (%.1f req/s, p99 %.2f ms, %d dropped)@\n"
      label r.f_requests r.f_seconds r.f_rps r.f_p99_ms r.f_failures;
    Format.print_flush ()
  in
  let f_single, _ = fleet_batch ~nodes:1 ~chaos:false () in
  print_run "1 node" f_single;
  let f_four, _ = fleet_batch ~nodes:4 ~chaos:false () in
  print_run "4 nodes" f_four;
  let f_chaos, f_chaos_reroutes = fleet_batch ~nodes:4 ~chaos:true () in
  print_run "4 nodes + node kill" f_chaos;
  Format.printf "  %-22s %d re-route(s), %d/%d completed@\n" "chaos"
    f_chaos_reroutes
    (f_chaos.f_requests - f_chaos.f_failures)
    f_chaos.f_requests;
  Format.print_flush ();
  { f_single; f_four; f_chaos; f_chaos_reroutes }

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                             *)
(* ------------------------------------------------------------------ *)

type bench_row = {
  group : string;
  name : string;
  samples : int;
  mean_ns : float;
  stddev_ns : float;
  min_ns : float;
      (** fastest observed per-run time — the noise-floor estimate the
          perf gate compares, since means drift with machine load *)
}

let row_stats ~group ~name raws =
  let times =
    Array.to_list raws
    |> List.filter_map (fun m ->
        let run = Measurement_raw.run m in
        if run <= 0.0 then None
        else Some (Measurement_raw.get ~label:(Measure.label Instance.monotonic_clock) m /. run))
  in
  let n = List.length times in
  if n = 0 then
    { group; name; samples = 0; mean_ns = Float.nan; stddev_ns = Float.nan;
      min_ns = Float.nan }
  else begin
    let mean = List.fold_left ( +. ) 0.0 times /. float_of_int n in
    let var =
      List.fold_left (fun acc t -> acc +. ((t -. mean) ** 2.0)) 0.0 times
      /. float_of_int n
    in
    let min_ns = List.fold_left Float.min Float.infinity times in
    { group; name; samples = n; mean_ns = mean; stddev_ns = sqrt var; min_ns }
  end

(* ------------------------------------------------------------------ *)
(* Latency-to-detection: the `tml watch` hot path                       *)
(* ------------------------------------------------------------------ *)

(* What a subscriber actually waits for after an append: while the count
   support is unchanged the checker re-evaluates the cached rational
   function at the new parameter point (microseconds); on a support
   change it re-runs state elimination.  Measured on the WSN n=3 chain
   (9 states, R<=19) against a from-scratch check — the figure the
   acceptance gate holds at >=100x.

   Must run with no runtime alive: the process-global elimination memo
   is installed by a live runtime and would turn the from-scratch column
   into a cache hit. *)
type detect_report = {
  d_iters : int;
  d_cached_p50_us : float;
  d_cached_p95_us : float;
  d_reelim_p50_us : float;
  d_scratch_p50_us : float;
  d_speedup : float;  (** from-scratch p50 / cached p50 *)
}

let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let latency_to_detection () =
  let n = 9 and init = 8 in
  let labels = [ ("delivered", [ 0 ]) ] in
  let rewards =
    Array.init n (fun s -> if s = 0 then Ratio.zero else Ratio.one)
  in
  let prop = Wsn.property 19 in
  (* stream the observations in as one chunk: dense enough (count:600)
     that every forwarding edge is observed and the reward query is
     almost-surely reaching — the steady state a live watch sits in *)
  let rng = Prng.create 42 in
  let text =
    Trace_io.to_string (Wsn.observation_groups rng wsn_params ~count:600)
  in
  let learner = Inc_learn.create ~n in
  ignore (Inc_learn.append learner text : Inc_learn.append_result);
  ignore (Inc_learn.flush learner : Inc_learn.append_result);
  let counts = Inc_learn.counts learner in
  let checker = Inc_check.create ~n ~init ~labels ~rewards prop in
  ignore (Inc_check.check checker counts : Inc_check.verdict);
  (* cached path is sub-gettimeofday-resolution, so time batches and
     report per-check figures *)
  let batch = 64 and samples = 200 in
  let time_batch f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int batch
  in
  let cached =
    Array.init samples (fun _ ->
        time_batch (fun () ->
            ignore (Inc_check.check checker counts : Inc_check.verdict)))
  in
  let time_one f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e6
  in
  let reelim =
    Array.init 20 (fun _ ->
        time_one (fun () ->
            ignore
              (Inc_check.check checker ~support_changed:true counts
                : Inc_check.verdict)))
  in
  let scratch =
    Array.init 20 (fun _ ->
        time_one (fun () ->
            let c = Inc_check.create ~n ~init ~labels ~rewards prop in
            ignore (Inc_check.check c counts : Inc_check.verdict)))
  in
  Array.sort compare cached;
  Array.sort compare reelim;
  Array.sort compare scratch;
  let cached_p50 = percentile 0.50 cached in
  let r =
    { d_iters = batch * samples;
      d_cached_p50_us = cached_p50;
      d_cached_p95_us = percentile 0.95 cached;
      d_reelim_p50_us = percentile 0.50 reelim;
      d_scratch_p50_us = percentile 0.50 scratch;
      d_speedup = percentile 0.50 scratch /. cached_p50;
    }
  in
  Format.printf
    "@\n-- latency to detection (wsn n=3, R<=19, %d cached re-checks) --@\n"
    r.d_iters;
  Format.printf "  %-38s %10.2f us  (p95 %8.2f us)@\n"
    "cached re-check (support unchanged)" r.d_cached_p50_us r.d_cached_p95_us;
  Format.printf "  %-38s %10.2f us@\n" "re-elimination (support changed) p50"
    r.d_reelim_p50_us;
  Format.printf "  %-38s %10.2f us@\n" "from-scratch check p50"
    r.d_scratch_p50_us;
  Format.printf "  %-38s %10.1fx@\n" "cached speedup vs from-scratch"
    r.d_speedup;
  Format.print_flush ();
  r

(* ------------------------------------------------------------------ *)
(* Results history                                                      *)
(* ------------------------------------------------------------------ *)

(* Every result-writing workload also appends a timestamped snapshot
   under the results directory (`<workload>-<utc stamp>.json`), so a
   perf investigation can diff against any past run, not only the one
   `latest.json` happens to hold.  Oldest snapshots beyond the retention
   cap are pruned per workload.  `--results-dir DIR` points everything
   (latest, baseline, history) somewhere else — CI uses a scratch dir. *)
let results_dir = ref "bench/results"
let history_retention = 20

let utc_stamp () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let ensure_results_dir () =
  try Unix.mkdir !results_dir 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let prune_history workload =
  let prefix = workload ^ "-" in
  let plen = String.length prefix in
  let old =
    Sys.readdir !results_dir |> Array.to_list
    |> List.filter (fun f ->
        String.length f > plen
        && String.sub f 0 plen = prefix
        && Filename.check_suffix f ".json")
    |> List.sort compare  (* UTC stamps sort lexicographically *)
  in
  let excess = List.length old - history_retention in
  if excess > 0 then
    List.iteri
      (fun i f ->
         if i < excess then
           try Sys.remove (Filename.concat !results_dir f) with Sys_error _ -> ())
      old

let num f = Json.Num f
let int n = Json.Num (float_of_int n)

(* every result file lives in [!results_dir] *)
let write_json path j =
  ensure_results_dir ();
  let oc = open_out path in
  output_string oc (Json.render j ^ "\n");
  close_out oc

let write_history ~workload j =
  let path =
    Filename.concat !results_dir
      (Printf.sprintf "%s-%s.json" workload (utc_stamp ()))
  in
  write_json path j;
  prune_history workload;
  Format.printf "history snapshot written to %s@\n" path;
  Format.print_flush ()

let detect_json (d : detect_report) =
  ( "latency_to_detection",
    Json.Obj
      [ ("workload", Json.Str "wsn n=3, R<=19, streamed counts");
        ("cached_rechecks", int d.d_iters);
        ("cached_p50_us", num d.d_cached_p50_us);
        ("cached_p95_us", num d.d_cached_p95_us);
        ("reelimination_p50_us", num d.d_reelim_p50_us);
        ("from_scratch_p50_us", num d.d_scratch_p50_us);
        ("cached_speedup", num d.d_speedup) ] )

let bench_rows_json rows =
  Json.Arr
    (List.map
       (fun r ->
          Json.Obj
            [ ("group", Json.Str r.group);
              ("name", Json.Str r.name);
              ("samples", int r.samples);
              ("mean_ns", num r.mean_ns);
              ("stddev_ns", num r.stddev_ns);
              ("min_ns", num r.min_ns) ])
       rows)

let write_results path rows runtime kernel breakdown server el fleet region
    detect =
  let cache label c =
    [ ( label,
        Json.Obj
          [ ("hits", int c.Lru_cache.hits);
            ("misses", int c.Lru_cache.misses);
            ("evictions", int c.Lru_cache.evictions) ] ) ]
  in
  let runtime_json =
    Json.Obj
      ([ ("cores", int runtime.cores);
         ("workload", Json.Str "8 wsn model-repair jobs, shared parametric model");
         ("speedup_cached_vs_naive", num runtime.speedup);
         ( "runs",
           Json.Arr
             (List.map
                (fun r ->
                   Json.Obj
                     [ ("name", Json.Str r.rname);
                       ("workers", int r.workers);
                       ("seconds", num r.seconds);
                       ("identical", Json.Bool r.identical) ])
                runtime.runs) ) ]
       @ cache "elim_cache" runtime.elim_cache)
  in
  let rung r =
    (* a skipped rung is an honest marker: this host cannot run it, so
       no numbers are fabricated for it *)
    Json.Obj
      (("domains", int r.k_domains) :: ("skipped", Json.Bool r.k_skipped)
       ::
       (if r.k_skipped then []
        else
          [ ("ns_per_op", num r.k_ns_per_op);
            ("ops_per_s", num r.k_ops_per_s);
            ("scaling_x", num r.k_scaling_x) ]))
  in
  let kernel_json =
    Json.Obj
      [ ("cores", int (Domain.recommended_domain_count ()));
        ( "benches",
          Json.Arr
            (List.map
               (fun kb ->
                  Json.Obj
                    [ ("name", Json.Str kb.k_name);
                      ("iters_per_domain", int kb.k_iters);
                      ("rungs", Json.Arr (List.map rung kb.k_rungs)) ])
               kernel) ) ]
  in
  let breakdown_json =
    Json.Arr
      (List.map
         (fun r ->
            Json.Obj
              [ ("span", Json.Str r.bname);
                ("count", int r.bcount);
                ("total_s", num r.btotal_s) ])
         breakdown)
  in
  let region_json =
    Json.Arr
      (List.map
         (fun r ->
            Json.Obj
              [ ("name", Json.Str r.zname);
                ("backend", Json.Str r.zbackend);
                ("regions", int r.zregions);
                ("decided_volume_pct", num (100.0 *. r.zdecided));
                ("certified_gap_pct", num (100.0 *. r.zgap));
                ("time_to_certificate_s", num r.zseconds) ])
         region)
  in
  let server_fields (r : server_report) =
    [ ("clients", int r.sclients);
      ("requests", int r.srequests);
      ("dropped", int r.sfailures);
      ("seconds", num r.sseconds);
      ("requests_per_second", num r.rps);
      ("p50_ms", num r.p50_ms);
      ("p95_ms", num r.p95_ms);
      ("p99_ms", num r.p99_ms) ]
  in
  let event_loop_json =
    Json.Obj
      [ ("backend", Json.Str el.el_backend);
        ("loops", int el.el_loops);
        ("lockstep_rpc", Json.Obj (server_fields el.el_throughput));
        ("pipelined", Json.Obj (server_fields el.el_pipelined));
        ( "held_connections",
          Json.Arr
            (List.map
               (fun h ->
                  Json.Obj
                    [ ("target", int h.h_target);
                      ("held", int h.h_held);
                      ("requests", int h.h_requests);
                      ("dropped", int h.h_failures);
                      ("seconds", num h.h_seconds);
                      ("requests_per_second", num h.h_rps);
                      ("p99_ms", num h.h_p99_ms) ])
               el.el_held) ) ]
  in
  let fleet_run r =
    Json.Obj
      [ ("nodes", int r.f_nodes);
        ("requests", int r.f_requests);
        ("dropped", int r.f_failures);
        ("seconds", num r.f_seconds);
        ("requests_per_second", num r.f_rps);
        ("p99_ms", num r.f_p99_ms) ]
  in
  let fleet_json =
    Json.Obj
      [ ("single_node", fleet_run fleet.f_single);
        ("four_nodes", fleet_run fleet.f_four);
        ("four_nodes_chaos", fleet_run fleet.f_chaos);
        ("chaos_reroutes", int fleet.f_chaos_reroutes);
        ("speedup_4v1", num (fleet.f_four.f_rps /. fleet.f_single.f_rps)) ]
  in
  let results =
    Json.Obj
      [ ("schema", Json.Str "tml-bench/1");
        ("benchmarks", bench_rows_json rows);
        ("runtime_scaling", runtime_json);
        ("kernel_scaling", kernel_json);
        ("stage_breakdown", breakdown_json);
        ("region_lifting", region_json);
        ("server_throughput", Json.Obj (server_fields server));
        ("server_event_loop", event_loop_json);
        ("fleet_throughput", fleet_json);
        detect_json detect ]
  in
  write_json path results;
  Format.printf "@\nresults written to %s@\n" path;
  Format.print_flush ();
  write_history ~workload:"full" results

(* ------------------------------------------------------------------ *)
(* Runner                                                               *)
(* ------------------------------------------------------------------ *)

let prewarm () =
  (* pre-warm shared fixtures so one-off construction costs (e.g. the
     data-repair elimination) are not attributed to the first benchmark
     that touches them *)
  ignore (Lazy.force wsn_chain);
  ignore (Lazy.force car_mdp);
  ignore (Lazy.force car_theta);
  ignore (Lazy.force wsn_parametric);
  ignore (Lazy.force data_groups);
  ignore (Lazy.force data_pdtmc);
  ignore (Lazy.force data_query)

let measure_groups groups =
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let pretty time_ns =
    if time_ns >= 1e9 then Printf.sprintf "%8.3f s " (time_ns /. 1e9)
    else if time_ns >= 1e6 then Printf.sprintf "%8.3f ms" (time_ns /. 1e6)
    else if time_ns >= 1e3 then Printf.sprintf "%8.3f us" (time_ns /. 1e3)
    else Printf.sprintf "%8.1f ns" time_ns
  in
  let rows = ref [] in
  List.iter
    (fun (group, benches) ->
       Format.printf "@\n-- %s ----------------------------------------@\n" group;
       List.iter
         (fun bench ->
            let raw = Benchmark.all cfg [ instance ] bench in
            let results = Analyze.all ols instance raw in
            Hashtbl.iter
              (fun name ols_result ->
                 let time_ns =
                   match Analyze.OLS.estimates ols_result with
                   | Some (t :: _) -> t
                   | _ -> Float.nan
                 in
                 Format.printf "  %-45s %s@\n" name (pretty time_ns))
              results;
            Hashtbl.iter
              (fun name (b : Benchmark.t) ->
                 let row = row_stats ~group ~name b.Benchmark.lr in
                 (* prefer the OLS slope over the raw per-run mean: at the
                    ns scale the raw mean is dominated by scheduler
                    outliers, which would make the perf gate flaky *)
                 let row =
                   match Hashtbl.find_opt results name with
                   | Some r ->
                     (match Analyze.OLS.estimates r with
                      | Some (t :: _) when Float.is_finite t ->
                        { row with mean_ns = t }
                      | _ -> row)
                   | None -> row
                 in
                 rows := row :: !rows)
              raw;
            Format.print_flush ())
         benches;
       if group = "scaling" then begin
         one_shot_n4 ();
         Format.print_flush ()
       end)
    groups;
  List.rev !rows

let run_benchmarks () =
  prewarm ();
  let groups =
    [ ("experiments", experiment_benches);
      ("ablations", ablation_benches);
      ("scaling", scale_benches);
      ("substrates", substrate_benches);
      ("symbolic_kernel", symbolic_kernel_benches);
      ("region_lifting", region_benches);
    ]
  in
  let rows = measure_groups groups in
  (* before runtime_scaling: no runtime may be alive while the
     from-scratch column runs, or the elimination memo absorbs it *)
  let detect = latency_to_detection () in
  let runtime = runtime_scaling () in
  let kernel = kernel_scaling_ladder () in
  let region = region_lifting_report () in
  let breakdown = stage_breakdown () in
  let server = server_throughput () in
  let el = server_event_loop () in
  let fleet = fleet_throughput () in
  write_results
    (Filename.concat !results_dir "latest.json")
    rows runtime kernel breakdown server el fleet region detect

(* ------------------------------------------------------------------ *)
(* Perf gate: tracked benches vs a committed baseline                   *)
(* ------------------------------------------------------------------ *)

let baseline_path () = Filename.concat !results_dir "baseline.json"
let regression_threshold = 1.20

(* absolute floor, not baseline-relative: the cached re-check path must
   stay >=100x faster than a from-scratch check (acceptance criterion),
   whatever machine the gate runs on *)
let detection_speedup_floor = 100.0

(* The tracked set is deliberately cheap: the symbolic-kernel section,
   the three elimination/evaluation experiment benches named in the
   acceptance criteria, and the region-lifting section (whose only full
   repair is the millisecond-scale 2x2 grid) — no n=3 repairs, no IRL.
   A perf-check run finishes in well under a minute. *)
let tracked_groups () =
  [ ("experiments",
     [ bench_e2_elimination; bench_e4_elimination; bench_e4_constraint_eval ]);
    ("symbolic_kernel", symbolic_kernel_benches);
    ("region_lifting", region_benches);
  ]

let write_baseline rows =
  let path = baseline_path () in
  write_json path
    (Json.Obj
       [ ("schema", Json.Str "tml-bench-baseline/1");
         ("threshold", num regression_threshold);
         ("benchmarks", bench_rows_json rows) ]);
  Format.printf "@\nbaseline written to %s@\n" path;
  Format.print_flush ()

(* [(group, name, min_ns)] per tracked bench of a baseline file. *)
let parse_baseline path =
  let j = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  List.map
    (fun r ->
       Json.(to_str "group" (get "group" r), to_str "name" (get "name" r),
             to_num "min_ns" (get "min_ns" r)))
    (Json.to_arr "benchmarks" (Json.get "benchmarks" j))

(* One synthetic row per gated event-loop figure: min_ns is the
   steady-state per-request wall time, so the gate's min_ns ratio catches
   a >threshold drop in serving rate. *)
let event_loop_rows el =
  let row name (r : server_report) =
    let ns_per_req = 1e9 /. r.rps in
    { group = "server_event_loop";
      name;
      samples = r.srequests;
      mean_ns = ns_per_req;
      stddev_ns = 0.0;
      min_ns = ns_per_req;
    }
  in
  [ row "lockstep rpc request (8 clients, unix)" el.el_throughput;
    row "pipelined request (8 clients, unix)" el.el_pipelined ]

(* One synthetic row per kernel-scaling primitive at the 1-domain rung:
   the gate tracks single-domain cost so the shared kernel cannot buy
   multicore scaling by slowing the sequential path down.  Skipped rungs
   (and hence higher domain counts) are never gated — they depend on the
   host's core count, not on the code. *)
let kernel_rows kernel =
  List.filter_map
    (fun kb ->
       match
         List.find_opt (fun r -> r.k_domains = 1 && not r.k_skipped) kb.k_rungs
       with
       | Some r when Float.is_finite r.k_ns_per_op ->
         Some
           { group = "kernel_scaling";
             name = kb.k_name ^ " @1 domain";
             samples = kb.k_iters;
             mean_ns = r.k_ns_per_op;
             stddev_ns = 0.0;
             min_ns = r.k_ns_per_op;
           }
       | _ -> None)
    kernel

let perf_check ~update () =
  (* detection latency first: needs a quiet process and no live runtime
     (the elimination memo would absorb the from-scratch column) *)
  let detect = latency_to_detection () in
  let detect_ok = detect.d_speedup >= detection_speedup_floor in
  if not detect_ok then
    Format.printf
      "  cached re-check only %.1fx faster than from-scratch (floor %.0fx)  \
       REGRESSED@\n"
      detect.d_speedup detection_speedup_floor;
  Format.print_flush ();
  prewarm ();
  ignore (runtime_scaling ());
  let rows = measure_groups (tracked_groups ()) in
  let rows = rows @ kernel_rows (kernel_scaling_ladder ()) in
  (* held-connection rungs are skipped under the gate: they measure
     capacity, not a regression-sensitive latency *)
  let rows = rows @ event_loop_rows (server_event_loop ~held_targets:[] ()) in
  if update then begin
    write_baseline rows;
    if not detect_ok then exit 1
  end
  else if not (Sys.file_exists (baseline_path ())) then begin
    Format.printf
      "@\nno %s — run `bench/main.exe --update-baseline` and commit it@\n"
      (baseline_path ());
    Format.print_flush ();
    exit 2
  end
  else begin
    let base = parse_baseline (baseline_path ()) in
    let checked = ref 1 and failed = ref (if detect_ok then 0 else 1) in
    Format.printf "@\n-- perf-check vs %s (fail at >%.0f%% regression) --@\n"
      (baseline_path ())
      ((regression_threshold -. 1.0) *. 100.0);
    Format.printf "  %-45s %12.1fx vs %10.0fx floor  %s@\n"
      "watch cached re-check speedup" detect.d_speedup detection_speedup_floor
      (if detect_ok then "ok" else "REGRESSED");
    List.iter
      (fun (g, n, base_min) ->
         match
           List.find_opt (fun r -> r.group = g && r.name = n) rows
         with
         | None -> Format.printf "  %-45s missing from this run@\n" n
         | Some r when not (Float.is_finite r.min_ns) || base_min <= 0.0 ->
           Format.printf "  %-45s unmeasurable, skipped@\n" n
         | Some r ->
           incr checked;
           let ratio = r.min_ns /. base_min in
           let verdict =
             if ratio > regression_threshold then begin
               incr failed;
               "REGRESSED"
             end
             else "ok"
           in
           Format.printf "  %-45s %12.1f ns vs %12.1f ns  %5.2fx  %s@\n" n
             r.min_ns base_min ratio verdict)
      base;
    Format.printf "@\n%d tracked bench(es), %d regression(s)@\n" !checked
      !failed;
    Format.print_flush ();
    if !failed > 0 then exit 1
  end

let () =
  (* helper-process mode for the held-connection ladder: must run before
     anything else (no fixtures, no benchmarks) *)
  (match Array.to_list Sys.argv with
   | _ :: "--hold-conns" :: sock :: n :: _ ->
     hold_conns_child sock (int_of_string n)
   | _ :: "--serve-child" :: sock :: _ -> serve_child sock
   | _ -> ());
  let args = Array.to_list Sys.argv in
  (let rec scan = function
     | "--results-dir" :: dir :: _ -> results_dir := dir
     | _ :: rest -> scan rest
     | [] -> ()
   in
   scan args);
  let table_only = List.mem "--table-only" args in
  let bench_only = List.mem "--bench-only" args in
  let runtime_only = List.mem "--runtime-only" args in
  let perf_check_mode = List.mem "--perf-check" args in
  let update_baseline = List.mem "--update-baseline" args in
  if perf_check_mode || update_baseline then begin
    (* Perf gate: runtime-scaling comparison + the tracked bench set,
       compared against (or, with --update-baseline, written to)
       bench/results/baseline.json.  Exit 1 on any >threshold regression;
       does not touch latest.json. *)
    perf_check ~update:update_baseline ();
    exit 0
  end;
  if List.mem "--kernel-scaling" args then begin
    (* just the per-primitive scaling ladder (the `make kernel-bench`
       entry point); prints the table, touches no result files *)
    prewarm ();
    ignore (kernel_scaling_ladder ());
    exit 0
  end;
  if List.mem "--serve-only" args then begin
    (* undocumented: just the serving runs, for quick iteration on the
       server core (event loop first: it is the gated number, so it gets
       the quietest machine state) *)
    ignore (server_event_loop ());
    ignore (server_throughput ());
    exit 0
  end;
  if runtime_only then begin
    (* Fast path: the latency-to-detection figures, the runtime-scaling
       comparison, the traced stage breakdown and the server-throughput
       run, without the bechamel sweep.  Does not overwrite latest.json,
       but the detection figures land in a `runtime-*` history
       snapshot. *)
    let detect = latency_to_detection () in
    ignore (runtime_scaling ());
    ignore (stage_breakdown ());
    ignore (server_throughput ());
    ignore (server_event_loop ());
    ignore (fleet_throughput ());
    write_history ~workload:"runtime"
      (Json.Obj [ ("schema", Json.Str "tml-bench-runtime/1"); detect_json detect ]);
    exit 0
  end;
  if not bench_only then begin
    Format.printf "=== Paper experiment reproduction (DSN'18 \xc2\xa7V) ===@\n@\n";
    let rows = Experiments.all () in
    Format.printf "%a" Experiments.print_rows rows;
    let failed = List.filter (fun r -> not r.Experiments.ok) rows in
    Format.printf "@\n%d/%d experiments reproduce the paper's shape@\n"
      (List.length rows - List.length failed)
      (List.length rows);
    lambda_sweep ();
    smoothing_sweep ();
    Format.print_flush ()
  end;
  if not table_only then run_benchmarks ()
