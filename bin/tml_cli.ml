(* tml — Trusted Machine Learning for Markov decision processes.

   Subcommands:
     check         verify a PCTL property of a DTMC model file
     model-repair  minimally perturb controllable transitions to satisfy it
     simulate      sample paths from a model
     batch         run a suite of repair jobs on the concurrent runtime
     experiments   reproduce the paper's §V evaluation (E1–E6, F1)
     trace         render a --trace-out span dump as a tree / summary
     serve         run the repair service on a Unix/TCP socket
                   (--coordinator shards jobs over a backend fleet)
     client        submit jobs to a running server
     fleet         inspect/drain a coordinator's backend ring

   Model files use the textual format of Dtmc_io (see --help of check). *)

open Cmdliner

(* --------------------------- observability ---------------------------- *)

let write_text path content =
  match path with
  | "-" -> print_string content
  | path ->
    let oc = open_out path in
    output_string oc content;
    close_out oc

let trace_out_arg =
  let doc =
    "Record a hierarchical trace of the run (spans for job \
     submit/run, pipeline stages, cache fills, NLP rungs, retries, \
     faults) and write it as JSON lines to this file ('-' for stdout). \
     Render it with $(b,tml trace)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write the process metrics registry (counters, gauges, stage/cache \
     histograms) in Prometheus text format to this file ('-' for stdout) \
     after the run."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* Tracing wraps a whole command: enable before any job runs (clearing
   leftovers), dump after the workload finishes — even a failed run dumps
   what it traced, which is exactly when a trace is most wanted. *)
let with_observability ~trace_out ~metrics_out f =
  (match trace_out with Some _ -> Trace_span.enable () | None -> ());
  (match metrics_out with Some _ -> Metrics.reset () | None -> ());
  Fun.protect
    ~finally:(fun () ->
      (match trace_out with
       | None -> ()
       | Some path ->
         Trace_span.disable ();
         write_text path (Trace_export.to_jsonl (Trace_span.drain ())));
      match metrics_out with
      | None -> ()
      | Some path -> write_text path (Metrics.to_prometheus ()))
    f

let load_model path =
  try Ok (Dtmc_io.of_file path) with
  | Dtmc_io.Parse_error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Sys_error msg -> Error msg

let load_property s =
  try Ok (Pctl_parser.parse s)
  with Pctl_parser.Parse_error msg ->
    Error (Printf.sprintf "bad property %S: %s" s msg)

let model_arg =
  let doc = "Model file in the tml DTMC format." in
  Arg.(required & opt (some file) None & info [ "m"; "model" ] ~docv:"FILE" ~doc)

let property_arg =
  let doc = "PCTL property, e.g. \"P>=0.9 [ F goal ]\" or \"R<=40 [ F done ]\"." in
  Arg.(required & opt (some string) None & info [ "p"; "prop" ] ~docv:"PCTL" ~doc)

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let exit_of_result = function
  | Ok true -> 0
  | Ok false -> 1
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    2

(* ------------------------------- check ------------------------------- *)

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "On a violated P<=b [F ...] property, print a smallest \
           counterexample (most probable violating paths).")

let run_check model prop explain =
  exit_of_result
    (match (load_model model, load_property prop) with
     | Error e, _ | _, Error e -> Error e
     | Ok d, Ok phi ->
       let v = Check_dtmc.check_verbose d phi in
       Printf.printf "%s\n" (if v.Check_dtmc.holds then "HOLDS" else "VIOLATED");
       (match v.Check_dtmc.value with
        | Some value -> Printf.printf "value at initial state: %.10g\n" value
        | None -> ());
       if explain && not v.Check_dtmc.holds then
         (match Counterexample.smallest_counterexample d phi with
          | Some w ->
            Printf.printf
              "counterexample: %d path(s), total mass %.6g > bound %.6g\n"
              (List.length w.Counterexample.paths)
              w.Counterexample.total_mass w.Counterexample.bound;
            List.iter
              (fun (path, p) ->
                 Printf.printf "  %.6g  %s\n" p
                   (String.concat " -> " (List.map string_of_int path)))
              w.Counterexample.paths
          | None ->
            Printf.printf "no counterexample found (not a P<=b [F ...] \
                           violation, or search budget exhausted)\n"
          | exception Invalid_argument msg ->
            Printf.printf "cannot explain: %s\n" msg);
       Ok v.Check_dtmc.holds)

let check_cmd =
  let doc = "model-check a PCTL property of a DTMC" in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(const run_check $ model_arg $ property_arg $ explain_arg)

(* --------------------------- model-repair ----------------------------- *)

let vars_arg =
  let doc = "Perturbation variable with bounds, NAME:LO:HI (repeatable)." in
  Arg.(value & opt_all string [] & info [ "v"; "var" ] ~docv:"VAR" ~doc)

let deltas_arg =
  let doc =
    "Edge perturbation SRC,DST,EXPR where EXPR is a signed linear \
     combination of variables, e.g. \"0,1,+v\" and \"0,2,-v\" (repeatable; \
     each row's deltas must cancel)."
  in
  Arg.(value & opt_all string [] & info [ "d"; "delta" ] ~docv:"DELTA" ~doc)

let output_arg =
  let doc = "Write the repaired model to this file." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let backend_arg =
  let doc =
    "Repair backend: $(b,nlp) (the paper's multistart NLP), $(b,region) \
     (certified branch-and-bound over accept-regions, reports a global \
     optimality gap), or $(b,smc-prefilter) (SPRT statistical pre-check \
     before the NLP path)."
  in
  Arg.(
    value
    & opt (enum Repair_backend.all) Repair_backend.Nlp_solver
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let print_certificate = function
  | None -> ()
  | Some c -> Format.printf "  certificate: %a@." Region_repair.pp_certificate c

let run_model_repair model prop vars deltas output backend =
  exit_of_result
    (match (load_model model, load_property prop) with
     | Error e, _ | _, Error e -> Error e
     | Ok d, Ok phi -> (
         match
           let spec =
             {
               Model_repair.variables = List.map Spec_io.parse_variable vars;
               deltas = List.map Spec_io.parse_delta deltas;
             }
           in
           Model_repair.repair ~backend ~base:(Pdtmc.of_dtmc d) d phi spec
         with
         | exception Spec_io.Parse_error msg -> Error msg
         | exception Invalid_argument msg -> Error msg
         | exception Pquery.Unsupported msg -> Error msg
         | Model_repair.Already_satisfied v ->
           Printf.printf "already satisfied%s\n"
             (match v with
              | Some v -> Printf.sprintf " (value %.10g)" v
              | None -> "");
           Ok true
         | Model_repair.Infeasible { min_violation } ->
           Printf.printf "INFEASIBLE (best constraint violation %.6g)\n"
             min_violation;
           Ok false
         | Model_repair.Repaired r ->
           Printf.printf "REPAIRED (cost %.6g, achieved value %.6g, verified %b)\n"
             r.Model_repair.cost r.Model_repair.achieved_value
             r.Model_repair.verified;
           print_certificate r.Model_repair.certificate;
           List.iter
             (fun (name, v) -> Printf.printf "  %s = %.6g\n" name v)
             r.Model_repair.assignment;
           (match output with
            | Some path ->
              let oc = open_out path in
              output_string oc (Dtmc_io.to_string r.Model_repair.dtmc);
              close_out oc;
              Printf.printf "repaired model written to %s\n" path
            | None -> ());
           Ok true))

let model_repair_cmd =
  let doc = "minimally perturb a DTMC so a PCTL property holds" in
  Cmd.v
    (Cmd.info "model-repair" ~doc)
    Term.(
      const run_model_repair $ model_arg $ property_arg $ vars_arg $ deltas_arg
      $ output_arg $ backend_arg)

(* ----------------------------- data-repair ---------------------------- *)

let traces_arg =
  let doc = "Trace dataset file (see lib/io/trace_io.mli for the format)." in
  Arg.(required & opt (some file) None & info [ "t"; "traces" ] ~docv:"FILE" ~doc)

let states_arg =
  let doc = "Number of model states." in
  Arg.(required & opt (some int) None & info [ "states" ] ~docv:"N" ~doc)

let init_arg =
  let doc = "Initial state." in
  Arg.(value & opt int 0 & info [ "init" ] ~docv:"S" ~doc)

let labels_arg =
  let doc = "Label definition NAME:S1:S2:... (repeatable)." in
  Arg.(value & opt_all string [] & info [ "l"; "label" ] ~docv:"LABEL" ~doc)

let pinned_arg =
  let doc = "Trace group that must be kept intact (repeatable)." in
  Arg.(value & opt_all string [] & info [ "pin" ] ~docv:"GROUP" ~doc)

let parse_label_def s =
  match String.split_on_char ':' s with
  | name :: (_ :: _ as states) -> (
      match List.map int_of_string_opt states with
      | ids when List.for_all Option.is_some ids ->
        Ok (name, List.map Option.get ids)
      | _ -> Error (Printf.sprintf "bad label definition %S" s))
  | _ -> Error (Printf.sprintf "bad label definition %S (want NAME:S1:S2...)" s)

let run_data_repair traces_file states init labels pinned prop backend =
  exit_of_result
    (match load_property prop with
     | Error e -> Error e
     | Ok phi -> (
         try
           let groups = Trace_io.of_file ~n:states traces_file in
           let labels =
             List.map
               (fun s ->
                  match parse_label_def s with
                  | Ok l -> l
                  | Error e -> failwith e)
               labels
           in
           match
             Data_repair.repair ~n:states ~init ~labels ~backend phi
               (Data_repair.spec ~pinned groups)
           with
           | Data_repair.Already_satisfied v ->
             Printf.printf "already satisfied%s\n"
               (match v with
                | Some v -> Printf.sprintf " (value %.10g)" v
                | None -> "");
             Ok true
           | Data_repair.Infeasible { min_violation } ->
             Printf.printf "INFEASIBLE (best constraint violation %.6g)\n"
               min_violation;
             Ok false
           | Data_repair.Repaired r ->
             Printf.printf
               "REPAIRED (cost %.6g, achieved value %.6g, ~%.1f traces \
                dropped, verified %b)\n"
               r.Data_repair.cost r.Data_repair.achieved_value
               r.Data_repair.dropped_traces r.Data_repair.verified;
             print_certificate r.Data_repair.certificate;
             List.iter
               (fun (g, frac) -> Printf.printf "  drop(%s) = %.6g\n" g frac)
               r.Data_repair.drop_fractions;
             Ok true
         with
         | Trace_io.Parse_error msg -> Error msg
         | Failure msg -> Error msg
         | Invalid_argument msg -> Error msg
         | Pquery.Unsupported msg -> Error msg))

let data_repair_cmd =
  let doc = "drop the fewest traces so the re-learned model satisfies a property" in
  Cmd.v
    (Cmd.info "data-repair" ~doc)
    Term.(
      const run_data_repair $ traces_arg $ states_arg $ init_arg $ labels_arg
      $ pinned_arg $ property_arg $ backend_arg)

(* ---------------------------- reward-repair --------------------------- *)

let mdp_arg =
  let doc = "MDP file in the tml format (see lib/io/mdp_io.mli)." in
  Arg.(required & opt (some file) None & info [ "m"; "mdp" ] ~docv:"FILE" ~doc)

let theta_arg =
  let doc = "Reward weight vector, colon-separated (e.g. 0.38:0.32:0.18)." in
  Arg.(required & opt (some string) None & info [ "theta" ] ~docv:"THETA" ~doc)

let q_constraints_arg =
  let doc = "Q-value constraint STATE:BETTER:WORSE (repeatable)." in
  Arg.(non_empty & opt_all string [] & info [ "c"; "constraint" ] ~docv:"QC" ~doc)

let gamma_arg =
  Arg.(value & opt float 0.9 & info [ "gamma" ] ~docv:"G" ~doc:"Discount factor.")

let run_reward_repair mdp_file theta constraints gamma =
  exit_of_result
    (try
       let m = Mdp_io.of_file mdp_file in
       let theta =
         String.split_on_char ':' theta
         |> List.map (fun s ->
             match float_of_string_opt s with
             | Some f -> f
             | None -> failwith (Printf.sprintf "bad theta component %S" s))
         |> Array.of_list
       in
       let constraints =
         List.map
           (fun s ->
              match String.split_on_char ':' s with
              | [ st; better; worse ] -> (
                  match int_of_string_opt st with
                  | Some state ->
                    { Reward_repair.state; better; worse; margin = 1e-4 }
                  | None -> failwith (Printf.sprintf "bad constraint %S" s))
              | _ ->
                failwith
                  (Printf.sprintf "bad constraint %S (want STATE:BETTER:WORSE)" s))
           constraints
       in
       match Reward_repair.repair_q ~gamma m ~theta ~constraints with
       | Reward_repair.Already_satisfied ->
         Printf.printf "already satisfied\n";
         Ok true
       | Reward_repair.Infeasible { min_violation } ->
         Printf.printf "INFEASIBLE (best violation %.6g)\n" min_violation;
         Ok false
       | Reward_repair.Repaired r ->
         Printf.printf "REPAIRED (||dtheta||^2 = %.6g, verified %b)\n"
           r.Reward_repair.cost r.Reward_repair.verified;
         Printf.printf "theta' =";
         Array.iter (fun v -> Printf.printf " %.6g" v) r.Reward_repair.theta;
         print_newline ();
         Printf.printf "optimal policy:";
         Array.iteri (fun s a -> Printf.printf " (S%d,%s)" s a) r.Reward_repair.policy;
         print_newline ();
         let { Reward_repair.better; worse; rounds } = r.Reward_repair.searched in
         Printf.printf "searched: %d better-side, %d worse-side policies in %d rounds\n"
           better worse rounds;
         Ok true
     with
     | Mdp_io.Parse_error msg -> Error msg
     | Failure msg -> Error msg
     | Invalid_argument msg -> Error msg
     | Sys_error msg -> Error msg)

let reward_repair_cmd =
  let doc = "minimally change reward weights so unsafe actions lose their Q-advantage" in
  Cmd.v
    (Cmd.info "reward-repair" ~doc)
    Term.(const run_reward_repair $ mdp_arg $ theta_arg $ q_constraints_arg $ gamma_arg)

(* ------------------------------ pipeline ------------------------------ *)

let run_pipeline traces_file states init labels pinned vars deltas prop =
  exit_of_result
    (match load_property prop with
     | Error e -> Error e
     | Ok phi -> (
         try
           let groups = Trace_io.of_file ~n:states traces_file in
           let labels =
             List.map
               (fun s ->
                  match parse_label_def s with
                  | Ok l -> l
                  | Error e -> failwith e)
               labels
           in
           let model_spec =
             if vars = [] then None
             else
               Some
                 {
                   Model_repair.variables = List.map Spec_io.parse_variable vars;
                   deltas = List.map Spec_io.parse_delta deltas;
                 }
           in
           let data_spec =
             if groups = [] then None
             else Some (Data_repair.spec ~pinned groups)
           in
           let report =
             Pipeline.run ~n:states ~init ~labels ?model_spec ?data_spec
               ~groups phi
           in
           Format.printf "%a@?" Pipeline.pp_report report;
           (match report.Pipeline.outcome with
            | Pipeline.Unrepairable _ -> Ok false
            | _ -> Ok true)
         with
         | Trace_io.Parse_error msg -> Error msg
         | Spec_io.Parse_error msg -> Error msg
         | Failure msg -> Error msg
         | Invalid_argument msg -> Error msg
         | Pquery.Unsupported msg -> Error msg))

let pipeline_cmd =
  let doc =
    "the full TML pipeline: learn from traces, verify, try model repair, \
     fall back to data repair"
  in
  Cmd.v
    (Cmd.info "pipeline" ~doc)
    Term.(
      const run_pipeline $ traces_arg $ states_arg $ init_arg $ labels_arg
      $ pinned_arg $ vars_arg $ deltas_arg $ property_arg)

(* -------------------------------- smc --------------------------------- *)

let samples_arg =
  Arg.(value & opt int 10_000 & info [ "samples" ] ~docv:"K" ~doc:"Sample budget.")

let run_smc model prop samples seed =
  exit_of_result
    (match (load_model model, load_property prop) with
     | Error e, _ | _, Error e -> Error e
     | Ok d, Ok phi -> (
         try
           let rng = Prng.create seed in
           match phi with
           | Pctl.Prob (_, _, psi) ->
             let est = Smc.estimate ~samples rng d psi in
             Printf.printf "estimate %.6g  (95%% CI [%.6g, %.6g], %d samples)\n"
               est.Smc.probability est.Smc.ci_low est.Smc.ci_high est.Smc.samples;
             let verdict, n = Smc.sprt ~max_samples:samples rng d phi in
             Printf.printf "SPRT: %s after %d samples\n"
               (String.uppercase_ascii (Smc.verdict_to_string verdict))
               n;
             Ok (verdict = Smc.Accept)
           | _ -> Error "smc needs a top-level P property"
         with Smc.Unsupported msg -> Error msg))

let smc_cmd =
  let doc = "statistical model checking (Monte Carlo + SPRT)" in
  Cmd.v
    (Cmd.info "smc" ~doc)
    Term.(const run_smc $ model_arg $ property_arg $ samples_arg $ seed_arg)

(* ------------------------------ quotient ------------------------------ *)

let run_quotient model output =
  exit_of_result
    (match load_model model with
     | Error e -> Error e
     | Ok d ->
       let q, part = Bisimulation.quotient d in
       Printf.printf "%d states -> %d bisimulation classes\n"
         (Dtmc.num_states d) (Bisimulation.num_blocks part);
       (match output with
        | Some path ->
          let oc = open_out path in
          output_string oc (Dtmc_io.to_string q);
          close_out oc;
          Printf.printf "quotient written to %s\n" path
        | None -> print_string (Dtmc_io.to_string q));
       Ok true)

let quotient_cmd =
  let doc = "bisimulation-minimise a DTMC" in
  Cmd.v
    (Cmd.info "quotient" ~doc)
    Term.(const run_quotient $ model_arg $ output_arg)

(* ------------------------------ simulate ------------------------------ *)

let steps_arg =
  Arg.(value & opt int 50 & info [ "steps" ] ~docv:"N" ~doc:"Maximum path length.")

let count_arg =
  Arg.(value & opt int 1 & info [ "n"; "count" ] ~docv:"K" ~doc:"Number of paths.")

let run_simulate model steps count seed =
  exit_of_result
    (match load_model model with
     | Error e -> Error e
     | Ok d ->
       let rng = Prng.create seed in
       for _ = 1 to count do
         let path = Dtmc.simulate rng d ~max_steps:steps () in
         print_endline (String.concat " " (List.map string_of_int path))
       done;
       Ok true)

let simulate_cmd =
  let doc = "sample paths from a DTMC" in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(const run_simulate $ model_arg $ steps_arg $ count_arg $ seed_arg)

(* -------------------------------- batch ------------------------------- *)

(* Deterministic job suites over the paper's case studies.  Job j of the
   WSN suite asks for repair against a different reward bound; job j of
   the car suite uses a different discount factor.  All jobs in a suite
   share the same underlying model, so the runtime's elimination cache
   coalesces their parametric queries. *)

let wsn_bounds = [| 40; 45; 50; 55; 60; 65; 70; 35 |]

let batch_jobs ~backend ~grid suite count =
  let params = { Wsn.default_params with Wsn.n = grid } in
  let chain = Wsn.chain params in
  let spec = Wsn.repair_spec params in
  let states = grid * grid in
  (* The stock reward bounds are calibrated for the paper's 3×3 grid; for
     other grid sides derive them from the chain's actual expected attempts
     so job 0 always needs (and admits) a repair and later bounds relax. *)
  let bounds =
    if grid = 3 then wsn_bounds
    else
      let base = int_of_float (Float.floor (Wsn.expected_attempts params)) in
      Array.init (Array.length wsn_bounds) (fun i -> base + i)
  in
  let data_bound =
    if grid = 3 then 19
    else max 1 (int_of_float (Float.floor (Wsn.expected_attempts params /. 2.0)))
  in
  (* Every fourth WSN job is a Data Repair on sampled observation traces,
     so a traced batch exercises all four stages (learn, eliminate, solve,
     check); the rest are Model Repairs against varying reward bounds. *)
  let wsn_data_job j =
    let rng = Prng.create (42 + j) in
    let groups = Wsn.observation_groups rng params ~count:600 in
    Job.Data_repair
      {
        n = states;
        init = states - 1;
        labels = [ ("delivered", [ 0 ]) ];
        rewards =
          Some
            (Array.init states (fun s ->
                 if s = 0 then Ratio.zero else Ratio.one));
        phi = Wsn.property data_bound;
        spec = Data_repair.spec ~pinned:[ "success" ] (Tally.of_groups groups);
        starts = 2;
        backend;
      }
  in
  let wsn_job j =
    if j mod 4 = 3 then wsn_data_job j
    else
      Job.Model_repair
        {
          model = chain;
          phi = Wsn.property bounds.(j mod Array.length bounds);
          spec;
          starts = 4;
          backend;
        }
  in
  let mdp = Car.mdp () in
  let car_job j =
    Job.Reward_repair
      {
        mdp;
        theta = Car.paper_learned_theta;
        constraints = [ Car.unsafe_q_constraint ];
        gamma = 0.88 +. (0.005 *. float_of_int (j mod 8));
      }
  in
  let mk =
    match suite with
    | `Wsn -> wsn_job
    | `Car -> car_job
    | `Mixed -> fun j -> if j mod 2 = 0 then wsn_job (j / 2) else car_job (j / 2)
  in
  List.init count mk

let suite_arg =
  let doc = "Job suite: $(b,wsn) (model repair against varying reward \
             bounds), $(b,car) (reward repair with varying discount), or \
             $(b,mixed)." in
  let suite_conv = Arg.enum [ ("wsn", `Wsn); ("car", `Car); ("mixed", `Mixed) ] in
  Arg.(value & opt suite_conv `Wsn & info [ "suite" ] ~docv:"SUITE" ~doc)

let jobs_arg =
  Arg.(value & opt int 8 & info [ "jobs" ] ~docv:"N" ~doc:"Number of jobs.")

let grid_arg =
  let doc =
    "WSN grid side n (the suite runs on an n×n sensor grid; reward bounds \
     are recalibrated automatically for n ≠ 3)."
  in
  Arg.(value & opt int 3 & info [ "grid" ] ~docv:"N" ~doc)

let workers_arg =
  let doc = "Worker domains in the pool." in
  Arg.(value & opt int 1 & info [ "w"; "workers" ] ~docv:"K" ~doc)

let stats_arg =
  let doc = "Write the runtime's JSON stats dump to this file ('-' for \
             stdout) after the batch." in
  Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE" ~doc)

let retries_arg =
  let doc = "Retry transiently-failed jobs up to this many times (capped \
             jittered exponential backoff; 0 disables retries)." in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let retry_backoff_arg =
  let doc = "Base backoff between retries, in milliseconds (doubles per \
             attempt, jittered deterministically)." in
  Arg.(value & opt float 50.0 & info [ "retry-backoff-ms" ] ~docv:"MS" ~doc)

let parse_fault_spec s =
  let site_of = function
    | "learn" -> Ok Fault.Learn
    | "eliminate" -> Ok Fault.Eliminate
    | "solve" -> Ok Fault.Solve
    | "check" -> Ok Fault.Check
    | "cache" -> Ok Fault.Cache
    | "worker" -> Ok Fault.Worker
    | "accept" -> Ok Fault.Accept
    | "read" -> Ok Fault.Read
    | "decode" -> Ok Fault.Decode
    | "write" -> Ok Fault.Write
    | site -> Error (Printf.sprintf "unknown fault site %S" site)
  in
  let int_field what v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> Ok i
    | _ -> Error (Printf.sprintf "bad fault %s %S" what v)
  in
  let parts = String.split_on_char ':' (String.lowercase_ascii s) in
  let open Result in
  let ( let* ) = bind in
  match parts with
  | [] | [ "" ] -> Error "empty fault spec"
  | site :: rest ->
    let* site = site_of site in
    let* action, rest =
      match rest with
      | [] -> Ok (Fault.Raise, [])
      | "raise" :: r -> Ok (Fault.Raise, r)
      | "nan" :: r -> Ok (Fault.Nan, r)
      | "delay" :: ms :: r -> (
          match float_of_string_opt ms with
          | Some ms when ms >= 0.0 -> Ok (Fault.Delay (ms /. 1000.0), r)
          | _ -> Error (Printf.sprintf "bad fault delay %S" ms))
      | "delay" :: [] -> Error "fault action delay needs DELAY_MS"
      | a :: _ -> Error (Printf.sprintf "unknown fault action %S" a)
    in
    let* fires =
      match rest with
      | [] -> Ok 1
      | [ c ] -> int_field "count" c
      | _ -> Error (Printf.sprintf "trailing junk in fault spec %S" s)
    in
    Ok (Fault.spec ~fires site action)

let inject_fault_arg =
  let doc =
    "Inject a deterministic fault, SITE[:ACTION[:ARGS]] (repeatable). \
     SITE is one of $(b,learn), $(b,eliminate), $(b,solve), $(b,check), \
     $(b,cache), $(b,worker), or — for $(b,tml serve) — the connection \
     sites $(b,accept), $(b,read), $(b,decode), $(b,write); ACTION is \
     $(b,raise) (default), $(b,nan), or \
     $(b,delay):MS. A trailing :COUNT sets how many times the fault fires \
     (default 1), e.g. --inject-fault solve:nan:2 or \
     --inject-fault cache:delay:250:3."
  in
  Arg.(value & opt_all string [] & info [ "inject-fault" ] ~docv:"SPEC" ~doc)

let run_batch_cmd suite jobs workers stats retries retry_backoff_ms
    fault_specs trace_out metrics_out seed backend grid =
  exit_of_result
    (if jobs < 1 then Error "need at least one job"
     else if workers < 1 then Error "need at least one worker"
     else if grid < 2 then Error "grid side must be at least 2"
     else begin
       let job_list = batch_jobs ~backend ~grid suite jobs in
       let retry =
         if retries <= 0 then None
         else
           Some
             (Retry.make ~max_retries:retries
                ~base_backoff_ms:retry_backoff_ms ~seed ())
       in
       match
         List.fold_left
           (fun acc s ->
              match (acc, parse_fault_spec s) with
              | Error _, _ -> acc
              | _, (Error _ as e) -> e
              | Ok specs, Ok spec -> Ok (spec :: specs))
           (Ok []) fault_specs
       with
       | Error msg -> Error msg
       | Ok fault_specs ->
       (match fault_specs with
        | [] -> ()
        | specs -> Fault.install (Some (Fault.plan ~seed (List.rev specs))));
       Fun.protect ~finally:(fun () -> Fault.install None) @@ fun () ->
       with_observability ~trace_out ~metrics_out @@ fun () ->
       try
         Runtime.with_runtime ~workers (fun rt ->
           let all_ok = ref true in
           let outcomes = Runtime.run_batch rt ?retry job_list in
           List.iteri
             (fun i (job, outcome) ->
                Printf.printf "== job %d (%s) ==\n" (i + 1) (Job.kind job);
                match outcome with
                | Future.Value o -> Format.printf "%a@?" Job.pp_outcome o
                | Future.Failed e ->
                  all_ok := false;
                  Printf.printf "FAILED: %s\n" (Printexc.to_string e)
                | Future.Cancelled ->
                  all_ok := false;
                  Printf.printf "CANCELLED\n"
                | Future.Timed_out ->
                  all_ok := false;
                  Printf.printf "TIMED OUT\n")
             (List.combine job_list outcomes);
           Option.iter
             (fun path -> write_text path (Json.render (Runtime.stats_json rt) ^ "\n"))
             stats;
           Ok !all_ok)
       with Sys_error msg -> Error msg
     end)

let batch_cmd =
  let doc = "run a batch of repair jobs on the concurrent runtime" in
  let man =
    [
      `S Manpage.s_description;
      `P "Submits a deterministic suite of repair jobs to the worker-pool \
          runtime and prints each job's report in submission order. Results \
          are byte-identical for any worker count; jobs with equal digests \
          run once.";
    ]
  in
  Cmd.v
    (Cmd.info "batch" ~doc ~man)
    Term.(
      const run_batch_cmd $ suite_arg $ jobs_arg $ workers_arg $ stats_arg $ retries_arg $ retry_backoff_arg $ inject_fault_arg
      $ trace_out_arg $ metrics_out_arg $ seed_arg $ backend_arg $ grid_arg)

(* -------------------------------- trace ------------------------------- *)

let trace_file_arg =
  let doc = "JSON-lines span dump produced by --trace-out." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let summary_arg =
  Arg.(
    value & flag
    & info [ "summary" ]
        ~doc:
          "Append the aggregate per-span-name table (count, total, mean, \
           max, errors) to the tree view.")

let run_trace file summary =
  exit_of_result
    (try
       let text = In_channel.with_open_text file In_channel.input_all in
       let spans = Trace_export.of_jsonl text in
       if spans = [] then Printf.printf "%s: empty trace\n" file
       else
         print_string
           (if summary then Trace_export.summary spans
            else Trace_export.tree spans);
       Ok true
     with
     | Trace_export.Parse_error msg ->
       Error (Printf.sprintf "%s: %s" file msg)
     | Sys_error msg -> Error msg)

let trace_cmd =
  let doc = "render a recorded trace as a span tree" in
  let man =
    [
      `S Manpage.s_description;
      `P "Reads a JSON-lines span dump written by $(b,tml batch --trace-out) \
          (or $(b,tml experiments --trace-out)) and renders the span \
          forest: every job's submit/run pair with its pipeline stages, \
          cache fills, NLP fallback rungs, retries and injected faults \
          nested beneath it, each with its wall-clock duration.";
    ]
  in
  Cmd.v
    (Cmd.info "trace" ~doc ~man)
    Term.(const run_trace $ trace_file_arg $ summary_arg)

(* ----------------------------- experiments ---------------------------- *)

let which_arg =
  let doc = "Which experiment to run: e1..e6, f1 or all." in
  Arg.(value & pos 0 string "all" & info [] ~docv:"WHICH" ~doc)

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller workloads for E4/E6.")

let run_experiments which quick trace_out metrics_out =
  with_observability ~trace_out ~metrics_out @@ fun () ->
  let rows =
    match String.lowercase_ascii which with
    | "all" -> Some (Experiments.all ~quick ())
    | "e1" -> Some [ Experiments.e1 () ]
    | "e2" -> Some [ Experiments.e2 () ]
    | "e3" -> Some [ Experiments.e3 () ]
    | "e4" ->
      Some [ Experiments.e4 ~observations:(if quick then 1200 else 3000) () ]
    | "e5" -> Some [ Experiments.e5 () ]
    | "e6" -> Some [ Experiments.e6 ~trajectories:(if quick then 120 else 300) () ]
    | "f1" -> Some [ Experiments.f1 () ]
    | _ -> None
  in
  match rows with
  | None ->
    Printf.eprintf "unknown experiment %S (want e1..e6, f1 or all)\n" which;
    2
  | Some rows ->
    Format.printf "%a@?" Experiments.print_rows rows;
    if List.for_all (fun r -> r.Experiments.ok) rows then 0 else 1

let experiments_cmd =
  let doc = "reproduce the paper's evaluation (DSN'18 §V)" in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(
      const run_experiments $ which_arg $ quick_arg $ trace_out_arg
      $ metrics_out_arg)

(* ------------------------------- serve -------------------------------- *)

let socket_arg =
  let doc = "Serve on (or connect to) this Unix-domain socket path." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc =
    "Serve on (or connect to) HOST:PORT over TCP (numeric host; port 0 \
     binds an ephemeral port, printed at startup)."
  in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let parse_addr socket tcp : (Client.addr, string) result =
  match (socket, tcp) with
  | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
  | Some path, None -> Ok (`Unix path)
  | None, Some hp -> (
      match String.rindex_opt hp ':' with
      | None -> Error (Printf.sprintf "bad --tcp %S (want HOST:PORT)" hp)
      | Some i ->
        let host = String.sub hp 0 i in
        let port = String.sub hp (i + 1) (String.length hp - i - 1) in
        (match int_of_string_opt port with
         | Some port when port >= 0 && port < 65536 -> Ok (`Tcp (host, port))
         | _ -> Error (Printf.sprintf "bad --tcp port %S" port)))
  | None, None -> Error "need --socket PATH or --tcp HOST:PORT"

let faults_of_specs specs =
  List.fold_left
    (fun acc s ->
       match (acc, parse_fault_spec s) with
       | (Error _ as e), _ | _, (Error _ as e) -> e
       | Ok specs, Ok spec -> Ok (spec :: specs))
    (Ok []) specs
  |> Result.map List.rev

let max_pending_arg =
  let doc = "Admission limit: requests admitted but not yet settled." in
  Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N" ~doc)

let max_per_client_arg =
  let doc = "Admission limit: in-flight requests per connection." in
  Arg.(value & opt int 16 & info [ "max-per-client" ] ~docv:"N" ~doc)

let job_timeout_arg =
  let doc = "Per-job runtime deadline, in seconds." in
  Arg.(value & opt (some float) None & info [ "job-timeout" ] ~docv:"S" ~doc)

let read_timeout_arg =
  let doc = "Per-connection socket read deadline, in seconds." in
  Arg.(value & opt float 5.0 & info [ "read-timeout" ] ~docv:"S" ~doc)

let write_timeout_arg =
  let doc = "Per-connection socket write deadline, in seconds." in
  Arg.(value & opt float 5.0 & info [ "write-timeout" ] ~docv:"S" ~doc)

let drain_timeout_arg =
  let doc = "Per-job wait bound during the SIGTERM drain, in seconds." in
  Arg.(value & opt float 30.0 & info [ "drain-timeout" ] ~docv:"S" ~doc)

let coordinator_arg =
  let doc =
    "Run as a fleet coordinator: own no runtime, shard jobs by digest \
     over the --node backends on a consistent-hash ring, re-route \
     around dead nodes and replicate finished reports."
  in
  Arg.(value & flag & info [ "coordinator" ] ~doc)

let node_arg =
  let doc =
    "Backend node address, $(b,unix:PATH) or $(b,HOST:PORT) \
     (repeatable; coordinator mode only)."
  in
  Arg.(value & opt_all string [] & info [ "node" ] ~docv:"ADDR" ~doc)

let vnodes_arg =
  let doc = "Virtual nodes per backend on the hash ring." in
  Arg.(value & opt int 64 & info [ "vnodes" ] ~docv:"N" ~doc)

let probe_interval_arg =
  let doc = "Seconds between backend health probes." in
  Arg.(value & opt float 2.0 & info [ "probe-interval" ] ~docv:"S" ~doc)

let eject_threshold_arg =
  let doc = "Consecutive failures before a backend is ejected." in
  Arg.(value & opt int 3 & info [ "eject-threshold" ] ~docv:"N" ~doc)

let rpc_timeout_arg =
  let doc = "Socket deadline for each backend RPC, in seconds." in
  Arg.(value & opt float 10.0 & info [ "rpc-timeout" ] ~docv:"S" ~doc)

let loops_arg =
  let doc =
    "Event loops (one per domain). Defaults to half the recommended \
     domain count, clamped to 1..4."
  in
  Arg.(value & opt (some int) None & info [ "loops" ] ~docv:"N" ~doc)

let handler_threads_arg =
  let doc =
    "Executor threads for requests that block (waits on running jobs, \
     coordinator fan-out)."
  in
  Arg.(value & opt int 16 & info [ "handler-threads" ] ~docv:"N" ~doc)

let max_write_buffer_arg =
  let doc =
    "Per-connection write-queue cap in bytes: past it the connection \
     stops being read, and responses that would still land on it are \
     shed with an overloaded error."
  in
  Arg.(
    value & opt int (1 lsl 20) & info [ "max-write-buffer" ] ~docv:"BYTES" ~doc)

let parse_nodes nodes =
  List.fold_left
    (fun acc s ->
       match acc with
       | Error _ as e -> e
       | Ok addrs -> (
           match Client.addr_of_string s with
           | addr -> Ok (addr :: addrs)
           | exception Wire.Protocol_error msg -> Error msg))
    (Ok []) nodes
  |> Result.map List.rev

let announce server addr =
  match addr with
  | `Unix path -> Printf.printf "listening on unix:%s\n%!" path
  | `Tcp (host, _) ->
    Printf.printf "listening on tcp:%s:%d\n%!" host
      (Option.value ~default:0 (Server.port server))

let run_serve socket tcp workers max_pending max_per_client job_timeout
    read_timeout write_timeout drain_timeout loops handler_threads
    max_write_buffer retries retry_backoff_ms fault_specs coordinator nodes
    vnodes probe_interval eject_threshold rpc_timeout trace_out metrics_out
    seed =
  exit_of_result
    (match parse_addr socket tcp with
     | Error _ as e -> e
     | Ok addr -> (
         if (not coordinator) && workers < 1 then
           Error "need at least one worker"
         else if coordinator && nodes = [] then
           Error "--coordinator requires at least one --node ADDR"
         else if (not coordinator) && nodes <> [] then
           Error "--node only makes sense with --coordinator"
         else
           match faults_of_specs fault_specs with
           | Error _ as e -> e
           | Ok specs ->
             (match specs with
              | [] -> ()
              | specs -> Fault.install (Some (Fault.plan ~seed specs)));
             Fun.protect ~finally:(fun () -> Fault.install None) @@ fun () ->
             with_observability ~trace_out ~metrics_out @@ fun () ->
             try
               if coordinator then (
                 match parse_nodes nodes with
                 | Error _ as e -> e
                 | Ok addrs ->
                   let coord =
                     Coordinator.create ~vnodes ~rpc_timeout_s:rpc_timeout
                       ~probe_interval_s:probe_interval ~eject_threshold
                       ~drain_timeout_s:drain_timeout addrs
                   in
                   Fun.protect ~finally:(fun () -> Coordinator.shutdown coord)
                   @@ fun () ->
                   let hub = Stream_hub.create (Coordinator.handler coord) in
                   let server =
                     Server.start ~read_timeout_s:read_timeout
                       ~write_timeout_s:write_timeout
                       ~drain_timeout_s:drain_timeout ?loops ~handler_threads
                       ~max_write_buffer
                       ~stats_extra:(Stream_hub.stats_fields hub)
                       ~handler:(Stream_hub.handler hub) addr
                   in
                   Stream_hub.set_push hub (fun ~client j ->
                       Server.push server ~client j);
                   Server.install_signal_handlers server;
                   Printf.printf "coordinating %d node(s)\n%!"
                     (List.length addrs);
                   announce server addr;
                   Server.wait server;
                   Printf.printf "drained (%d job(s) left pending)\n%!"
                     (Coordinator.pending coord);
                   Ok true)
               else
                 Runtime.with_runtime ~workers @@ fun rt ->
                 let retry =
                   if retries <= 0 then None
                   else
                     Some
                       (Retry.make ~max_retries:retries
                          ~base_backoff_ms:retry_backoff_ms ~seed ())
                 in
                 let admission =
                   Admission.create ~max_pending ~max_per_client ()
                 in
                 let router =
                   Router.create ~admission ?job_timeout_s:job_timeout ?retry rt
                 in
                 let hub =
                   Stream_hub.create (Server.handler_of_router router)
                 in
                 let server =
                   Server.start ~read_timeout_s:read_timeout
                     ~write_timeout_s:write_timeout
                     ~drain_timeout_s:drain_timeout ?loops ~handler_threads
                     ~max_write_buffer
                     ~stats_extra:(Stream_hub.stats_fields hub)
                     ~handler:(Stream_hub.handler hub) addr
                 in
                 Stream_hub.set_push hub (fun ~client j ->
                     Server.push server ~client j);
                 Server.install_signal_handlers server;
                 announce server addr;
                 Server.wait server;
                 Printf.printf "drained (%d job(s) left pending)\n%!"
                   (Router.pending_jobs router);
                 Ok true
             with
             | Unix.Unix_error (e, fn, arg) ->
               Error
                 (Printf.sprintf "%s%s: %s" fn
                    (if arg = "" then "" else " " ^ arg)
                    (Unix.error_message e))
             | Tml_error.Error kind -> Error (Tml_error.to_string kind)
             | Invalid_argument msg -> Error msg))

let serve_cmd =
  let doc = "run the repair service on a Unix or TCP socket" in
  let man =
    [
      `S Manpage.s_description;
      `P "Starts a long-lived repair server: requests arrive as \
          length-prefixed JSON frames (see lib/server/wire.mli), are \
          admission-controlled, and run on the concurrent runtime; \
          clients poll or wait on the returned job digest. SIGTERM (or \
          SIGINT) drains gracefully: the listener closes, in-flight \
          requests finish, every admitted job completes, then the \
          process exits 0 — and with --trace-out/--metrics-out the \
          observability dumps are flushed on the way out.";
      `P "With $(b,--coordinator), the process owns no runtime: it \
          shards each job by digest over the $(b,--node) backends on a \
          consistent-hash ring, re-routes around dead nodes (with \
          resubmission, so no accepted job is ever lost), replicates \
          finished reports to the digest's ring successor, and ejects / \
          re-admits nodes from periodic health probes. Inspect and \
          administer the ring with $(b,tml fleet).";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const run_serve $ socket_arg $ tcp_arg $ workers_arg $ max_pending_arg
      $ max_per_client_arg $ job_timeout_arg $ read_timeout_arg
      $ write_timeout_arg $ drain_timeout_arg $ loops_arg
      $ handler_threads_arg $ max_write_buffer_arg $ retries_arg
      $ retry_backoff_arg $ inject_fault_arg $ coordinator_arg $ node_arg
      $ vnodes_arg $ probe_interval_arg $ eject_threshold_arg
      $ rpc_timeout_arg $ trace_out_arg $ metrics_out_arg $ seed_arg)

(* ------------------------------- client ------------------------------- *)

let client_op_arg =
  let doc =
    "Operation: $(b,ping), $(b,stats), $(b,check), $(b,model-repair), \
     $(b,data-repair), $(b,reward-repair), $(b,pipeline), $(b,poll), \
     $(b,wait) or $(b,cancel)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)

let client_model_arg =
  let doc = "Model file (DTMC format; MDP format for reward-repair)." in
  Arg.(value & opt (some file) None & info [ "m"; "model" ] ~docv:"FILE" ~doc)

let client_prop_arg =
  let doc = "PCTL property, e.g. \"P>=0.9 [ F goal ]\"." in
  Arg.(value & opt (some string) None & info [ "p"; "prop" ] ~docv:"PCTL" ~doc)

let client_traces_arg =
  let doc = "Trace dataset file (lib/io/trace_io.mli format)." in
  Arg.(value & opt (some file) None & info [ "t"; "traces" ] ~docv:"FILE" ~doc)

let client_states_arg =
  let doc = "Number of model states (data-repair, pipeline)." in
  Arg.(value & opt (some int) None & info [ "states" ] ~docv:"N" ~doc)

let client_theta_arg =
  let doc = "Reward weight vector, colon-separated (reward-repair)." in
  Arg.(value & opt (some string) None & info [ "theta" ] ~docv:"THETA" ~doc)

let client_constraints_arg =
  let doc = "Q-value constraint STATE:BETTER:WORSE (repeatable)." in
  Arg.(value & opt_all string [] & info [ "c"; "constraint" ] ~docv:"QC" ~doc)

let max_drop_arg =
  let doc = "Upper bound on each trace group's drop fraction." in
  Arg.(value & opt float 0.999 & info [ "max-drop" ] ~docv:"F" ~doc)

let starts_arg =
  let doc =
    "Multi-start count for the Model and Data Repair NLP solvers (Reward \
     Repair has no starts and ignores it)."
  in
  Arg.(value & opt int 4 & info [ "starts" ] ~docv:"N" ~doc)

let client_job_arg =
  let doc = "Job digest (as printed by submit) for poll/wait/cancel." in
  Arg.(value & opt (some string) None & info [ "job" ] ~docv:"DIGEST" ~doc)

let client_timeout_arg =
  let doc = "Bound a wait, in seconds (the job keeps running server-side)." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"S" ~doc)

let async_arg =
  let doc = "Submit without waiting and print the job digest." in
  Arg.(value & flag & info [ "async" ] ~doc)

let read_file path = In_channel.with_open_text path In_channel.input_all

let build_job_request ~op ~model ~prop ~vars ~deltas ~traces ~states ~init
    ~labels ~pinned ~max_drop ~theta ~constraints ~gamma ~starts ~backend =
  let ( let* ) = Result.bind in
  let require what v =
    match v with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s requires %s" op what)
  in
  let* labels =
    List.fold_left
      (fun acc s ->
         let* acc = acc in
         let* l = parse_label_def s in
         Ok (l :: acc))
      (Ok []) labels
    |> Result.map List.rev
  in
  match op with
  | "check" ->
    let* m = require "--model" model in
    let* phi = require "--prop" prop in
    Ok (Wire.Check_req { model = read_file m; phi })
  | "model-repair" ->
    let* m = require "--model" model in
    let* phi = require "--prop" prop in
    Ok
      (Wire.Model_repair_req
         {
           model = read_file m;
           phi;
           variables = vars;
           deltas;
           starts;
           backend = Repair_backend.to_string backend;
         })
  | "data-repair" ->
    let* t = require "--traces" traces in
    let* states = require "--states" states in
    let* phi = require "--prop" prop in
    Ok
      (Wire.Data_repair_req
         {
           states;
           init;
           labels;
           rewards = None;
           phi;
           traces = read_file t;
           max_drop;
           pinned;
           starts;
           backend = Repair_backend.to_string backend;
         })
  | "reward-repair" ->
    let* m = require "--model" model in
    let* theta = require "--theta" theta in
    let* theta =
      List.fold_left
        (fun acc s ->
           let* acc = acc in
           match float_of_string_opt s with
           | Some f -> Ok (f :: acc)
           | None -> Error (Printf.sprintf "bad theta component %S" s))
        (Ok [])
        (String.split_on_char ':' theta)
      |> Result.map List.rev
    in
    let* constraints =
      List.fold_left
        (fun acc s ->
           let* acc = acc in
           match String.split_on_char ':' s with
           | [ st; better; worse ] -> (
               match int_of_string_opt st with
               | Some state -> Ok ((state, better, worse, 1e-4) :: acc)
               | None -> Error (Printf.sprintf "bad constraint %S" s))
           | _ ->
             Error
               (Printf.sprintf "bad constraint %S (want STATE:BETTER:WORSE)" s))
        (Ok []) constraints
      |> Result.map List.rev
    in
    Ok (Wire.Reward_repair_req { mdp = read_file m; theta; constraints; gamma; starts })
  | "pipeline" ->
    let* t = require "--traces" traces in
    let* states = require "--states" states in
    let* phi = require "--prop" prop in
    let model_spec =
      if vars = [] && deltas = [] then None else Some (vars, deltas)
    in
    Ok
      (Wire.Pipeline_req
         {
           states;
           init;
           labels;
           rewards = None;
           model_spec;
           data_spec = Some (max_drop, pinned);
           traces = read_file t;
           phi;
         })
  | op -> Error (Printf.sprintf "unknown client op %S" op)

let run_client socket tcp op model prop vars deltas traces states init labels
    pinned max_drop theta constraints gamma starts backend job timeout async =
  exit_of_result
    (match parse_addr socket tcp with
     | Error _ as e -> e
     | Ok addr ->
       let with_conn f =
         match Client.with_client addr f with
         | v -> v
         | exception Unix.Unix_error (e, _, _) ->
           Error (Printf.sprintf "connect: %s" (Unix.error_message e))
         | exception Tml_error.Error kind -> Error (Tml_error.to_string kind)
         | exception Client.Remote_error err ->
           Error
             (Printf.sprintf "server error (%s%s): %s" err.Wire.kind
                (if err.Wire.transient then ", transient" else "")
                err.Wire.message)
         | exception Wire.Protocol_error msg -> Error ("protocol error: " ^ msg)
       in
       let print_state = function
         | Wire.Job_done report ->
           print_string report;
           Ok true
         | Wire.Job_failed e ->
           Error (Printf.sprintf "job failed (%s): %s" e.Wire.kind e.Wire.message)
         | Wire.Job_pending ->
           Printf.printf "pending\n";
           Ok false
         | Wire.Job_cancelled ->
           Printf.printf "cancelled\n";
           Ok false
         | Wire.Job_timed_out ->
           Printf.printf "timed out\n";
           Ok false
       in
       match op with
       | "ping" ->
         with_conn (fun c ->
             Client.ping c;
             Printf.printf "pong\n";
             Ok true)
       | "stats" ->
         with_conn (fun c ->
             let j = Client.stats c in
             print_endline (Wire.render j);
             (* the serving layer's own section, rendered readably:
                connection counts, write-queue depth and — with a watch
                hub — subscription count and notification-queue bytes *)
             (match Wire.member "server" j with
              | Some (Wire.Obj fields) ->
                let part (k, v) =
                  match v with
                  | Wire.Num f when Float.is_integer f ->
                    Printf.sprintf "%s=%.0f" k f
                  | Wire.Num f -> Printf.sprintf "%s=%g" k f
                  | Wire.Str s -> Printf.sprintf "%s=%s" k s
                  | v -> Printf.sprintf "%s=%s" k (Wire.render v)
                in
                Printf.printf "server: %s\n"
                  (String.concat " " (List.map part fields))
              | _ -> ());
             Ok true)
       | "poll" | "wait" | "cancel" -> (
           match job with
           | None -> Error (Printf.sprintf "%s requires --job DIGEST" op)
           | Some digest ->
             with_conn (fun c ->
                 match op with
                 | "poll" -> print_state (Client.poll c digest)
                 | "wait" -> print_state (Client.wait c ?timeout_s:timeout digest)
                 | _ ->
                   let ok = Client.cancel c digest in
                   Printf.printf "cancelled: %b\n" ok;
                   Ok ok))
       | _ -> (
           match
             try
               build_job_request ~op ~model ~prop ~vars ~deltas ~traces ~states
                 ~init ~labels ~pinned ~max_drop ~theta ~constraints ~gamma
                 ~starts ~backend
             with Sys_error msg -> Error msg
           with
           | Error _ as e -> e
           | Ok jr ->
             with_conn (fun c ->
                 if async then begin
                   let digest, cached = Client.submit c jr in
                   Printf.printf "%s%s\n" digest (if cached then " (cached)" else "");
                   Ok true
                 end
                 else begin
                   let digest, state = Client.run c ?timeout_s:timeout jr in
                   Printf.printf "job %s\n" digest;
                   print_state state
                 end)))

let client_cmd =
  let doc = "submit repair jobs to a running tml server" in
  let man =
    [
      `S Manpage.s_description;
      `P "Connects to a $(b,tml serve) instance, submits one job (or \
          pings, polls, waits, cancels, or dumps server stats) and prints \
          the job's report. Submitting returns a job digest; identical \
          jobs share one digest and are served from the server's job \
          table.";
    ]
  in
  Cmd.v
    (Cmd.info "client" ~doc ~man)
    Term.(
      const run_client $ socket_arg $ tcp_arg $ client_op_arg
      $ client_model_arg $ client_prop_arg $ vars_arg $ deltas_arg
      $ client_traces_arg $ client_states_arg $ init_arg $ labels_arg
      $ pinned_arg $ max_drop_arg $ client_theta_arg $ client_constraints_arg
      $ gamma_arg $ starts_arg $ backend_arg $ client_job_arg
      $ client_timeout_arg $ async_arg)

(* ------------------------------- watch -------------------------------- *)

let watch_op_arg =
  let doc =
    "Operation: $(b,register) (create the watch and subscribe), \
     $(b,append) (stream a trace file in chunks), $(b,follow) (attach \
     and print notifications) or $(b,unwatch)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)

let watch_name_arg =
  let doc = "Watch name, shared by every subscriber and appender." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"WATCH" ~doc)

let watch_file_arg =
  let doc = "Trace file to stream ($(b,-) for stdin; append only)." in
  Arg.(value & opt string "-" & info [ "file" ] ~docv:"FILE" ~doc)

let chunk_bytes_arg =
  let doc =
    "Chunk size for streaming appends, in bytes (chunks may split \
     lines — the server buffers the partial tail)."
  in
  Arg.(value & opt int 65536 & info [ "chunk-bytes" ] ~docv:"BYTES" ~doc)

let from_seq_arg =
  let doc =
    "Replay logged notifications with a larger sequence number on \
     subscribe — reconnect catch-up (pass the last seq you saw)."
  in
  Arg.(value & opt (some int) None & info [ "from-seq" ] ~docv:"SEQ" ~doc)

let follow_flag_arg =
  let doc = "After registering, stay subscribed and print notifications." in
  Arg.(value & flag & info [ "follow" ] ~doc)

let max_events_arg =
  let doc = "Stop following after this many notifications." in
  Arg.(value & opt (some int) None & info [ "max-events" ] ~docv:"N" ~doc)

let idle_exit_arg =
  let doc = "While following, exit after this many seconds of silence." in
  Arg.(value & opt (some float) None & info [ "idle-exit" ] ~docv:"S" ~doc)

let run_watch socket tcp op name prop states init labels pinned max_drop
    starts backend file chunk_bytes from_seq follow_f max_events idle_exit =
  exit_of_result
    (match parse_addr socket tcp with
     | Error _ as e -> e
     | Ok addr ->
       let ( let* ) = Result.bind in
       let with_conn f =
         match Client.with_client ?timeout_s:idle_exit addr f with
         | v -> v
         | exception Unix.Unix_error (e, _, _) ->
           Error (Printf.sprintf "connect: %s" (Unix.error_message e))
         | exception Tml_error.Error kind -> Error (Tml_error.to_string kind)
         | exception Client.Remote_error err ->
           Error
             (Printf.sprintf "server error (%s%s): %s" err.Wire.kind
                (if err.Wire.transient then ", transient" else "")
                err.Wire.message)
         | exception Wire.Protocol_error msg -> Error ("protocol error: " ^ msg)
       in
       let do_follow c =
         let seen = ref 0 in
         Client.follow c
           ?on_idle:(Option.map (fun _ () -> `Stop) idle_exit)
           (fun n ->
             print_endline (Wire.render (Wire.notification_to_json n));
             incr seen;
             match max_events with
             | Some k when !seen >= k -> `Stop
             | _ -> `Continue);
         Ok true
       in
       let build_spec () =
         let* states =
           match states with
           | Some s -> Ok s
           | None -> Error "register requires --states"
         in
         let* phi =
           match prop with
           | Some p -> Ok p
           | None -> Error "register requires --prop"
         in
         let* labels =
           List.fold_left
             (fun acc s ->
                let* acc = acc in
                let* l = parse_label_def s in
                Ok (l :: acc))
             (Ok []) labels
           |> Result.map List.rev
         in
         Ok
           {
             Wire.states;
             init;
             labels;
             rewards = None;
             phi;
             max_drop;
             pinned;
             starts;
             backend = Repair_backend.to_string backend;
           }
       in
       match op with
       | "register" ->
         let* spec = build_spec () in
         with_conn (fun c ->
             let seq, created = Client.watch c ~spec ?from_seq name in
             Printf.printf "watch %s %s (seq %d)\n%!" name
               (if created then "created" else "joined")
               seq;
             if follow_f then do_follow c else Ok true)
       | "follow" ->
         with_conn (fun c ->
             let seq, _created = Client.watch c ?from_seq name in
             Printf.printf "following %s (seq %d)\n%!" name seq;
             do_follow c)
       | "append" ->
         let* text =
           try
             Ok
               (if file = "-" then In_channel.input_all stdin
                else read_file file)
           with Sys_error msg -> Error msg
         in
         if chunk_bytes < 1 then Error "--chunk-bytes must be >= 1"
         else
           with_conn (fun c ->
               (* a spec on the command line registers the watch first,
                  so one invocation can create-and-stream *)
               (match prop with
                | None -> ()
                | Some _ -> (
                    match build_spec () with
                    | Ok spec -> ignore (Client.watch c ~spec name : int * bool)
                    | Error _ -> ()));
               let len = String.length text in
               let violations = ref 0 in
               let rec go off =
                 if off >= len then Ok true
                 else begin
                   let k = min chunk_bytes (len - off) in
                   let r =
                     Client.append_chunk c ~watch:name (String.sub text off k)
                   in
                   if r.Client.violated then incr violations;
                   Printf.printf
                     "chunk @%d: lines=%d support_changed=%b value=%s \
                      violated=%b%s [%s]\n\
                      %!"
                     off r.Client.lines r.Client.support_changed
                     (match r.Client.value with
                      | Some v -> Printf.sprintf "%.6g" v
                      | None -> "-")
                     r.Client.violated
                     (match r.Client.job with
                      | Some d -> " job=" ^ d
                      | None -> "")
                     r.Client.recheck;
                   go (off + k)
                 end
               in
               let* ok = go 0 in
               Printf.printf "streamed %d byte(s), %d violation(s)\n%!" len
                 !violations;
               Ok ok)
       | "unwatch" ->
         with_conn (fun c ->
             let existed = Client.unwatch c name in
             Printf.printf "unwatched %s (was subscribed: %b)\n" name existed;
             Ok true)
       | op -> Error (Printf.sprintf "unknown watch op %S" op))

let watch_cmd =
  let doc = "stream traces to a tml server and follow repair notifications" in
  let man =
    [
      `S Manpage.s_description;
      `P "The online-repair client. $(b,register) creates a named watch \
          on the server (model skeleton, PCTL property and repair \
          configuration) and subscribes this connection; $(b,append) \
          streams a trace file to it in chunks — the server folds each \
          chunk into its incremental learner and re-checks the property \
          in microseconds while the count support is unchanged; \
          $(b,follow) attaches and prints each server-push notification \
          (violation, completed repair report, or error) as one JSON \
          line. A violated check submits a data-repair job on the \
          accumulated traces, identical digest-for-digest to a batch \
          submit of the same dataset.";
      `P "Reconnect catch-up: every notification carries a per-watch \
          sequence number and is kept in a bounded server-side replay \
          log; $(b,--from-seq N) on register/follow replays everything \
          after N, so a killed follower misses nothing.";
    ]
  in
  Cmd.v
    (Cmd.info "watch" ~doc ~man)
    Term.(
      const run_watch $ socket_arg $ tcp_arg $ watch_op_arg $ watch_name_arg
      $ client_prop_arg $ client_states_arg $ init_arg $ labels_arg
      $ pinned_arg $ max_drop_arg $ starts_arg $ backend_arg $ watch_file_arg
      $ chunk_bytes_arg $ from_seq_arg $ follow_flag_arg $ max_events_arg
      $ idle_exit_arg)

(* ------------------------------- fleet -------------------------------- *)

let fleet_op_arg =
  let doc = "Operation: $(b,status) or $(b,drain)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)

let fleet_node_arg =
  let doc = "Node address to drain (as listed by $(b,status))." in
  Arg.(value & pos 1 (some string) None & info [] ~docv:"NODE" ~doc)

let run_fleet socket tcp op node =
  exit_of_result
    (match parse_addr socket tcp with
     | Error _ as e -> e
     | Ok addr ->
       let with_conn f =
         match Client.with_client addr f with
         | v -> v
         | exception Unix.Unix_error (e, _, _) ->
           Error (Printf.sprintf "connect: %s" (Unix.error_message e))
         | exception Tml_error.Error kind -> Error (Tml_error.to_string kind)
         | exception Client.Remote_error err ->
           Error
             (Printf.sprintf "coordinator error (%s): %s" err.Wire.kind
                err.Wire.message)
         | exception Wire.Protocol_error msg -> Error ("protocol error: " ^ msg)
       in
       match op with
       | "status" ->
         with_conn (fun c ->
             print_endline (Wire.render (Client.fleet_status c));
             Ok true)
       | "drain" -> (
           match node with
           | None -> Error "drain requires a NODE address argument"
           | Some node ->
             with_conn (fun c ->
                 let pending = Client.drain_node c node in
                 Printf.printf "drained %s (%d job(s) left pending)\n" node
                   pending;
                 Ok (pending = 0)))
       | op -> Error (Printf.sprintf "unknown fleet op %S" op))

let fleet_cmd =
  let doc = "inspect or administer a tml coordinator's backend ring" in
  let man =
    [
      `S Manpage.s_description;
      `P "Talks to a $(b,tml serve --coordinator) instance. $(b,status) \
          dumps the ring membership, per-node health state and in-flight \
          counts, and the re-route/ejection/replication counters as \
          JSON. $(b,drain NODE) takes a backend out of the ring \
          gracefully: new digests stop routing to it, its in-flight \
          jobs are awaited (and their reports replicated), then it is \
          removed — zero job loss.";
    ]
  in
  Cmd.v
    (Cmd.info "fleet" ~doc ~man)
    Term.(const run_fleet $ socket_arg $ tcp_arg $ fleet_op_arg $ fleet_node_arg)

(* ------------------------------- main --------------------------------- *)

let main_cmd =
  let doc = "Trusted Machine Learning: model, data and reward repair for MDPs" in
  Cmd.group
    (Cmd.info "tml" ~version:"1.0.0" ~doc)
    [ check_cmd; model_repair_cmd; data_repair_cmd; reward_repair_cmd;
      pipeline_cmd; smc_cmd; quotient_cmd; simulate_cmd; batch_cmd;
      experiments_cmd; trace_cmd; serve_cmd; client_cmd; watch_cmd;
      fleet_cmd ]

let () = exit (Cmd.eval' main_cmd)
