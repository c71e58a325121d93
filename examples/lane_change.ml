(* The paper's introduction example: on seeing a slow-moving truck ahead, a
   lane-change controller must satisfy

       P > 0.99 [ F changedLane | reducedSpeed ]

   We learn a small controller chain from (synthetic) drive logs, find the
   property violated because logged sensor glitches make the controller
   freeze, repair the model, and cross-check the repaired chain with
   statistical model checking and with interval-robust verification.

   Run with: dune exec examples/lane_change.exe *)

let section title = Format.printf "@\n=== %s ===@\n" title

(* States: 0 = truck detected, 1 = changing lane, 2 = braking,
   3 = changedLane (absorbing), 4 = reducedSpeed (absorbing),
   5 = frozen controller (absorbing, the failure mode). *)
let labels =
  [ ("changedLane", [ 3 ]); ("reducedSpeed", [ 4 ]); ("frozen", [ 5 ]) ]

let property = Pctl_parser.parse "P>0.99 [ F changedLane | reducedSpeed ]"

let make_logs rng ~freeze_rate ~count =
  List.init count (fun _ ->
      (* from detection: 60% start a lane change, 38% brake, freeze_rate
         freeze *)
      let r = Prng.float rng in
      if r < freeze_rate then Trace.of_states [ 0; 5 ]
      else if r < freeze_rate +. 0.6 then
        (* lane change completes 95% of the time, else fall back to brake *)
        if Prng.float rng < 0.95 then Trace.of_states [ 0; 1; 3 ]
        else Trace.of_states [ 0; 1; 2; 4 ]
      else Trace.of_states [ 0; 2; 4 ])

let () =
  let rng = Prng.create 2024 in
  section "Learning the controller chain from drive logs";
  let traces = make_logs rng ~freeze_rate:0.03 ~count:2000 in
  (* the exact count-ratio chain is what Model Repair perturbs; checks
     use its float instantiation *)
  let base = Mle.learn ~n:6 ~init:0 ~labels (Tally.of_traces traces) in
  let model = Pdtmc.to_dtmc base in
  let v = Check_dtmc.check_verbose model property in
  Format.printf "%s --> %s (value %.4f)@\n" (Pctl.to_string property)
    (if v.Check_dtmc.holds then "HOLDS" else "VIOLATED")
    (Option.value ~default:Float.nan v.Check_dtmc.value);

  section "Model Repair: reduce the freeze probability";
  let spec =
    {
      Model_repair.variables = [ ("f", 0.0, 0.05) ];
      deltas =
        [ (0, 5, Ratfun.neg (Ratfun.var "f")); (0, 1, Ratfun.var "f") ];
    }
  in
  (match Model_repair.repair ~base model property spec with
   | Model_repair.Repaired r ->
     Format.printf "repaired: freeze probability lowered by %.4f@\n"
       (List.assoc "f" r.Model_repair.assignment);
     Format.printf "achieved P = %.5f (verified %b, eps-bisimilar with eps = %.4f)@\n"
       r.Model_repair.achieved_value r.Model_repair.verified
       r.Model_repair.epsilon_bisimilarity;

     section "Cross-check 1: statistical model checking";
     let est =
       Smc.estimate ~samples:50_000 rng r.Model_repair.dtmc
         (Eventually (Or (Prop "changedLane", Prop "reducedSpeed")))
     in
     Format.printf "Monte Carlo: %.5f  (95%% CI [%.5f, %.5f])@\n"
       est.Smc.probability est.Smc.ci_low est.Smc.ci_high;
     (* bound 0.99 with default half-width 0.01 would touch 1.0 *)
     let verdict, n = Smc.sprt ~delta:0.004 rng r.Model_repair.dtmc property in
     Format.printf "SPRT: %s after %d samples@\n"
       (String.uppercase_ascii (Smc.verdict_to_string verdict))
       n;

     section "Cross-check 2: robustness to estimation error";
     (* The minimal repair sits exactly on the 0.99 boundary, so it has NO
        robustness margin: any uncertainty ball around it contains a
        violating chain. *)
     let ball = Idtmc.of_dtmc ~radius:1e-4 r.Model_repair.dtmc in
     Format.printf
       "minimal repair within a 1e-4 uncertainty ball: robustly %s@\n"
       (if Robust.check ball property then "HOLDS" else "VIOLATED");
     (* Repairing against a strengthened bound buys a margin. *)
     let margin_property = Pctl_parser.parse "P>0.995 [ F changedLane | reducedSpeed ]" in
     (match Model_repair.repair ~base model margin_property spec with
      | Model_repair.Repaired r2 ->
        Format.printf "re-repaired against P>0.995 (freeze lowered by %.4f):@\n"
          (List.assoc "f" r2.Model_repair.assignment);
        List.iter
          (fun radius ->
             let ball = Idtmc.of_dtmc ~radius r2.Model_repair.dtmc in
             Format.printf "  radius %.4g: original P>0.99 robustly %s@\n" radius
               (if Robust.check ball property then "HOLDS" else "VIOLATED"))
          [ 1e-4; 1e-3; 5e-3 ]
      | _ -> Format.printf "margin repair not available@\n")
   | Model_repair.Already_satisfied _ ->
     Format.printf "logs were clean enough; nothing to repair@\n"
   | Model_repair.Infeasible { min_violation } ->
     Format.printf "infeasible (violation %.5f)@\n" min_violation)
