(* The §V-A wireless-sensor-network case study, end to end:

   1. build the 3×3 query-routing chain;
   2. check R{attempts} <= X [F delivered] for X = 100, 40, 19;
   3. Model Repair for X = 40 (feasible) and X = 19 (infeasible);
   4. Data Repair for X = 19 by dropping failure observations.

   Run with: dune exec examples/wsn_routing.exe *)

let section title = Format.printf "@\n=== %s ===@\n" title

let () =
  let p = Wsn.default_params in
  let chain = Wsn.chain p in

  section "The model";
  Format.printf
    "3x3 grid; query injected at n33 (state %d) must reach n11 (state 0).@\n"
    (Dtmc.init_state chain);
  Format.printf "ignore probabilities: field/station %.3f, other %.3f@\n"
    p.Wsn.ignore_field_station p.Wsn.ignore_other;
  Format.printf "expected forwarding attempts: %.2f@\n" (Wsn.expected_attempts p);

  section "E1: R{attempts} <= 100 [F delivered]";
  let v = Check_dtmc.check_verbose chain (Wsn.property 100) in
  Format.printf "holds: %b (value %.2f)@\n" v.Check_dtmc.holds
    (Option.value ~default:Float.nan v.Check_dtmc.value);

  section "E2: Model Repair for X = 40";
  let base = Pdtmc.of_dtmc chain in
  (match Model_repair.repair ~base chain (Wsn.property 40) (Wsn.repair_spec p) with
   | Model_repair.Repaired r ->
     Format.printf "feasible: lower the ignore probabilities by@\n";
     List.iter
       (fun (name, v) ->
          Format.printf "  %s = %.4f  (%s nodes)@\n" name v
            (if name = "p" then "field/station" else "other"))
       r.Model_repair.assignment;
     Format.printf "expected attempts after repair: %.2f (verified: %b)@\n"
       r.Model_repair.achieved_value r.Model_repair.verified
   | Model_repair.Already_satisfied _ -> Format.printf "already satisfied?@\n"
   | Model_repair.Infeasible _ -> Format.printf "unexpectedly infeasible@\n");

  section "E3: Model Repair for X = 19";
  (match Model_repair.repair ~base chain (Wsn.property 19) (Wsn.repair_spec p) with
   | Model_repair.Infeasible { min_violation } ->
     Format.printf
       "infeasible, as in the paper: even maximal corrections leave the@\n\
        expected attempts %.2f above the bound.@\n"
       min_violation
   | _ -> Format.printf "unexpected outcome@\n");

  section "E4: Data Repair for X = 19";
  let rng = Prng.create 42 in
  let groups = Wsn.observation_groups rng p ~count:3000 in
  List.iter
    (fun (g, traces) -> Format.printf "  %-20s %5d observations@\n" g (List.length traces))
    groups;
  let rewards = Array.init 9 (fun s -> if s = 0 then Ratio.zero else Ratio.one) in
  match
    Data_repair.repair ~n:9 ~init:8
      ~labels:[ ("delivered", [ 0 ]) ]
      ~rewards ~starts:6 (Wsn.property 19)
      (Data_repair.spec ~pinned:[ "success" ] (Tally.of_groups groups))
  with
  | Data_repair.Repaired r ->
    Format.printf "feasible: drop fractions@\n";
    List.iter
      (fun (g, v) -> Format.printf "  drop(%-20s) = %.4f@\n" g v)
      r.Data_repair.drop_fractions;
    Format.printf
      "model re-learned from the repaired data has expected attempts %.2f@\n\
       (~%.0f observations dropped; verified: %b)@\n"
      r.Data_repair.achieved_value r.Data_repair.dropped_traces
      r.Data_repair.verified
  | Data_repair.Already_satisfied _ -> Format.printf "already satisfied?@\n"
  | Data_repair.Infeasible _ -> Format.printf "unexpectedly infeasible@\n"
