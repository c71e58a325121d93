(* Data Repair as machine teaching (§IV-B): a dataset is corrupted by a
   batch of faulty sensor readings; the model learned from it violates a
   safety property; Data Repair identifies the smallest drop fractions per
   data group that make the re-learned model safe — and correctly keeps the
   trustworthy group intact.

   Run with: dune exec examples/data_repair_demo.exe *)

let section title = Format.printf "@\n=== %s ===@\n" title

(* A door controller: state 0 decides, state 1 = door opens (goal),
   state 2 = door stays shut (violation of liveness). *)
let property = Pctl_parser.parse "P>=0.9 [ F opened ]"

let make_traces ~opened ~shut =
  List.init opened (fun _ -> Trace.of_states [ 0; 1 ])
  @ List.init shut (fun _ -> Trace.of_states [ 0; 2 ])

let learn groups =
  Mle.learn_dtmc ~n:3 ~init:0
    ~labels:[ ("opened", [ 1 ]); ("shut", [ 2 ]) ]
    (Tally.of_traces (List.concat_map snd groups))

let () =
  section "The data";
  (* A clean lab dataset and a corrupted field batch: a stuck sensor in the
     field batch reports "shut" far too often. *)
  let groups =
    [ ("lab_batch", make_traces ~opened:95 ~shut:5);
      ("field_batch", make_traces ~opened:20 ~shut:80);
    ]
  in
  List.iter
    (fun (g, traces) -> Format.printf "  %-12s %4d traces@\n" g (List.length traces))
    groups;

  section "Learning from everything";
  let model = learn groups in
  let v = Check_dtmc.check_verbose model property in
  Format.printf "learned P(open) = %.3f; %s --> %s@\n" (Dtmc.prob model 0 1)
    (Pctl.to_string property)
    (if v.Check_dtmc.holds then "HOLDS" else "VIOLATED");

  section "Data Repair (lab batch pinned as trusted)";
  match
    Data_repair.repair ~n:3 ~init:0
      ~labels:[ ("opened", [ 1 ]); ("shut", [ 2 ]) ]
      property
      (Data_repair.spec ~pinned:[ "lab_batch" ] (Tally.of_groups groups))
  with
  | Data_repair.Repaired r ->
    List.iter
      (fun (g, frac) -> Format.printf "  drop(%-12s) = %.4f@\n" g frac)
      r.Data_repair.drop_fractions;
    Format.printf "re-learned P(open) = %.3f (achieved %.3f, verified %b)@\n"
      (Dtmc.prob r.Data_repair.dtmc 0 1)
      r.Data_repair.achieved_value r.Data_repair.verified;
    Format.printf
      "~%.0f traces dropped — all from the corrupted field batch.@\n"
      r.Data_repair.dropped_traces;
    Format.printf "closed-form constraint f(x) = %s@\n"
      (Ratfun.to_string r.Data_repair.symbolic_constraint)
  | Data_repair.Already_satisfied _ ->
    Format.printf "nothing to repair@\n"
  | Data_repair.Infeasible { min_violation } ->
    Format.printf "infeasible (violation %.4f)@\n" min_violation
