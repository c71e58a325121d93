(* Quickstart: build a small Markov chain, check a PCTL property, and repair
   the model when the property fails.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A 3-state chain: from [start] we reach [goal] with probability 0.3 and
     [fail] with probability 0.7; both are absorbing. *)
  let chain =
    Dtmc.make ~n:3 ~init:0
      ~transitions:[ (0, 1, 0.3); (0, 2, 0.7); (1, 1, 1.0); (2, 2, 1.0) ]
      ~labels:[ ("goal", [ 1 ]); ("fail", [ 2 ]) ]
      ()
  in
  Format.printf "Model:@\n%a@\n" Dtmc.pp chain;

  (* Parse a PCTL property: "the goal is eventually reached with
     probability at least one half". *)
  let phi = Pctl_parser.parse "P>=0.5 [ F goal ]" in
  let verdict = Check_dtmc.check_verbose chain phi in
  Format.printf "%s  -->  %s (value %s)@\n@\n" (Pctl.to_string phi)
    (if verdict.Check_dtmc.holds then "HOLDS" else "VIOLATED")
    (match verdict.Check_dtmc.value with
     | Some v -> Printf.sprintf "%.3f" v
     | None -> "-");

  (* Model Repair: perturb the branch probability (one variable [v] added
     to the goal edge and removed from the fail edge, keeping the row
     stochastic), minimising v². *)
  let spec =
    {
      Model_repair.variables = [ ("v", 0.0, 0.6) ];
      deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
    }
  in
  match Model_repair.repair ~base:(Pdtmc.of_dtmc chain) chain phi spec with
  | Model_repair.Repaired r ->
    Format.printf "Model Repair succeeded:@\n";
    List.iter
      (fun (name, v) -> Format.printf "  %s = %.4f@\n" name v)
      r.Model_repair.assignment;
    Format.printf "  cost            = %.6f@\n" r.Model_repair.cost;
    Format.printf "  achieved value  = %.4f@\n" r.Model_repair.achieved_value;
    Format.printf "  re-verified     = %b@\n" r.Model_repair.verified;
    Format.printf "  symbolic f(v)   = %s@\n"
      (Ratfun.to_string r.Model_repair.symbolic_constraint);
    Format.printf "Repaired model:@\n%a" Dtmc.pp r.Model_repair.dtmc
  | Model_repair.Already_satisfied _ ->
    Format.printf "Nothing to do: the property already holds.@\n"
  | Model_repair.Infeasible { min_violation } ->
    Format.printf "Repair infeasible (best violation %.4f).@\n" min_violation
