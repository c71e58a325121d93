(* Cyber-security — the paper's other mission-critical domain (§I, §VII).

   An intrusion-response controller is an MDP: the system drifts through
   attack stages (probing -> foothold -> escalation -> compromised) while
   the defender chooses between cheap monitoring and expensive responses.
   We ask for a liveness/safety mix:

     - safety:  P <= 0.05 [ F compromised ]   (for every defender policy?
       no — for the chosen one), and
     - the cheapest response policy that achieves it.

   The example exercises: MDP model checking (Pmin/Pmax), optimal
   scheduler extraction for expected cost, policy rules, and the induced
   chain's exact check.

   Run with: dune exec examples/intrusion_response.exe *)

let section title = Format.printf "@\n=== %s ===@\n" title

(* States: 0 normal, 1 probing, 2 foothold, 3 escalated, 4 compromised
   (absorbing), 5 contained (absorbing). *)
let mdp () =
  Mdp.make ~n:6 ~init:0
    ~actions:
      [ (* normal operation: attacks begin regardless; defender watches *)
        (0, "monitor", [ (0, 0.90); (1, 0.10) ]);
        (* probing: keep monitoring (cheap) or patch (pushes back) *)
        (1, "monitor", [ (1, 0.55); (2, 0.40); (0, 0.05) ]);
        (1, "patch", [ (0, 0.85); (1, 0.15) ]);
        (* foothold: isolate (expensive, very effective) or patch *)
        (2, "patch", [ (1, 0.45); (2, 0.30); (3, 0.25) ]);
        (2, "isolate", [ (5, 0.90); (2, 0.10) ]);
        (* escalated: isolate or lose the box *)
        (3, "isolate", [ (5, 0.70); (4, 0.30) ]);
        (3, "monitor", [ (4, 0.80); (3, 0.20) ]);
        (4, "stay", [ (4, 1.0) ]);
        (5, "stay", [ (5, 1.0) ]);
      ]
    ~action_rewards:
      [ (* response costs *)
        ((0, "monitor"), 1.0); ((1, "monitor"), 1.0); ((3, "monitor"), 1.0);
        ((1, "patch"), 5.0); ((2, "patch"), 5.0);
        ((2, "isolate"), 20.0); ((3, "isolate"), 20.0);
      ]
    ~labels:[ ("compromised", [ 4 ]); ("contained", [ 5 ]) ]
    ()

let () =
  let m = mdp () in
  section "Adversarial bounds over all defender policies";
  let worst =
    Check_mdp.path_probability Check_mdp.Max m (Eventually (Prop "compromised"))
  in
  let best =
    Check_mdp.path_probability Check_mdp.Min m (Eventually (Prop "compromised"))
  in
  Format.printf "P(compromised): best policy %.4f, worst policy %.4f@\n" best worst;
  Format.printf "P<=0.05 [ F compromised ] holds for every policy: %b@\n"
    (Check_mdp.check m (Pctl_parser.parse "P<=0.05 [ F compromised ]"));

  section "Cheapest policy reaching containment";
  let pi =
    Check_mdp.optimal_reachability_policy Check_mdp.Min m (Prop "contained")
  in
  Array.iteri
    (fun s a -> if s < 4 then Format.printf "  state %d -> %s@\n" s a)
    pi;
  let cost =
    Check_mdp.reachability_reward_from_init Check_mdp.Min m (Prop "contained")
  in
  Format.printf "expected response cost: %.2f@\n" cost;

  section "Checking the chosen policy's induced chain";
  let chain = Mdp.induced_dtmc m pi in
  let v =
    Check_dtmc.check_verbose chain
      (Pctl_parser.parse "P<=0.05 [ F compromised ]")
  in
  Format.printf "under the cheapest policy, P(compromised) = %.4f --> %s@\n"
    (Option.value ~default:Float.nan v.Check_dtmc.value)
    (if v.Check_dtmc.holds then "ACCEPTABLE" else "TOO RISKY");

  (* If too risky, trade money for safety: evaluate the always-respond
     policy. *)
  if not v.Check_dtmc.holds then begin
    let aggressive = [| "monitor"; "patch"; "isolate"; "isolate"; "stay"; "stay" |] in
    let chain = Mdp.induced_dtmc m aggressive in
    let v2 =
      Check_dtmc.check_verbose chain
        (Pctl_parser.parse "P<=0.05 [ F compromised ]")
    in
    Format.printf "aggressive policy: P(compromised) = %.4f --> %s@\n"
      (Option.value ~default:Float.nan v2.Check_dtmc.value)
      (if v2.Check_dtmc.holds then "ACCEPTABLE" else "TOO RISKY")
  end;

  section "Trajectory rule check on rollouts";
  let rule =
    Trace_logic.(Always (Implies (Atom (Label "compromised"), False)))
    (* i.e. never compromised *)
  in
  let safe_policy = [| "monitor"; "patch"; "isolate"; "isolate"; "stay"; "stay" |] in
  Format.printf "rule %s on every branch of the aggressive policy (20 steps): %b@\n"
    (Trace_logic.to_string rule)
    (Reward_repair.policy_satisfies m safe_policy ~rules:[ rule ] ~horizon:20)
