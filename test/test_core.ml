(* Tests for Model_repair, Data_repair, Reward_repair and Pipeline on small
   synthetic models (the full §V case studies are exercised in
   test_casestudies.ml). *)

module MR = Model_repair
module DR = Data_repair
module RR = Reward_repair

let parse = Pctl_parser.parse

(* 0 -> goal(1) 0.3 | fail(2) 0.7, absorbing. *)
let branch () =
  Dtmc.make ~n:3 ~init:0
    ~transitions:[ (0, 1, 0.3); (0, 2, 0.7); (1, 1, 1.0); (2, 2, 1.0) ]
    ~labels:[ ("goal", [ 1 ]); ("fail", [ 2 ]) ]
    ()

(* delta: +v on 0->1, -v on 0->2 *)
let branch_spec ?(hi = 0.5) () =
  {
    MR.variables = [ ("v", 0.0, hi) ];
    deltas =
      [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
  }

let test_model_repair_feasible () =
  let d = branch () in
  (* Need P(F goal) >= 0.5: v must rise from 0.3 to 0.5, so v* = 0.2. *)
  match MR.repair ~base:(Pdtmc.of_dtmc d) d (parse "P>=0.5 [ F goal ]")
    (branch_spec ()) with
  | MR.Repaired r ->
    Alcotest.(check (float 1e-3)) "v*" 0.2 (List.assoc "v" r.MR.assignment);
    Alcotest.(check (float 1e-3)) "achieved" 0.5 r.MR.achieved_value;
    Alcotest.(check (float 1e-3)) "cost = v*^2" 0.04 r.MR.cost;
    Alcotest.(check bool) "verified" true r.MR.verified;
    Alcotest.(check (float 1e-3)) "model edge updated" 0.5 (Dtmc.prob r.MR.dtmc 0 1)
  | MR.Already_satisfied _ -> Alcotest.fail "not already satisfied"
  | MR.Infeasible _ -> Alcotest.fail "should be feasible"

let test_model_repair_already () =
  let d = branch () in
  match MR.repair ~base:(Pdtmc.of_dtmc d) d (parse "P>=0.25 [ F goal ]")
    (branch_spec ()) with
  | MR.Already_satisfied (Some v) -> Alcotest.(check (float 1e-9)) "value" 0.3 v
  | _ -> Alcotest.fail "expected Already_satisfied"

let test_model_repair_infeasible () =
  let d = branch () in
  (* v <= 0.1 cannot lift 0.3 to 0.6. *)
  match MR.repair ~base:(Pdtmc.of_dtmc d) d (parse "P>=0.6 [ F goal ]")
    (branch_spec ~hi:0.1 ()) with
  | MR.Infeasible { min_violation } ->
    Alcotest.(check bool) "violation ~ 0.2" true
      (min_violation > 0.1 && min_violation < 0.3)
  | _ -> Alcotest.fail "expected Infeasible"

let test_model_repair_validation () =
  let d = branch () in
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "unknown edge" (fun () ->
      MR.repair ~base:(Pdtmc.of_dtmc d) d (parse "P>=0.5 [ F goal ]")
        {
          MR.variables = [ ("v", 0.0, 1.0) ];
          deltas = [ (1, 2, Ratfun.var "v") ];
        });
  expect_invalid "undeclared variable" (fun () ->
      MR.repair ~base:(Pdtmc.of_dtmc d) d (parse "P>=0.5 [ F goal ]")
        {
          MR.variables = [ ("v", 0.0, 1.0) ];
          deltas = [ (0, 1, Ratfun.var "w"); (0, 2, Ratfun.neg (Ratfun.var "w")) ];
        });
  expect_invalid "unbalanced row" (fun () ->
      MR.repair ~base:(Pdtmc.of_dtmc d) d (parse "P>=0.5 [ F goal ]")
        {
          MR.variables = [ ("v", 0.0, 1.0) ];
          deltas = [ (0, 1, Ratfun.var "v") ];
        });
  expect_invalid "duplicate variables" (fun () ->
      MR.repair ~base:(Pdtmc.of_dtmc d) d (parse "P>=0.5 [ F goal ]")
        {
          MR.variables = [ ("v", 0.0, 1.0); ("v", 0.0, 1.0) ];
          deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
        })

let test_model_repair_unsupported_property () =
  let d = branch () in
  match
    MR.repair ~base:(Pdtmc.of_dtmc d) d
      (parse "P>=0.5 [ F (P>=1 [ G goal ]) ]")
      (branch_spec ())
  with
  | exception Pquery.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let test_model_repair_reward_property () =
  (* geometric chain: E[steps to goal] = 1/p, p = 0.2 -> 5 attempts.
     Repair to R <= 3: p must become >= 1/3. *)
  let d =
    Dtmc.make ~n:2 ~init:0
      ~transitions:[ (0, 0, 0.8); (0, 1, 0.2); (1, 1, 1.0) ]
      ~labels:[ ("goal", [ 1 ]) ]
      ~rewards:[| 1.0; 0.0 |]
      ()
  in
  let spec =
    {
      MR.variables = [ ("v", 0.0, 0.5) ];
      deltas =
        [ (0, 1, Ratfun.var "v"); (0, 0, Ratfun.neg (Ratfun.var "v")) ];
    }
  in
  match MR.repair ~base:(Pdtmc.of_dtmc d) d (parse "R<=3 [ F goal ]") spec with
  | MR.Repaired r ->
    Alcotest.(check (float 1e-3)) "v* = 1/3 - 0.2" (1.0 /. 3.0 -. 0.2)
      (List.assoc "v" r.MR.assignment);
    Alcotest.(check bool) "verified" true r.MR.verified
  | _ -> Alcotest.fail "expected Repaired"

(* ---------------- Data repair ---------------- *)

let biased_traces ~good ~bad =
  Tally.of_traces
    (List.init good (fun _ -> Trace.of_states [ 0; 1 ])
     @ List.init bad (fun _ -> Trace.of_states [ 0; 2 ]))

let test_data_repair_feasible () =
  (* 30% of traces reach goal; require P(F goal) >= 0.5 by dropping some of
     the bad group. Need (1-x)*70 <= 30 -> x >= 4/7. *)
  let groups =
    [ ("good", biased_traces ~good:30 ~bad:0);
      ("bad", biased_traces ~good:0 ~bad:70);
    ]
  in
  let sp = DR.spec ~pinned:[ "good" ] groups in
  match
    DR.repair ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      (parse "P>=0.5 [ F goal ]")
      sp
  with
  | DR.Repaired r ->
    Alcotest.(check (float 5e-3)) "drop(bad)" (4.0 /. 7.0)
      (List.assoc "bad" r.DR.drop_fractions);
    Alcotest.(check (float 1e-9)) "drop(good) pinned" 0.0
      (List.assoc "good" r.DR.drop_fractions);
    Alcotest.(check bool) "verified" true r.DR.verified;
    Alcotest.(check bool) "dropped ~ 40 traces" true
      (r.DR.dropped_traces > 38.0 && r.DR.dropped_traces < 43.0)
  | DR.Already_satisfied _ -> Alcotest.fail "not already satisfied"
  | DR.Infeasible _ -> Alcotest.fail "should be feasible"

let test_data_repair_already () =
  let groups = [ ("all", biased_traces ~good:80 ~bad:20) ] in
  match
    DR.repair ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      (parse "P>=0.5 [ F goal ]")
      (DR.spec groups)
  with
  | DR.Already_satisfied (Some v) -> Alcotest.(check (float 1e-9)) "value" 0.8 v
  | _ -> Alcotest.fail "expected Already_satisfied"

let test_data_repair_infeasible () =
  (* Everything pinned: nothing can be dropped. *)
  let groups =
    [ ("good", biased_traces ~good:30 ~bad:0);
      ("bad", biased_traces ~good:0 ~bad:70);
    ]
  in
  let sp = DR.spec ~pinned:[ "good"; "bad" ] groups in
  match
    DR.repair ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      (parse "P>=0.5 [ F goal ]")
      sp
  with
  | DR.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_data_repair_spec_validation () =
  (match DR.spec ~max_drop:1.5 [ ("g", Tally.empty) ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "bad max_drop accepted");
  match DR.spec ~pinned:[ "nope" ] [ ("g", Tally.empty) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown pinned group accepted"

(* ---------------- Reward repair ---------------- *)

(* Two-path MDP with features: risky path passes a bad state. *)
let rr_mdp () =
  Mdp.make ~n:5 ~init:0
    ~actions:
      [ (0, "risky", [ (1, 1.0) ]);
        (0, "safe", [ (2, 1.0) ]);
        (1, "go", [ (3, 1.0) ]);
        (2, "go", [ (3, 1.0) ]);
        (3, "go", [ (4, 1.0) ]);
        (4, "stay", [ (4, 1.0) ]);
      ]
    ~labels:[ ("bad", [ 1 ]); ("goal", [ 4 ]) ]
    ~features:
      [| [| 0.0; 1.0; 0.0 |] (* s0 *);
         [| 1.0; 0.0; 0.0 |] (* s1: bad *);
         [| 0.0; 0.5; 0.0 |] (* s2: slightly less comfortable *);
         [| 0.0; 1.0; 0.0 |];
         [| 0.0; 0.0; 1.0 |] (* goal *);
      |]
    ()

let test_reward_repair_q () =
  let m = rr_mdp () in
  (* theta makes the bad state attractive: feature0 weight positive *)
  let theta = [| 0.5; 0.1; 1.0 |] in
  let q0 = Value.q_values ~gamma:0.9 (Irl.apply_reward m theta) in
  Alcotest.(check bool) "initially risky preferred" true
    (List.assoc "risky" q0.(0) > List.assoc "safe" q0.(0));
  let c = { RR.state = 0; better = "safe"; worse = "risky"; margin = 1e-4 } in
  match RR.repair_q ~gamma:0.9 m ~theta ~constraints:[ c ] with
  | RR.Repaired r ->
    Alcotest.(check bool) "verified" true r.RR.verified;
    Alcotest.(check string) "policy flips to safe" "safe" r.RR.policy.(0);
    Alcotest.(check bool) "cost positive" true (r.RR.cost > 0.0);
    let gap = List.assoc c r.RR.q_gaps in
    Alcotest.(check bool) "gap >= margin" true (gap >= c.RR.margin -. 1e-9)
  | RR.Already_satisfied -> Alcotest.fail "constraint was violated initially"
  | RR.Infeasible _ -> Alcotest.fail "should be feasible"

let test_reward_repair_already () =
  let m = rr_mdp () in
  let theta = [| -1.0; 0.5; 1.0 |] in
  let c = { RR.state = 0; better = "safe"; worse = "risky"; margin = 1e-4 } in
  match RR.repair_q ~gamma:0.9 m ~theta ~constraints:[ c ] with
  | RR.Already_satisfied -> ()
  | _ -> Alcotest.fail "expected Already_satisfied"

let test_reward_repair_validation () =
  let m = rr_mdp () in
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "bad state" (fun () ->
      RR.repair_q m ~theta:[| 0.0; 0.0; 0.0 |]
        ~constraints:[ { RR.state = 99; better = "a"; worse = "b"; margin = 0.0 } ]);
  expect_invalid "bad action" (fun () ->
      RR.repair_q m ~theta:[| 0.0; 0.0; 0.0 |]
        ~constraints:[ { RR.state = 0; better = "jump"; worse = "risky"; margin = 0.0 } ]);
  expect_invalid "theta dim" (fun () ->
      RR.repair_q m ~theta:[| 0.0 |]
        ~constraints:[ { RR.state = 0; better = "safe"; worse = "risky"; margin = 0.0 } ]);
  expect_invalid "no constraints" (fun () ->
      RR.repair_q m ~theta:[| 0.0; 0.0; 0.0 |] ~constraints:[])

(* The NLP formulation Reward Repair used before its QP search, kept as
   a reference: Nelder-Mead multistart over Δθ in the ±2 box, every
   constraint evaluated by a full [Value.solve] and asked for
   margin + 1e-6.  [Ok cost] of the feasible point it found, or
   [Error v]: the least worst-constraint violation it saw. *)
let nlp_reward_repair ~gamma ~starts m ~theta ~constraints =
  let kern = Value.compile m in
  let gap th (c : RR.q_constraint) =
    let rewards = Irl.reward_vector m th in
    let v = Value.solve ~gamma kern ~rewards in
    let q a = Value.q_slot ~gamma kern ~rewards v c.state (Value.slot kern c.state a) in
    q c.better -. q c.worse
  in
  let k = Array.length theta in
  let plus dx = Array.mapi (fun i v -> v +. dx.(i)) theta in
  let problem =
    Nlp.problem ~dim:k
      ~objective:(fun dx -> Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 dx)
      ~inequalities:
        (List.mapi
           (fun i (c : RR.q_constraint) ->
              ( Printf.sprintf "q_constraint_%d" i,
                fun dx -> c.margin +. 1e-6 -. gap (plus dx) c ))
           constraints)
      ~lower:(Array.make k (-2.0)) ~upper:(Array.make k 2.0) ()
  in
  match Nlp.solve ~starts ~seed:0 problem with
  | Nlp.Feasible s -> Ok s.Nlp.objective_value
  | Nlp.Infeasible s -> Error s.Nlp.max_violation

let rr_constraint = { RR.state = 0; better = "safe"; worse = "risky"; margin = 1e-4 }

(* On the car and on [rr_mdp] from random θ₀ and γ, the QP's cost never
   exceeds what the NLP reaches (the NLP may stop up to ~1e-9 short of
   its own interior margin, hence the relative slack), and a repair
   always verifies. *)
let prop_qp_vs_nlp =
  let gen =
    QCheck2.Gen.(
      triple bool
        (array_size (return 3) (float_range (-1.0) 1.0))
        (float_range 0.85 0.95))
  in
  let print (car, theta, gamma) =
    Printf.sprintf "%s theta=[%s] gamma=%h"
      (if car then "car" else "rr_mdp")
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") theta)))
      gamma
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2018 |])
    (QCheck2.Test.make ~name:"QP cost <= NLP cost, repaired => verified"
       ~count:24 ~print gen (fun (car, theta, gamma) ->
           let m, c =
             if car then (Car.mdp (), Car.unsafe_q_constraint)
             else (rr_mdp (), rr_constraint)
           in
           match RR.repair_q ~gamma m ~theta ~constraints:[ c ] with
           | RR.Already_satisfied -> true
           | qp -> (
               (match qp with RR.Repaired r -> r.RR.verified | _ -> true)
               &&
               match
                 (nlp_reward_repair ~gamma ~starts:8 m ~theta ~constraints:[ c ], qp)
               with
               | Error _, _ -> true
               | Ok nlp_cost, RR.Repaired r ->
                 r.RR.cost <= nlp_cost *. (1.0 +. 1e-7)
               | Ok _, _ -> false)))

let test_reward_repair_unreachable () =
  let m = Car.mdp () in
  let c = { Car.unsafe_q_constraint with RR.margin = 100.0 } in
  match RR.repair_q ~gamma:0.9 m ~theta:Car.paper_learned_theta ~constraints:[ c ] with
  | RR.Infeasible { min_violation } ->
    Alcotest.(check bool) "positive least violation" true (min_violation > 0.0);
    (match
       nlp_reward_repair ~gamma:0.9 ~starts:8 m ~theta:Car.paper_learned_theta
         ~constraints:[ c ]
     with
     | Error v ->
       Alcotest.(check bool) "no worse than the NLP's least violation" true
         (min_violation <= v *. (1.0 +. 1e-7))
     | Ok _ -> Alcotest.fail "the NLP met a margin of 100?")
  | _ -> Alcotest.fail "a margin of 100 is out of reach"

(* Two constraints at once: S1 must prefer left over fwd, and S6 fwd over
   right (back into the van's lane).  One repair meets both. *)
let test_reward_repair_two_constraints () =
  let m = Car.mdp () in
  let c1 = Car.unsafe_q_constraint in
  let c2 = { RR.state = 6; better = "fwd"; worse = "right"; margin = 1e-4 } in
  match
    RR.repair_q ~gamma:0.9 m ~theta:Car.paper_learned_theta ~constraints:[ c1; c2 ]
  with
  | RR.Repaired r ->
    Alcotest.(check bool) "verified" true r.RR.verified;
    List.iter
      (fun (c, g) ->
         Alcotest.(check bool) "gap >= margin" true (g >= c.RR.margin))
      r.RR.q_gaps;
    Alcotest.(check string) "S1 goes left" "left" r.RR.policy.(1);
    (match
       nlp_reward_repair ~gamma:0.9 ~starts:8 m ~theta:Car.paper_learned_theta
         ~constraints:[ c1; c2 ]
     with
     | Ok nlp_cost ->
       Alcotest.(check bool) "cost <= NLP cost" true
         (r.RR.cost <= nlp_cost *. (1.0 +. 1e-7))
     | Error _ -> ())
  | RR.Already_satisfied -> Alcotest.fail "S1 prefers fwd under the paper's theta"
  | RR.Infeasible _ -> Alcotest.fail "should be feasible"

let test_projection_weights () =
  let m = rr_mdp () in
  let theta = [| 0.5; 0.1; 1.0 |] in
  let risky = Trace.make [ (0, "risky"); (1, "go"); (3, "go") ] 4 in
  let safe = Trace.make [ (0, "safe"); (2, "go"); (3, "go") ] 4 in
  let rule = Trace_logic.never (Trace_logic.Atom (Trace_logic.Label "bad")) in
  (* without rules: risky has higher MaxEnt weight (feature0 rewarded) *)
  let w0 = RR.projection_weights m ~theta ~rules:[] [ risky; safe ] in
  Alcotest.(check bool) "risky heavier without rule" true
    (List.assq risky w0 > List.assq safe w0);
  (* with a strong rule, risky mass vanishes: Prop. 4's limit *)
  let w = RR.projection_weights m ~theta ~rules:[ (rule, 50.0) ] [ risky; safe ] in
  Alcotest.(check bool) "risky mass ~ 0" true (List.assq risky w < 1e-6);
  Alcotest.(check (float 1e-6)) "mass normalised" 1.0
    (List.fold_left (fun acc (_, w) -> acc +. w) 0.0 w);
  (* lambda = 0 leaves the distribution untouched *)
  let wfree = RR.projection_weights m ~theta ~rules:[ (rule, 0.0) ] [ risky; safe ] in
  Alcotest.(check (float 1e-9)) "lambda 0 no-op"
    (List.assq risky w0) (List.assq risky wfree);
  (* satisfying trajectories keep their relative mass *)
  Alcotest.(check bool) "errors" true
    (match RR.projection_weights m ~theta ~rules:[ (rule, -1.0) ] [ risky ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_projection_repair_flips_reward () =
  let m = rr_mdp () in
  let theta = [| 0.8; 0.1; 1.0 |] in
  let rng = Prng.create 3 in
  let trajs = RR.sample_trajectories rng m ~theta ~horizon:4 ~count:300 in
  let rule = Trace_logic.never (Trace_logic.Atom (Trace_logic.Label "bad")) in
  let theta' = RR.repair_by_projection m ~theta ~rules:[ (rule, 20.0) ] trajs in
  (* the repaired reward must no longer favour the bad-state feature *)
  Alcotest.(check bool) "bad-state weight reduced" true (theta'.(0) < theta.(0));
  let q = Value.q_values ~gamma:0.9 (Irl.apply_reward m theta') in
  Alcotest.(check bool) "safe preferred after projection repair" true
    (List.assoc "safe" q.(0) >= List.assoc "risky" q.(0))

let test_policy_satisfies () =
  let m = rr_mdp () in
  let rule = Trace_logic.never (Trace_logic.Atom (Trace_logic.Label "bad")) in
  Alcotest.(check bool) "safe policy ok" true
    (RR.policy_satisfies m [| "safe"; "go"; "go"; "go"; "stay" |] ~rules:[ rule ]
       ~horizon:10);
  Alcotest.(check bool) "risky policy violates" false
    (RR.policy_satisfies m [| "risky"; "go"; "go"; "go"; "stay" |] ~rules:[ rule ]
       ~horizon:10)

(* ---------------- Pipeline ---------------- *)

let test_pipeline_original_ok () =
  let groups = [ ("all", biased_traces ~good:80 ~bad:20) ] in
  let report =
    Pipeline.run ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      ~groups
      (parse "P>=0.5 [ F goal ]")
  in
  (match report.Pipeline.outcome with
   | Pipeline.Original_ok (Some v) -> Alcotest.(check (float 1e-9)) "v" 0.8 v
   | _ -> Alcotest.fail "expected Original_ok");
  (* report is printable *)
  Alcotest.(check bool) "printable" true
    (String.length (Format.asprintf "%a" Pipeline.pp_report report) > 0)

let test_pipeline_model_repair_stage () =
  let groups =
    [ ("good", biased_traces ~good:30 ~bad:0);
      ("bad", biased_traces ~good:0 ~bad:70);
    ]
  in
  let model_spec =
    {
      MR.variables = [ ("v", 0.0, 0.5) ];
      deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
    }
  in
  let report =
    Pipeline.run ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      ~model_spec ~groups
      (parse "P>=0.5 [ F goal ]")
  in
  match report.Pipeline.outcome with
  | Pipeline.Model_repaired r ->
    Alcotest.(check bool) "verified" true r.MR.verified
  | _ -> Alcotest.fail "expected Model_repaired"

let test_pipeline_data_repair_stage () =
  (* model repair too constrained -> falls through to data repair *)
  let groups =
    [ ("good", biased_traces ~good:30 ~bad:0);
      ("bad", biased_traces ~good:0 ~bad:70);
    ]
  in
  let model_spec =
    {
      MR.variables = [ ("v", 0.0, 0.01) ];
      deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
    }
  in
  let data_spec = DR.spec ~pinned:[ "good" ] groups in
  let report =
    Pipeline.run ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      ~model_spec ~data_spec ~groups
      (parse "P>=0.5 [ F goal ]")
  in
  match report.Pipeline.outcome with
  | Pipeline.Data_repaired r -> Alcotest.(check bool) "verified" true r.DR.verified
  | _ -> Alcotest.fail "expected Data_repaired"

let test_pipeline_unrepairable () =
  let groups =
    [ ("good", biased_traces ~good:30 ~bad:0);
      ("bad", biased_traces ~good:0 ~bad:70);
    ]
  in
  let model_spec =
    {
      MR.variables = [ ("v", 0.0, 0.01) ];
      deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
    }
  in
  let data_spec = DR.spec ~pinned:[ "good"; "bad" ] groups in
  let report =
    Pipeline.run ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      ~model_spec ~data_spec ~groups
      (parse "P>=0.5 [ F goal ]")
  in
  match report.Pipeline.outcome with
  | Pipeline.Unrepairable { model_repair_violation; data_repair_violation } ->
    Alcotest.(check bool) "model violation recorded" true
      (model_repair_violation <> None);
    Alcotest.(check bool) "data violation recorded" true
      (data_repair_violation <> None)
  | _ -> Alcotest.fail "expected Unrepairable"

let () =
  Alcotest.run "core"
    [ ( "model repair",
        [ Alcotest.test_case "feasible" `Quick test_model_repair_feasible;
          Alcotest.test_case "already satisfied" `Quick test_model_repair_already;
          Alcotest.test_case "infeasible" `Quick test_model_repair_infeasible;
          Alcotest.test_case "validation" `Quick test_model_repair_validation;
          Alcotest.test_case "unsupported property" `Quick
            test_model_repair_unsupported_property;
          Alcotest.test_case "reward property" `Quick test_model_repair_reward_property;
        ] );
      ( "data repair",
        [ Alcotest.test_case "feasible" `Quick test_data_repair_feasible;
          Alcotest.test_case "already satisfied" `Quick test_data_repair_already;
          Alcotest.test_case "infeasible" `Quick test_data_repair_infeasible;
          Alcotest.test_case "spec validation" `Quick test_data_repair_spec_validation;
        ] );
      ( "reward repair",
        [ Alcotest.test_case "q-constraint repair" `Quick test_reward_repair_q;
          Alcotest.test_case "already satisfied" `Quick test_reward_repair_already;
          Alcotest.test_case "validation" `Quick test_reward_repair_validation;
          prop_qp_vs_nlp;
          Alcotest.test_case "unreachable margin" `Quick test_reward_repair_unreachable;
          Alcotest.test_case "two constraints" `Quick test_reward_repair_two_constraints;
          Alcotest.test_case "projection weights (Prop. 4)" `Quick test_projection_weights;
          Alcotest.test_case "projection repair" `Quick test_projection_repair_flips_reward;
          Alcotest.test_case "policy_satisfies" `Quick test_policy_satisfies;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "original ok" `Quick test_pipeline_original_ok;
          Alcotest.test_case "model repair stage" `Quick test_pipeline_model_repair_stage;
          Alcotest.test_case "data repair stage" `Quick test_pipeline_data_repair_stage;
          Alcotest.test_case "unrepairable" `Quick test_pipeline_unrepairable;
        ] );
    ]
