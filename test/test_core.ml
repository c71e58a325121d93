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
