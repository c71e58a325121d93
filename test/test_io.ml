(* Tests for Dtmc_io, Spec_io, Mdp_io and Trace_io. *)

let sample =
  "# a comment\n\
   dtmc\n\
   states 3\n\
   init 0\n\
   0 -> 1 : 0.3\n\
   0 -> 2 : 0.7   # trailing comment\n\
   1 -> 1 : 1.0\n\
   2 -> 2 : 1.0\n\
   label goal = 1\n\
   label ends = 1 2\n\
   reward 0 = 1.5\n"

let test_parse () =
  let d = Dtmc_io.parse sample in
  Alcotest.(check int) "states" 3 (Dtmc.num_states d);
  Alcotest.(check int) "init" 0 (Dtmc.init_state d);
  Alcotest.(check (float 1e-12)) "prob" 0.3 (Dtmc.prob d 0 1);
  Alcotest.(check bool) "label" true (Dtmc.has_label d 1 "goal");
  Alcotest.(check (list int)) "multi-state label" [ 1; 2 ]
    (Dtmc.states_with_label d "ends");
  Alcotest.(check (float 1e-12)) "reward" 1.5 (Dtmc.reward d 0);
  Alcotest.(check (float 1e-12)) "default reward" 0.0 (Dtmc.reward d 1)

let test_parse_errors () =
  let fails msg text =
    match Dtmc_io.parse text with
    | exception Dtmc_io.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Parse_error" msg
  in
  fails "missing states" "dtmc\ninit 0\n0 -> 0 : 1.0\n";
  fails "missing init" "dtmc\nstates 1\n0 -> 0 : 1.0\n";
  fails "bad transition" "states 1\ninit 0\n0 => 0 : 1.0\n";
  fails "bad number" "states 1\ninit 0\n0 -> 0 : abc\n";
  fails "bad directive" "states 1\ninit 0\nfrobnicate\n0 -> 0 : 1.0\n";
  fails "row sum" "states 2\ninit 0\n0 -> 1 : 0.5\n1 -> 1 : 1.0\n";
  fails "reward out of range" "states 1\ninit 0\n0 -> 0 : 1.0\nreward 7 = 1\n"

(* Hardened validation: every structural error is rejected with the line
   it occurred on. *)
let test_dtmc_line_numbered_errors () =
  let fails_at msg lineno text =
    match Dtmc_io.parse text with
    | exception Dtmc_io.Parse_error err ->
      let prefix = Printf.sprintf "line %d:" lineno in
      if not (String.length err >= String.length prefix
              && String.sub err 0 (String.length prefix) = prefix)
      then Alcotest.failf "%s: expected %S prefix, got %S" msg prefix err
    | _ -> Alcotest.failf "%s: expected Parse_error" msg
  in
  fails_at "source out of range" 4
    "dtmc\nstates 2\ninit 0\n7 -> 0 : 1.0\n0 -> 0 : 1.0\n";
  fails_at "target out of range" 4
    "dtmc\nstates 2\ninit 0\n0 -> 9 : 1.0\n1 -> 1 : 1.0\n";
  fails_at "negative probability" 3 "states 2\ninit 0\n0 -> 1 : -0.25\n";
  fails_at "probability above one" 3 "states 2\ninit 0\n0 -> 1 : 1.5\n";
  fails_at "duplicate transition" 5
    "states 2\ninit 0\n0 -> 0 : 0.5\n0 -> 1 : 0.25\n0 -> 0 : 0.25\n";
  (* row-sum errors cite the first transition of the offending row *)
  fails_at "non-stochastic row" 3
    "states 2\ninit 0\n0 -> 0 : 0.5\n0 -> 1 : 0.4\n1 -> 1 : 1.0\n";
  fails_at "init out of range" 2 "states 2\ninit 5\n0 -> 0 : 1.0\n1 -> 1 : 1.0\n";
  fails_at "label state out of range" 4
    "states 2\ninit 0\n0 -> 0 : 1.0\nlabel goal = 9\n1 -> 1 : 1.0\n";
  fails_at "reward state out of range" 4
    "states 2\ninit 0\n0 -> 0 : 1.0\nreward 9 = 1\n1 -> 1 : 1.0\n"

let test_roundtrip () =
  let d = Dtmc_io.parse sample in
  let d2 = Dtmc_io.parse (Dtmc_io.to_string d) in
  Alcotest.(check int) "states" (Dtmc.num_states d) (Dtmc.num_states d2);
  for s = 0 to 2 do
    for t = 0 to 2 do
      Alcotest.(check (float 1e-15))
        (Printf.sprintf "prob %d->%d" s t)
        (Dtmc.prob d s t) (Dtmc.prob d2 s t)
    done;
    Alcotest.(check (float 1e-15)) "reward" (Dtmc.reward d s) (Dtmc.reward d2 s)
  done;
  Alcotest.(check (list string)) "labels" (Dtmc.labels d) (Dtmc.labels d2)

let test_of_file () =
  let path = Filename.temp_file "tml_test" ".dtmc" in
  let oc = open_out path in
  output_string oc sample;
  close_out oc;
  let d = Dtmc_io.of_file path in
  Sys.remove path;
  Alcotest.(check int) "states" 3 (Dtmc.num_states d)

(* ---------------- Spec_io ---------------- *)

let test_parse_variable () =
  let name, lo, hi = Spec_io.parse_variable "v:0:0.5" in
  Alcotest.(check string) "name" "v" name;
  Alcotest.(check (float 0.0)) "lo" 0.0 lo;
  Alcotest.(check (float 0.0)) "hi" 0.5 hi;
  let _, lo, _ = Spec_io.parse_variable "w:-0.1:0.1" in
  Alcotest.(check (float 0.0)) "negative lo" (-0.1) lo;
  List.iter
    (fun s ->
       match Spec_io.parse_variable s with
       | exception Spec_io.Parse_error _ -> ()
       | _ -> Alcotest.failf "%S should not parse" s)
    [ "v"; "v:0"; "v:a:b"; ":0:1" ]

let rf_equal msg expected actual =
  if not (Ratfun.equal expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Ratfun.to_string expected)
      (Ratfun.to_string actual)

let test_parse_delta () =
  let v = Ratfun.var "v" and w = Ratfun.var "w" in
  let s, d, f = Spec_io.parse_delta "0,1,+v" in
  Alcotest.(check int) "src" 0 s;
  Alcotest.(check int) "dst" 1 d;
  rf_equal "+v" v f;
  let _, _, f = Spec_io.parse_delta "0,2,-v" in
  rf_equal "-v" (Ratfun.neg v) f;
  let _, _, f = Spec_io.parse_delta "3,4,0.5*v" in
  rf_equal "0.5v" (Ratfun.mul (Ratfun.const (Ratio.of_ints 1 2)) v) f;
  let _, _, f = Spec_io.parse_delta "1,1,-v-0.5*w" in
  rf_equal "-v-0.5w"
    (Ratfun.sub (Ratfun.neg v) (Ratfun.mul (Ratfun.const (Ratio.of_ints 1 2)) w))
    f;
  let _, _, f = Spec_io.parse_delta "1,1, v + w " in
  rf_equal "v+w with spaces" (Ratfun.add v w) f;
  List.iter
    (fun s ->
       match Spec_io.parse_delta s with
       | exception Spec_io.Parse_error _ -> ()
       | _ -> Alcotest.failf "%S should not parse" s)
    [ "0,1"; "a,1,v"; "0,1,"; "0,1,v+"; "0,1,2*"; "0,1,*v" ]

(* ---------------- Mdp_io ---------------- *)

let mdp_sample =
  "mdp\n\
   states 3\n\
   init 0\n\
   0 go -> 1 : 0.8\n\
   0 go -> 2 : 0.2\n\
   0 wait -> 0 : 1.0\n\
   1 stay -> 1 : 1.0\n\
   2 stay -> 2 : 1.0\n\
   label goal = 1\n\
   reward 1 = 5.0\n\
   action-reward 0 go = -1.0\n\
   feature 0 = 1.0 0.5\n\
   feature 1 = 0.0 1.0\n\
   feature 2 = 0.0 0.0\n"

let test_mdp_parse () =
  let m = Mdp_io.parse mdp_sample in
  Alcotest.(check int) "states" 3 (Mdp.num_states m);
  Alcotest.(check (list string)) "actions" [ "go"; "wait" ] (Mdp.action_names m 0);
  (match Mdp.find_action m 0 "go" with
   | Some a ->
     Alcotest.(check (float 1e-12)) "accumulated dist" 0.8 (List.assoc 1 a.Mdp.dist);
     Alcotest.(check (float 1e-12)) "action reward" (-1.0) a.Mdp.reward
   | None -> Alcotest.fail "action lost");
  Alcotest.(check (float 1e-12)) "state reward" 5.0 (Mdp.state_reward m 1);
  Alcotest.(check int) "feature dim" 2 (Mdp.feature_dim m);
  Alcotest.(check (array (float 0.0))) "features" [| 1.0; 0.5 |] (Mdp.features_of m 0)

let test_mdp_line_numbered_errors () =
  let fails_at msg lineno text =
    match Mdp_io.parse text with
    | exception Mdp_io.Parse_error err ->
      let prefix = Printf.sprintf "line %d:" lineno in
      if not (String.length err >= String.length prefix
              && String.sub err 0 (String.length prefix) = prefix)
      then Alcotest.failf "%s: expected %S prefix, got %S" msg prefix err
    | _ -> Alcotest.failf "%s: expected Parse_error" msg
  in
  fails_at "source out of range" 3 "states 2\ninit 0\n7 a -> 0 : 1.0\n";
  fails_at "target out of range" 3
    "states 2\ninit 0\n0 a -> 9 : 1.0\n1 a -> 1 : 1.0\n";
  fails_at "negative probability" 3 "states 2\ninit 0\n0 a -> 1 : -0.5\n";
  fails_at "duplicate target" 4
    "states 2\ninit 0\n0 a -> 0 : 0.5\n0 a -> 0 : 0.5\n1 a -> 1 : 1.0\n";
  (* distribution-sum errors cite the distribution's first line *)
  fails_at "non-stochastic distribution" 3
    "states 2\ninit 0\n0 a -> 0 : 0.5\n0 a -> 1 : 0.2\n1 a -> 1 : 1.0\n";
  fails_at "init out of range" 2 "states 2\ninit 9\n0 a -> 0 : 1.0\n1 a -> 1 : 1.0\n";
  fails_at "label state out of range" 4
    "states 1\ninit 0\n0 a -> 0 : 1.0\nlabel goal = 4\n";
  fails_at "action-reward state out of range" 4
    "states 1\ninit 0\n0 a -> 0 : 1.0\naction-reward 9 a = 1\n";
  fails_at "feature state out of range" 4
    "states 1\ninit 0\n0 a -> 0 : 1.0\nfeature 9 = 1 2\n"

let test_mdp_errors () =
  let fails msg text =
    match Mdp_io.parse text with
    | exception Mdp_io.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Parse_error" msg
  in
  fails "missing states" "mdp\ninit 0\n0 a -> 0 : 1.0\n";
  fails "bad transition" "states 1\ninit 0\n0 a => 0 : 1.0\n";
  fails "duplicate target" "states 1\ninit 0\n0 a -> 0 : 0.5\n0 a -> 0 : 0.5\n";
  fails "dist sum" "states 2\ninit 0\n0 a -> 1 : 0.5\n1 b -> 1 : 1.0\n";
  fails "ragged features"
    "states 1\ninit 0\n0 a -> 0 : 1.0\nfeature 0 = 1 2\nfeature 0 = 1\n";
  fails "missing features for a state"
    "states 2\ninit 0\n0 a -> 0 : 1.0\n1 a -> 1 : 1.0\nfeature 0 = 1 2\n"

let test_mdp_roundtrip () =
  let m = Mdp_io.parse mdp_sample in
  let m2 = Mdp_io.parse (Mdp_io.to_string m) in
  Alcotest.(check int) "states" (Mdp.num_states m) (Mdp.num_states m2);
  Alcotest.(check (list string)) "actions" (Mdp.action_names m 0) (Mdp.action_names m2 0);
  (match (Mdp.find_action m 0 "go", Mdp.find_action m2 0 "go") with
   | Some a, Some b ->
     Alcotest.(check (float 1e-15)) "dist" (List.assoc 1 a.Mdp.dist)
       (List.assoc 1 b.Mdp.dist);
     Alcotest.(check (float 1e-15)) "reward" a.Mdp.reward b.Mdp.reward
   | _ -> Alcotest.fail "action lost");
  Alcotest.(check (array (float 0.0))) "features" (Mdp.features_of m 0)
    (Mdp.features_of m2 0);
  (* the paper's car MDP survives a roundtrip *)
  let car = Car.mdp () in
  let car2 = Mdp_io.parse (Mdp_io.to_string car) in
  Alcotest.(check int) "car states" 11 (Mdp.num_states car2);
  Alcotest.(check (list int)) "car labels" [ 2; 10 ]
    (Mdp.states_with_label car2 "unsafe")

(* ---------------- Trace_io ---------------- *)

let traces_sample =
  "# dataset\n\
   0 1 2\n\
   group clean\n\
   0,go 1,stop 2\n\
   0 2\n\
   group field\n\
   0 2\n"

let test_traces_parse () =
  let groups = Trace_io.parse traces_sample in
  Alcotest.(check (list string)) "group order" [ ""; "clean"; "field" ]
    (List.map fst groups);
  let clean = List.assoc "clean" groups in
  Alcotest.(check int) "clean size" 2 (List.length clean);
  (match clean with
   | tr :: _ ->
     Alcotest.(check (list int)) "states" [ 0; 1; 2 ] (Trace.states tr);
     Alcotest.(check (option string)) "action" (Some "go") (Trace.nth_action tr 0)
   | [] -> Alcotest.fail "empty group");
  let fails msg text =
    match Trace_io.parse text with
    | exception Trace_io.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Parse_error" msg
  in
  fails "final action" "0,go 1,stop\n";
  fails "bad token" "0 x 2\n";
  fails "group arity" "group a b\n"

let test_traces_roundtrip () =
  let groups = Trace_io.parse traces_sample in
  let groups2 = Trace_io.parse (Trace_io.to_string groups) in
  Alcotest.(check int) "same group count" (List.length groups) (List.length groups2);
  List.iter2
    (fun (n1, t1) (n2, t2) ->
       Alcotest.(check string) "name" n1 n2;
       List.iter2
         (fun a b ->
            Alcotest.(check (list int)) "states" (Trace.states a) (Trace.states b))
         t1 t2)
    groups groups2

(* The sample as tallies: trace lines and an equivalent tally line fold
   to the same canonical tally, whatever their order. *)
let test_tallies () =
  let groups = Trace_io.parse_tallies ~n:3 traces_sample in
  Alcotest.(check (list string)) "group order" [ ""; "clean"; "field" ]
    (List.map fst groups);
  let clean = List.assoc "clean" groups in
  Alcotest.(check int) "clean traces" 2 clean.Tally.traces;
  Alcotest.(check (list (triple int int int))) "clean transitions"
    [ (0, 1, 1); (0, 2, 1); (1, 2, 1) ] clean.Tally.transitions;
  Alcotest.(check bool) "same as folding the parsed traces" true
    (groups = Tally.of_groups (Trace_io.parse traces_sample));
  let mixed =
    "group clean\ntally 1 1:2:1 0:1:1\n0 2\ngroup field\n0 2\n\
     group\tempty\ngroup clean\n"
  in
  Alcotest.(check bool) "trace and tally lines mix" true
    (Trace_io.parse_tallies ~n:3 mixed
     = List.filter (fun (g, _) -> g <> "") groups
       @ [ ("empty", Tally.empty) ]);
  Alcotest.(check bool) "round trip" true
    (Trace_io.parse_tallies ~n:3 (Trace_io.tallies_to_string groups) = groups);
  Alcotest.(check string) "canonical text"
    "tally 1 0:1:1 1:2:1\ngroup clean\ntally 2 0:1:1 0:2:1 1:2:1\n\
     group field\ntally 1 0:2:1\n"
    (Trace_io.tallies_to_string groups);
  Alcotest.(check bool) "duplicate cells sum" true
    (Trace_io.parse_tallies ~n:3 "tally 3 0:1:2 0:1:5\n"
     = [ ("", Tally.make ~traces:3 [ (0, 1, 7) ]) ]);
  Alcotest.(check bool) "an unused default group is dropped" true
    (Trace_io.parse_tallies ~n:3 "tally 0\ngroup g\n"
     = [ ("g", Tally.empty) ])

(* Every malformed tally line, and every state outside [0, n), is a
   Parse_error naming its line. *)
let test_tally_errors () =
  let fails what ~line text =
    match Trace_io.parse_tallies ~n:3 text with
    | _ -> Alcotest.failf "%s: expected Parse_error" what
    | exception Trace_io.Parse_error msg ->
      let prefix = Printf.sprintf "line %d: " line in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names line %d" what msg line)
        true
        (String.length msg >= String.length prefix
         && String.sub msg 0 (String.length prefix) = prefix)
  in
  fails "negative trace count" ~line:1 "tally -1\n";
  fails "non-integer trace count" ~line:2 "0 1\ntally 1.5 0:1:1\n";
  fails "hex count" ~line:1 "tally 0x2 0:1:1\n";
  fails "negative transition count" ~line:1 "tally 2 0:1:-3\n";
  fails "zero transition count" ~line:1 "tally 2 0:1:0\n";
  fails "non-integer transition count" ~line:1 "tally 2 0:1:x\n";
  fails "short cell" ~line:1 "tally 2 0:1\n";
  fails "missing trace count" ~line:1 "tally\n";
  fails "transitions with trace count 0" ~line:1 "tally 0 0:1:1\n";
  fails "tally state out of range" ~line:3 "0 1\n\ntally 1 0:3:1\n";
  fails "trace state out of range" ~line:2 "0 1\n0 7\n";
  fails "lone trace state out of range" ~line:1 "5\n";
  fails "count overflows an int" ~line:1 "tally 99999999999999999999999\n";
  fails "sum passes 2^53" ~line:2 "tally 9007199254740992\ntally 1\n";
  fails "cell sum passes 2^53" ~line:2
    "tally 1 0:1:9007199254740992\ntally 1 0:1:1\n";
  fails "a sum names its own group's line" ~line:6
    "group a\ntally 1 0:1:9007199254740992\ngroup b\n0 2\n\
     group a\ntally 1 0:1:1\ngroup b\n0 1\n";
  match Trace_io.parse "0 1\ntally 1 0:1:1\n" with
  | _ -> Alcotest.fail "the trace form accepted a tally line"
  | exception Trace_io.Parse_error msg ->
    Alcotest.(check string) "trace form" "line 2: a tally line has no trace form" msg

let () =
  Alcotest.run "io"
    [ ( "dtmc_io",
        [ Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "line-numbered errors" `Quick
            test_dtmc_line_numbered_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "of_file" `Quick test_of_file;
        ] );
      ( "spec_io",
        [ Alcotest.test_case "variables" `Quick test_parse_variable;
          Alcotest.test_case "deltas" `Quick test_parse_delta;
        ] );
      ( "mdp_io",
        [ Alcotest.test_case "parse" `Quick test_mdp_parse;
          Alcotest.test_case "errors" `Quick test_mdp_errors;
          Alcotest.test_case "line-numbered errors" `Quick
            test_mdp_line_numbered_errors;
          Alcotest.test_case "roundtrip" `Quick test_mdp_roundtrip;
        ] );
      ( "trace_io",
        [ Alcotest.test_case "parse" `Quick test_traces_parse;
          Alcotest.test_case "roundtrip" `Quick test_traces_roundtrip;
          Alcotest.test_case "tallies" `Quick test_tallies;
          Alcotest.test_case "tally errors" `Quick test_tally_errors;
        ] );
    ]
