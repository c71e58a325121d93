(* Differential tests for the compiled Bellman kernel behind [Value].

   [Ref] is the list-walking dynamic programming the kernel replaced, kept
   verbatim as the reference.  On seeded random MDPs every [Value] entry
   point must match it bit for bit: the kernel promises the same
   floating-point operations in the same order, not merely close values.

   On top sit golden Reward Repair results for the §V-B car case study,
   captured from the list-based implementation: the repair's NLP makes
   ~1,400 kernel solves, so any drift in the kernel's arithmetic shows up
   in the repaired cost and Q-gap. *)

(* ------------------------------------------------------------------ *)
(* Reference: the list-based loops                                      *)
(* ------------------------------------------------------------------ *)

module Ref = struct
  let q_of_action ~gamma m v s (a : Mdp.action) =
    let future =
      List.fold_left (fun acc (d, p) -> acc +. (p *. v.(d))) 0.0 a.Mdp.dist
    in
    Mdp.state_reward m s +. a.Mdp.reward +. (gamma *. future)

  let value_iteration ?(max_iter = 100_000) ?(tol = 1e-10) ~gamma m =
    let n = Mdp.num_states m in
    let v = Array.make n 0.0 in
    let rec iterate k =
      if k >= max_iter then ()
      else begin
        let delta = ref 0.0 in
        for s = 0 to n - 1 do
          let best =
            List.fold_left
              (fun acc a -> Float.max acc (q_of_action ~gamma m v s a))
              Float.neg_infinity (Mdp.actions_of m s)
          in
          delta := Float.max !delta (Float.abs (best -. v.(s)));
          v.(s) <- best
        done;
        if !delta >= tol then iterate (k + 1)
      end
    in
    iterate 0;
    v

  let q_from_values ~gamma m v =
    Array.init (Mdp.num_states m) (fun s ->
        List.map
          (fun (a : Mdp.action) -> (a.Mdp.name, q_of_action ~gamma m v s a))
          (Mdp.actions_of m s))

  let q_values ?max_iter ?tol ~gamma m =
    q_from_values ~gamma m (value_iteration ?max_iter ?tol ~gamma m)

  let greedy_policy m q =
    Array.init (Mdp.num_states m) (fun s ->
        match q.(s) with
        | [] -> assert false
        | (first, fq) :: rest ->
          fst
            (List.fold_left
               (fun (bn, bq) (n, v) -> if v > bq then (n, v) else (bn, bq))
               (first, fq) rest))

  let optimal_policy ?max_iter ?tol ~gamma m =
    let v = value_iteration ?max_iter ?tol ~gamma m in
    (greedy_policy m (q_from_values ~gamma m v), v)

  let policy_evaluation ?(max_iter = 100_000) ?(tol = 1e-10) ~gamma m pi =
    let n = Mdp.num_states m in
    let v = Array.make n 0.0 in
    let rec iterate k =
      if k >= max_iter then ()
      else begin
        let delta = ref 0.0 in
        for s = 0 to n - 1 do
          match Mdp.find_action m s pi.(s) with
          | None -> assert false
          | Some a ->
            let nv = q_of_action ~gamma m v s a in
            delta := Float.max !delta (Float.abs (nv -. v.(s)));
            v.(s) <- nv
        done;
        if !delta >= tol then iterate (k + 1)
      end
    in
    iterate 0;
    v

  let policy_iteration ?max_iter ?tol ~gamma m =
    let rec go pi rounds =
      let v = policy_evaluation ?max_iter ?tol ~gamma m pi in
      let pi' = greedy_policy m (q_from_values ~gamma m v) in
      if pi' = pi then (pi, v, rounds) else go pi' (rounds + 1)
    in
    go
      (Array.init (Mdp.num_states m) (fun s ->
           (List.hd (Mdp.actions_of m s)).Mdp.name))
      0
end

(* ------------------------------------------------------------------ *)
(* Random instances                                                     *)
(* ------------------------------------------------------------------ *)

type case = {
  m : Mdp.t;
  gamma : float;
  max_iter : int option;
  tol : float option;
  pi : Mdp.policy;  (* a random policy, for policy_evaluation *)
}

(* 1-40 states, 1-4 actions each, 1-4 successors per action (a self-loop
   half the time), random state and action rewards, γ ∈ [0.5, 0.99].
   Most cases run to the default tolerance; some stop on a sweep cap or
   a loose tolerance, exercising both exits of the sweep loop. *)
let gen_case =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let rng = Prng.create seed in
  let n = 1 + Prng.int rng 40 in
  let actions = ref [] and action_rewards = ref [] in
  let chosen =
    Array.init n (fun s ->
        let k = 1 + Prng.int rng 4 in
        for a = 0 to k - 1 do
          let name = Printf.sprintf "a%d" a in
          let targets =
            List.init (1 + Prng.int rng 4) (fun _ -> Prng.int rng n)
            @ if Prng.float rng < 0.5 then [ s ] else []
          in
          let weights = List.map (fun d -> (d, 0.05 +. Prng.float rng)) targets in
          let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
          actions := (s, name, List.map (fun (d, w) -> (d, w /. total)) weights) :: !actions;
          action_rewards := ((s, name), Prng.uniform rng (-1.0) 1.0) :: !action_rewards
        done;
        Printf.sprintf "a%d" (Prng.int rng k))
  in
  let m =
    Mdp.make ~n ~init:0 ~actions:!actions ~action_rewards:!action_rewards
      ~state_rewards:(Array.init n (fun _ -> Prng.uniform rng (-1.0) 1.0))
      ()
  in
  let gamma = Prng.uniform rng 0.5 0.99 in
  let max_iter, tol =
    match Prng.int rng 6 with
    | 0 -> (Some (Prng.int rng 8), None)
    | 1 -> (None, Some 1e-3)
    | _ -> (None, None)
  in
  return { m; gamma; max_iter; tol; pi = chosen }

let print_case c =
  Format.asprintf "gamma=%h max_iter=%s tol=%s@.%a" c.gamma
    (match c.max_iter with Some k -> string_of_int k | None -> "default")
    (match c.tol with Some t -> Printf.sprintf "%h" t | None -> "default")
    Mdp.pp c.m

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_q (a : Value.q_table) (b : Value.q_table) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ra rb ->
          List.length ra = List.length rb
          && List.for_all2
               (fun (na, qa) (nb, qb) ->
                  String.equal na nb
                  && Int64.equal (Int64.bits_of_float qa) (Int64.bits_of_float qb))
               ra rb)
       a b

let qtest name f =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2018 |])
    (QCheck2.Test.make ~name ~count:100 ~print:print_case gen_case f)

let props =
  [ qtest "value_iteration" (fun c ->
        same_floats
          (Value.value_iteration ?max_iter:c.max_iter ?tol:c.tol ~gamma:c.gamma c.m)
          (Ref.value_iteration ?max_iter:c.max_iter ?tol:c.tol ~gamma:c.gamma c.m));
    qtest "q_from_values" (fun c ->
        let v = Ref.value_iteration ?max_iter:c.max_iter ~gamma:c.gamma c.m in
        same_q
          (Value.q_from_values ~gamma:c.gamma c.m v)
          (Ref.q_from_values ~gamma:c.gamma c.m v));
    qtest "q_values" (fun c ->
        same_q
          (Value.q_values ?max_iter:c.max_iter ?tol:c.tol ~gamma:c.gamma c.m)
          (Ref.q_values ?max_iter:c.max_iter ?tol:c.tol ~gamma:c.gamma c.m));
    qtest "optimal_policy" (fun c ->
        let pi, v = Value.optimal_policy ?max_iter:c.max_iter ?tol:c.tol ~gamma:c.gamma c.m in
        let pi', v' = Ref.optimal_policy ?max_iter:c.max_iter ?tol:c.tol ~gamma:c.gamma c.m in
        pi = pi' && same_floats v v');
    qtest "policy_evaluation" (fun c ->
        same_floats
          (Value.policy_evaluation ?max_iter:c.max_iter ?tol:c.tol ~gamma:c.gamma c.m c.pi)
          (Ref.policy_evaluation ?max_iter:c.max_iter ?tol:c.tol ~gamma:c.gamma c.m c.pi));
    (* at the default tolerance only: with a capped evaluation the
       improvement loop can cycle between policies (in both
       implementations alike) *)
    qtest "policy_iteration" (fun c ->
        let pi, v, r = Value.policy_iteration ~gamma:c.gamma c.m in
        let pi', v', r' = Ref.policy_iteration ~gamma:c.gamma c.m in
        pi = pi' && same_floats v v' && r = r');
    qtest "solve and q_slot on fresh rewards" (fun c ->
        (* the reward-repair path: one kernel, state rewards per solve *)
        let k = Value.compile c.m in
        let n = Mdp.num_states c.m in
        let rewards = Array.init n (fun s -> Float.of_int (s mod 3) -. 0.5) in
        let m' = Mdp.with_state_rewards c.m rewards in
        let v = Value.solve ?max_iter:c.max_iter ~gamma:c.gamma k ~rewards in
        let q = Ref.q_values ?max_iter:c.max_iter ~gamma:c.gamma m' in
        same_floats v (Ref.value_iteration ?max_iter:c.max_iter ~gamma:c.gamma m')
        && Array.for_all
             (fun s ->
                List.for_all
                  (fun (name, qv) ->
                     Int64.equal (Int64.bits_of_float qv)
                       (Int64.bits_of_float
                          (Value.q_slot ~gamma:c.gamma k ~rewards v s (Value.slot k s name))))
                  q.(s))
             (Array.init n Fun.id));
  ]

(* ------------------------------------------------------------------ *)
(* Edge cases                                                           *)
(* ------------------------------------------------------------------ *)

(* a NaN reward makes delta NaN: the sweep stops (not (NaN >= tol)) after
   one pass, exactly as the reference does *)
let test_nan_stops_like_reference () =
  let m =
    Mdp.make ~n:2 ~init:0
      ~actions:[ (0, "go", [ (1, 1.0) ]); (1, "stay", [ (1, 1.0) ]) ]
      ~state_rewards:[| Float.nan; 1.0 |] ()
  in
  Alcotest.(check bool) "values" true
    (same_floats (Value.value_iteration ~gamma:0.9 m) (Ref.value_iteration ~gamma:0.9 m))

let test_kernel_argument_checks () =
  let m =
    Mdp.make ~n:2 ~init:0
      ~actions:[ (0, "go", [ (1, 1.0) ]); (1, "stay", [ (1, 1.0) ]) ] ()
  in
  let k = Value.compile m in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "unknown action" (fun () -> Value.slot k 0 "stay");
  raises "state out of range" (fun () -> Value.slot k 2 "go");
  raises "short rewards" (fun () -> Value.solve ~gamma:0.9 k ~rewards:[| 0.0 |]);
  raises "bad gamma" (fun () -> Value.solve ~gamma:1.5 k ~rewards:[| 0.0; 0.0 |]);
  raises "slot of another state" (fun () ->
      Value.q_slot ~gamma:0.9 k ~rewards:[| 0.0; 0.0 |] [| 0.0; 0.0 |] 0
        (Value.slot k 1 "stay"))

(* ------------------------------------------------------------------ *)
(* Reward Repair goldens                                                *)
(* ------------------------------------------------------------------ *)

(* cost / q-gap of the car repair with starts 1, measured on the
   list-based implementation *)
let goldens =
  [ (0.88, 0x1.c31ae745efd69p-4, 0x1.a79ecf72d8p-14);
    (0.90, 0x1.c7bc5fbcd39c2p-4, 0x1.a79edba598p-14);
    (0.92, 0x1.cc1316d6058f1p-4, 0x1.a79efe77ep-14);
  ]

let test_car_repair_goldens () =
  let m = Car.mdp () in
  List.iter
    (fun (gamma, cost, gap) ->
       match
         Reward_repair.repair_q ~gamma ~starts:1 m ~theta:Car.paper_learned_theta
           ~constraints:[ Car.unsafe_q_constraint ]
       with
       | Reward_repair.Repaired r ->
         let name what = Printf.sprintf "gamma=%g %s" gamma what in
         Alcotest.(check string) (name "cost") (Printf.sprintf "%h" cost)
           (Printf.sprintf "%h" r.Reward_repair.cost);
         (match r.Reward_repair.q_gaps with
          | [ (_, g) ] ->
            Alcotest.(check string) (name "q-gap") (Printf.sprintf "%h" gap)
              (Printf.sprintf "%h" g)
          | _ -> Alcotest.fail "one q-gap per constraint");
         Alcotest.(check bool) (name "verified") true r.Reward_repair.verified
       | _ -> Alcotest.failf "gamma=%g: expected a repair" gamma)
    goldens

let () =
  Alcotest.run "value"
    [ ("kernel = list reference", props);
      ( "edge cases",
        [ Alcotest.test_case "NaN stops like the reference" `Quick
            test_nan_stops_like_reference;
          Alcotest.test_case "kernel argument checks" `Quick
            test_kernel_argument_checks;
        ] );
      ( "reward repair goldens",
        [ Alcotest.test_case "car repair_q, starts 1" `Quick
            test_car_repair_goldens;
        ] );
    ]
