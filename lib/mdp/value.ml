type q_table = (string * float) list array

let check_gamma gamma =
  if gamma <= 0.0 || gamma > 1.0 then
    invalid_arg (Printf.sprintf "Value: gamma %g outside (0, 1]" gamma)

(* ------------------------------------------------------------------ *)
(* Compiled Bellman kernel                                              *)
(* ------------------------------------------------------------------ *)

(* CSR layout: the actions of state [s] are the slots
   [act_off.(s) .. act_off.(s + 1) - 1], in the MDP's name-sorted order;
   the successors of slot [j] are [succ_off.(j) .. succ_off.(j + 1) - 1],
   in the stored distribution order.  Immutable once compiled, so one
   kernel may be shared by any number of concurrent evaluations. *)
type kernel = {
  n : int;
  act_off : int array;
  act_name : string array;
  act_reward : float array;
  succ_off : int array;
  succ : int array;
  prob : float array;
}

(* prefix sums of group sizes: group [i] is [off.(i) .. off.(i + 1) - 1] *)
let offsets sizes =
  let off = Array.make (Array.length sizes + 1) 0 in
  Array.iteri (fun i size -> off.(i + 1) <- off.(i) + size) sizes;
  off

let compile m =
  let per_state =
    Array.init (Mdp.num_states m) (fun s -> Array.of_list (Mdp.actions_of m s))
  in
  let acts = Array.concat (Array.to_list per_state) in
  let dists = Array.map (fun (a : Mdp.action) -> Array.of_list a.Mdp.dist) acts in
  let dist = Array.concat (Array.to_list dists) in
  {
    n = Array.length per_state;
    act_off = offsets (Array.map Array.length per_state);
    act_name = Array.map (fun (a : Mdp.action) -> a.Mdp.name) acts;
    act_reward = Array.map (fun (a : Mdp.action) -> a.Mdp.reward) acts;
    succ_off = offsets (Array.map Array.length dists);
    succ = Array.map fst dist;
    prob = Array.map snd dist;
  }

let slot k s name =
  if s < 0 || s >= k.n then
    invalid_arg (Printf.sprintf "Value.slot: state %d out of range" s);
  let rec find j =
    if j >= k.act_off.(s + 1) then
      invalid_arg (Printf.sprintf "Value.slot: state %d has no action %S" s name)
    else if String.equal k.act_name.(j) name then j
    else find (j + 1)
  in
  find k.act_off.(s)

let check_rewards k rewards =
  if Array.length rewards <> k.n then
    invalid_arg "Value: state reward vector has wrong length"

(* Q(s, slot j): the successor sum folds from 0.0 in stored order, then
   [state reward + action reward + γ·future] — the operation order every
   caller's bit-for-bit results depend on. *)
let[@inline] q_unsafe ~gamma k rewards v s j =
  let future = ref 0.0 in
  for i = Array.unsafe_get k.succ_off j to Array.unsafe_get k.succ_off (j + 1) - 1 do
    future :=
      !future
      +. (Array.unsafe_get k.prob i *. Array.unsafe_get v (Array.unsafe_get k.succ i))
  done;
  Array.unsafe_get rewards s +. Array.unsafe_get k.act_reward j +. (gamma *. !future)

let check_values k v =
  if Array.length v < k.n then invalid_arg "Value: value vector too short"

let q_slot ~gamma k ~rewards v s j =
  check_rewards k rewards;
  check_values k v;
  if s < 0 || s >= k.n || j < k.act_off.(s) || j >= k.act_off.(s + 1) then
    invalid_arg "Value.q_slot: slot is not an action of the state";
  q_unsafe ~gamma k rewards v s j

(* [Float.max], with the ordered cases answered before the call: the
   fallback handles NaN and signed zeros, so the result is bit-identical *)
let[@inline] fmax x y = if y > x then y else if x > y then x else Float.max x y

(* In-place (Gauss-Seidel) sweeps: state [s] takes the max of its Q
   values over slots [lo.(s) .. hi.(s) - 1] (all its actions for value
   iteration, the chosen one for policy evaluation — a max over one value
   is that value, bit for bit).  Stops when [not (delta >= tol)], so a NaN
   delta ends the iteration, or after [max_iter] sweeps.  The value vector
   is allocated per call: concurrent solves share no scratch. *)
let sweep ~max_iter ~tol ~gamma k rewards lo hi =
  let n = k.n in
  let v = Array.make n 0.0 in
  let sweeps = ref 0 and go = ref (max_iter > 0) in
  while !go do
    let delta = ref 0.0 in
    for s = 0 to n - 1 do
      let best = ref Float.neg_infinity in
      for j = Array.unsafe_get lo s to Array.unsafe_get hi s - 1 do
        best := fmax !best (q_unsafe ~gamma k rewards v s j)
      done;
      delta := fmax !delta (Float.abs (!best -. Array.unsafe_get v s));
      Array.unsafe_set v s !best
    done;
    incr sweeps;
    go := !delta >= tol && !sweeps < max_iter
  done;
  v

let solve ?(max_iter = 100_000) ?(tol = 1e-10) ~gamma k ~rewards =
  check_gamma gamma;
  check_rewards k rewards;
  sweep ~max_iter ~tol ~gamma k rewards (Array.sub k.act_off 0 k.n)
    (Array.sub k.act_off 1 k.n)

(* ------------------------------------------------------------------ *)
(* Mdp entry points                                                     *)
(* ------------------------------------------------------------------ *)

let rewards_of m = Array.init (Mdp.num_states m) (Mdp.state_reward m)

let value_iteration ?max_iter ?tol ~gamma m =
  check_gamma gamma;
  solve ?max_iter ?tol ~gamma (compile m) ~rewards:(rewards_of m)

let q_table ~gamma k rewards v =
  Array.init k.n (fun s ->
      List.init
        (k.act_off.(s + 1) - k.act_off.(s))
        (fun i ->
           let j = k.act_off.(s) + i in
           (k.act_name.(j), q_unsafe ~gamma k rewards v s j)))

let q_from_values ~gamma m v =
  check_gamma gamma;
  let k = compile m in
  check_values k v;
  q_table ~gamma k (rewards_of m) v

let q_values ?max_iter ?tol ~gamma m =
  check_gamma gamma;
  let k = compile m and rewards = rewards_of m in
  q_table ~gamma k rewards (solve ?max_iter ?tol ~gamma k ~rewards)

let greedy_policy m q =
  Array.init (Mdp.num_states m) (fun s ->
      match q.(s) with
      | [] -> invalid_arg "Value.greedy_policy: state without actions"
      | (first, fq) :: rest ->
        let best, _ =
          List.fold_left
            (fun (bn, bq) (n, v) -> if v > bq then (n, v) else (bn, bq))
            (first, fq) rest
        in
        best)

let optimal_policy ?max_iter ?tol ~gamma m =
  check_gamma gamma;
  let k = compile m and rewards = rewards_of m in
  let v = solve ?max_iter ?tol ~gamma k ~rewards in
  (greedy_policy m (q_table ~gamma k rewards v), v)

let evaluate ?(max_iter = 100_000) ?(tol = 1e-10) ~gamma k rewards m pi =
  (match Mdp.validate_policy m pi with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Value.policy_evaluation: " ^ msg));
  let chosen = Array.mapi (slot k) pi in
  sweep ~max_iter ~tol ~gamma k rewards chosen (Array.map succ chosen)

let policy_evaluation ?max_iter ?tol ~gamma m pi =
  check_gamma gamma;
  evaluate ?max_iter ?tol ~gamma (compile m) (rewards_of m) m pi

let policy_iteration ?max_iter ?tol ~gamma m =
  check_gamma gamma;
  let k = compile m and rewards = rewards_of m in
  (* start from the name-first policy (deterministic) *)
  let pi0 = Array.init k.n (fun s -> k.act_name.(k.act_off.(s))) in
  let rec improve pi rounds =
    let v = evaluate ?max_iter ?tol ~gamma k rewards m pi in
    let pi' = greedy_policy m (q_table ~gamma k rewards v) in
    if pi' = pi then (pi, v, rounds) else improve pi' (rounds + 1)
  in
  improve pi0 0
