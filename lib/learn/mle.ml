let check_state n s =
  if s < 0 || s >= n then
    invalid_arg (Printf.sprintf "Mle: state %d out of range [0,%d)" s n)

let counts ~n (t : Tally.t) =
  let c = Array.make_matrix n n 0.0 in
  List.iter
    (fun (s, d, k) ->
       check_state n s;
       check_state n d;
       c.(s).(d) <- float_of_int k)
    t.Tally.transitions;
  c

(* A tally keeps no cell for a lone-state trace, so check every state of
   the traces themselves. *)
let transition_counts ~n traces =
  List.iter (fun tr -> List.iter (check_state n) (Trace.states tr)) traces;
  counts ~n (Tally.of_traces traces)

let learn ~n ~init ?(labels = []) ?rewards ?(smoothing = 0.0) ?support
    (tally : Tally.t) =
  let counts = Array.make_matrix n n Ratio.zero in
  List.iter
    (fun (s, d, k) ->
       check_state n s;
       check_state n d;
       counts.(s).(d) <- Ratio.of_int k)
    tally.Tally.transitions;
  let support =
    match support with
    | Some s -> s
    | None -> List.map (fun (s, d, _) -> (s, d)) tally.Tally.transitions
  in
  if smoothing < 0.0 then invalid_arg "Mle.learn: negative smoothing";
  let alpha = Ratio.of_float smoothing in
  List.iter
    (fun (s, d) ->
       check_state n s;
       check_state n d;
       counts.(s).(d) <- Ratio.add counts.(s).(d) alpha)
    support;
  let transitions = ref [] in
  for s = 0 to n - 1 do
    let total = Array.fold_left Ratio.add Ratio.zero counts.(s) in
    if Ratio.sign total > 0 then
      Array.iteri
        (fun d c ->
           if Ratio.sign c > 0 then
             transitions :=
               (s, d, Ratfun.const (Ratio.div c total)) :: !transitions)
        counts.(s)
    else
      (* unobserved source: absorbing self-loop keeps the chain well formed *)
      transitions := (s, s, Ratfun.one) :: !transitions
  done;
  let rewards = Option.map (Array.map Ratfun.const) rewards in
  Pdtmc.make ~n ~init ~transitions:!transitions ~labels ?rewards ()

let learn_dtmc ~n ~init ?labels ?rewards ?smoothing ?support tally =
  let rewards = Option.map (Array.map Ratio.of_float) rewards in
  Pdtmc.to_dtmc (learn ~n ~init ?labels ?rewards ?smoothing ?support tally)

let learn_mdp_dists mdp ?(smoothing = 0.0) traces =
  let n = Mdp.num_states mdp in
  if smoothing < 0.0 then invalid_arg "Mle.learn_mdp_dists: negative smoothing";
  (* counts per (state, action, target) *)
  let tbl : (int * string * int, float) Hashtbl.t = Hashtbl.create 64 in
  let bump key =
    Hashtbl.replace tbl key (Option.value ~default:0.0 (Hashtbl.find_opt tbl key) +. 1.0)
  in
  List.iter
    (fun tr ->
       let pairs = Trace.state_actions tr in
       let states = Trace.states tr in
       let rec go pairs states =
         match (pairs, states) with
         | (s, a) :: prest, _ :: (next :: _ as srest) ->
           check_state n s;
           check_state n next;
           bump (s, a, next);
           go prest srest
         | [], _ | _, [] | _, [ _ ] -> ()
       in
       go pairs states)
    traces;
  let actions =
    List.concat
      (List.init n (fun s ->
           List.map
             (fun (a : Mdp.action) ->
                let support = List.map fst a.Mdp.dist in
                let counts =
                  List.map
                    (fun d ->
                       ( d,
                         Option.value ~default:0.0
                           (Hashtbl.find_opt tbl (s, a.Mdp.name, d))
                         +. smoothing ))
                    support
                in
                let total = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 counts in
                let dist =
                  if total > 0.0 then
                    List.filter_map
                      (fun (d, c) -> if c > 0.0 then Some (d, c /. total) else None)
                      counts
                  else a.Mdp.dist
                in
                (s, a.Mdp.name, dist))
             (Mdp.actions_of mdp s)))
  in
  let labels = List.map (fun l -> (l, Mdp.states_with_label mdp l)) (Mdp.labels mdp) in
  let action_rewards =
    List.concat
      (List.init n (fun s ->
           List.map
             (fun (a : Mdp.action) -> ((s, a.Mdp.name), a.Mdp.reward))
             (Mdp.actions_of mdp s)))
  in
  let state_rewards = Array.init n (Mdp.state_reward mdp) in
  let features =
    if Mdp.feature_dim mdp = 0 then None
    else Some (Array.init n (Mdp.features_of mdp))
  in
  Mdp.make ~n ~init:(Mdp.init_state mdp) ~actions ~action_rewards ~labels
    ~state_rewards ?features ()

let parametric_mle ~n ~init ?(labels = []) ?rewards ~groups () =
  let names = List.map fst groups in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Mle.parametric_mle: duplicate group names";
  let group_counts = List.map (fun (g, tally) -> (g, counts ~n tally)) groups in
  let keep g = Ratfun.sub Ratfun.one (Ratfun.var g) in
  let entry s d =
    List.fold_left
      (fun acc (g, counts) ->
         let c = counts.(s).(d) in
         if c = 0.0 then acc
         else
           Ratfun.add acc
             (Ratfun.mul (Ratfun.const (Ratio.of_float c)) (keep g)))
      Ratfun.zero group_counts
  in
  let transitions = ref [] in
  for s = 0 to n - 1 do
    let row_entries =
      List.filter_map
        (fun d ->
           let e = entry s d in
           if Ratfun.is_zero e then None else Some (d, e))
        (List.init n Fun.id)
    in
    match row_entries with
    | [] -> transitions := (s, s, Ratfun.one) :: !transitions
    | _ ->
      let total =
        List.fold_left (fun acc (_, e) -> Ratfun.add acc e) Ratfun.zero row_entries
      in
      List.iter
        (fun (d, e) ->
           transitions := (s, d, Ratfun.div e total) :: !transitions)
        row_entries
  done;
  let rewards = Option.map (Array.map Ratfun.const) rewards in
  Pdtmc.make ~n ~init ~transitions:!transitions ~labels ?rewards ()
