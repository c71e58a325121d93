(* Reference state elimination for differential tests: the same
   equations as [Elimination], solved with per-edge normalized [Ratfun]
   arithmetic (every edge update is normalized on the spot, nothing is
   kept in factored form) and with its own structural pre-analysis.
   Results agree with [Elimination] under [Ratfun.equal]; the printed
   quotients may differ in size. *)

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

(* Solve E(s) = r(s) + Σ_v p(s,v) E(v) on the states in [active], all
   other E-values being 0.  Returns E(init).  Always eliminates in
   min-degree order: with per-edge normalization a fixed order can blow
   up on small chains the factored solver handles in milliseconds. *)
let solve ~rows ~rew ~active ~init =
  let n = Array.length rows in
  (* Local mutable copies restricted to active states. *)
  let p = Array.make n Imap.empty in
  Array.iteri
    (fun s row ->
       if active.(s) then
         p.(s) <- Imap.filter (fun d _ -> active.(d)) row)
    rows;
  let r = Array.copy rew in
  let preds = Array.make n Iset.empty in
  Array.iteri
    (fun s row -> Imap.iter (fun d _ -> preds.(d) <- Iset.add s preds.(d)) row)
    p;
  let alive = Array.copy active in
  let to_eliminate =
    List.filter (fun s -> alive.(s) && s <> init) (List.init n Fun.id)
  in
  let degree s = Iset.cardinal preds.(s) * Imap.cardinal p.(s) in
  let pick remaining =
    List.fold_left
      (fun best s -> if degree s < degree best then s else best)
      (List.hd remaining) remaining
  in
  let eliminate s =
    let self = Option.value ~default:Ratfun.zero (Imap.find_opt s p.(s)) in
    let one_minus = Ratfun.sub Ratfun.one self in
    if Ratfun.is_zero one_minus then begin
      (* p(s,s) ≡ 1: a trap; its E-value is 0, so cut it out *)
      Iset.iter
        (fun u -> if u <> s then p.(u) <- Imap.remove s p.(u))
        preds.(s);
      Imap.iter (fun d _ -> preds.(d) <- Iset.remove s preds.(d)) p.(s);
      p.(s) <- Imap.empty;
      alive.(s) <- false
    end
    else begin
      let factor = Ratfun.inv one_minus in
      let out = Imap.remove s p.(s) in
      let r_s = Ratfun.mul factor r.(s) in
      let scaled_out = Imap.map (fun f -> Ratfun.mul factor f) out in
      Iset.iter
        (fun u ->
           if u <> s then begin
             match Imap.find_opt s p.(u) with
             | None -> ()
             | Some p_us ->
               r.(u) <- Ratfun.add r.(u) (Ratfun.mul p_us r_s);
               Imap.iter
                 (fun v f ->
                    let contrib = Ratfun.mul p_us f in
                    p.(u) <-
                      Imap.update v
                        (function
                          | None -> Some contrib
                          | Some g ->
                            let sum = Ratfun.add g contrib in
                            if Ratfun.is_zero sum then None else Some sum)
                        p.(u);
                    preds.(v) <- Iset.add u preds.(v))
                 scaled_out;
               p.(u) <- Imap.remove s p.(u)
           end)
        preds.(s);
      Imap.iter (fun d _ -> preds.(d) <- Iset.remove s preds.(d)) p.(s);
      preds.(s) <- Iset.empty;
      p.(s) <- Imap.empty;
      alive.(s) <- false
    end
  in
  let rec loop remaining =
    match remaining with
    | [] -> ()
    | _ ->
      let s = pick remaining in
      eliminate s;
      loop (List.filter (fun x -> x <> s) remaining)
  in
  loop to_eliminate;
  (* E(init) = r(init) / (1 - p(init,init)) *)
  let self = Option.value ~default:Ratfun.zero (Imap.find_opt init p.(init)) in
  let one_minus = Ratfun.sub Ratfun.one self in
  if Ratfun.is_zero one_minus then Ratfun.zero
  else Ratfun.mul (Ratfun.inv one_minus) r.(init)

(* ------------------------- structural analyses ------------------------ *)

let rows_of pdtmc =
  Array.init (Pdtmc.num_states pdtmc) (fun s ->
      Imap.of_seq (List.to_seq (Pdtmc.succ pdtmc s)))

(* Breadth-first closure of [from] under [next]. *)
let bfs n next from =
  let mark = Array.make n false in
  let queue = Queue.create () in
  let visit s = if not mark.(s) then (mark.(s) <- true; Queue.add s queue) in
  List.iter visit from;
  while not (Queue.is_empty queue) do
    List.iter visit (next (Queue.pop queue))
  done;
  mark

(* States reachable from the initial state before the first target hit
   (target states are reached but not expanded). *)
let reachable pdtmc ~target =
  bfs (Pdtmc.num_states pdtmc)
    (fun s -> if List.mem s target then [] else List.map fst (Pdtmc.succ pdtmc s))
    [ Pdtmc.init_state pdtmc ]

(* States with a path into [target]. *)
let reaches_target pdtmc ~target =
  let n = Pdtmc.num_states pdtmc in
  let preds = Array.make n [] in
  for s = 0 to n - 1 do
    List.iter (fun (d, _) -> preds.(d) <- s :: preds.(d)) (Pdtmc.succ pdtmc s)
  done;
  bfs n (fun s -> preds.(s)) target

(* [Elimination.Not_almost_sure]'s contract: the initial state is a target,
   or every state reachable before the first target hit has a path into
   the target. *)
let almost_sure pdtmc ~target =
  List.mem (Pdtmc.init_state pdtmc) target
  ||
  let can = reaches_target pdtmc ~target in
  Array.for_all2 (fun r c -> (not r) || c) (reachable pdtmc ~target) can

(* ------------------------------- queries ------------------------------- *)

let reachability_probability pdtmc ~target =
  let init = Pdtmc.init_state pdtmc in
  if List.mem init target then Ratfun.one
  else begin
    let rows = rows_of pdtmc in
    let reach = reachable pdtmc ~target in
    let can = reaches_target pdtmc ~target in
    let active =
      Array.init (Array.length rows) (fun s ->
          reach.(s) && can.(s) && not (List.mem s target))
    in
    (* r(s) = direct mass into the target set *)
    let rew =
      Array.mapi
        (fun s row ->
           if not active.(s) then Ratfun.zero
           else
             Imap.fold
               (fun d f acc -> if List.mem d target then Ratfun.add acc f else acc)
               row Ratfun.zero)
        rows
    in
    if not can.(init) then Ratfun.zero
    else solve ~rows ~rew ~active ~init
  end

(* Only meaningful when [almost_sure pdtmc ~target]. *)
let expected_reward pdtmc ~target =
  let init = Pdtmc.init_state pdtmc in
  if List.mem init target then Ratfun.zero
  else begin
    let rows = rows_of pdtmc in
    let reach = reachable pdtmc ~target in
    let active =
      Array.init (Array.length rows) (fun s ->
          reach.(s) && not (List.mem s target))
    in
    let rew =
      Array.init (Array.length rows) (fun s ->
          if active.(s) then Pdtmc.reward pdtmc s else Ratfun.zero)
    in
    solve ~rows ~rew ~active ~init
  end
