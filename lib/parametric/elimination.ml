module Imap = Map.Make (Int)
module Iset = Set.Make (Int)
module P = Poly
module Q = Ratio

type order = Min_degree | Ascending | Descending

let normalize_saved =
  Metrics.counter "tml_elim_normalize_saved_total"
    ~help:
      "Ratfun normalizations avoided by carrying factored rational \
       functions through elimination instead of normalizing per edge update"

(* ------------------------------------------------------------------ *)
(* Factored rational functions (the PARAM/Storm trick).                 *)
(*                                                                      *)
(* During elimination every value is  c * Π nf_i^ei / Π df_j^ej  with   *)
(* [c] an expanded polynomial and the factor multisets kept symbolic.   *)
(* Additions then build the true LCM of the two denominators from the   *)
(* factor multisets instead of blindly multiplying them — which is      *)
(* where the naive pairing blows up: without multivariate gcd, a        *)
(* redundant common factor introduced by one add can never be cancelled *)
(* again and gets squared by every subsequent one.  Multiplications     *)
(* cancel matching num/den factors by multiset subtraction, i.e. the    *)
(* frequent  p(s,s)-denominator vs row-denominator  cancellations cost  *)
(* a map lookup instead of a polynomial gcd.  Nothing is normalized     *)
(* until the single Ratfun.make per query at the very end.              *)
(* ------------------------------------------------------------------ *)

module Pmap = Map.Make (Poly)

type fr = { c : P.t; nf : int Pmap.t; df : int Pmap.t }

let fr_zero = { c = P.zero; nf = Pmap.empty; df = Pmap.empty }
let fr_one = { c = P.one; nf = Pmap.empty; df = Pmap.empty }
let fr_is_zero t = P.is_zero t.c
let fr_neg t = { t with c = P.neg t.c }

(* Scale a factor so its canonical coefficient is 1 (matching Ratfun's
   scaling rule closely enough that equal factors arising on different
   paths unify); returns the extracted scalar. *)
let canon_factor p =
  let k = P.coeff_of_const p in
  if Q.is_zero k || Q.equal k Q.one then (Q.one, p)
  else (k, P.scale (Q.inv k) p)

let mset_add f e m =
  Pmap.update f (function None -> Some e | Some e0 -> Some (e0 + e)) m

let mset_union = Pmap.union (fun _ a b -> Some (a + b))

(* Remove the common part of two factor multisets. *)
let mset_cancel a b =
  if Pmap.is_empty a || Pmap.is_empty b then (a, b)
  else
    Pmap.fold
      (fun f ea (a, b) ->
         match Pmap.find_opt f b with
         | None -> (a, b)
         | Some eb ->
           let k = Stdlib.min ea eb in
           let drop e m = if e = k then Pmap.remove f m else Pmap.add f (e - k) m in
           (drop ea a, drop eb b))
      a (a, b)

let expand m = Pmap.fold (fun f e acc -> P.mul acc (P.pow f e)) m P.one

let fr_of_ratfun f =
  if Ratfun.is_zero f then fr_zero
  else begin
    let den = Ratfun.den f in
    match P.to_const_opt den with
    | Some k -> { fr_zero with c = P.scale (Q.inv k) (Ratfun.num f) }
    | None ->
      let k, den = canon_factor den in
      { c = P.scale (Q.inv k) (Ratfun.num f);
        nf = Pmap.empty;
        df = Pmap.singleton den 1 }
  end

let fr_to_ratfun t =
  if fr_is_zero t then Ratfun.zero
  else Ratfun.make (P.mul t.c (expand t.nf)) (expand t.df)

let fr_mul a b =
  if fr_is_zero a || fr_is_zero b then fr_zero
  else begin
    let nf, df = mset_cancel (mset_union a.nf b.nf) (mset_union a.df b.df) in
    { c = P.mul a.c b.c; nf; df }
  end

let fr_inv t =
  if fr_is_zero t then raise Division_by_zero;
  match P.to_const_opt t.c with
  | Some k -> { c = P.const (Q.inv k); nf = t.df; df = t.nf }
  | None ->
    let k, f = canon_factor t.c in
    let nf, df = mset_cancel t.df (mset_add f 1 t.nf) in
    { c = P.const (Q.inv k); nf; df }

let fr_add a b =
  if fr_is_zero a then b
  else if fr_is_zero b then a
  else begin
    (* true common denominator: factor-wise max *)
    let lcm = Pmap.union (fun _ ea eb -> Some (Stdlib.max ea eb)) a.df b.df in
    let cofactor d =
      Pmap.fold
        (fun f e acc ->
           let have = Option.value ~default:0 (Pmap.find_opt f d) in
           if e > have then P.mul acc (P.pow f (e - have)) else acc)
        lcm P.one
    in
    (* hoist shared numerator factors out of the sum *)
    let common =
      Pmap.merge
        (fun _ ea eb ->
           match (ea, eb) with
           | Some ea, Some eb -> Some (Stdlib.min ea eb)
           | _ -> None)
        a.nf b.nf
    in
    let rest t = Pmap.fold (fun f e m ->
        let e = e - Option.value ~default:0 (Pmap.find_opt f common) in
        if e > 0 then Pmap.add f e m else m) t.nf Pmap.empty
    in
    let side t =
      P.mul t.c (P.mul (expand (rest t)) (cofactor t.df))
    in
    let c = P.add (side a) (side b) in
    if P.is_zero c then fr_zero
    else begin
      let nf, df = mset_cancel common lcm in
      { c; nf; df }
    end
  end

exception Not_almost_sure of int

(* ------------------------------------------------------------------ *)
(* Memo hook: an installable cache for whole-query elimination results.  *)
(* The runtime layer installs a bounded, thread-safe cache here so that   *)
(* repeated queries on structurally identical chains skip elimination     *)
(* entirely.  The hook receives a structural key and a thunk computing    *)
(* the result; with no hook installed the thunk runs directly.            *)
(* ------------------------------------------------------------------ *)

type memo = key:string -> compute:(unit -> Ratfun.t) -> Ratfun.t

let memo_hook : memo option Atomic.t = Atomic.make None
let set_memo m = Atomic.set memo_hook m

let order_tag = function
  | Min_degree -> "m"
  | Ascending -> "a"
  | Descending -> "d"

let memoized ~kind ~order pdtmc ~target compute =
  match Atomic.get memo_hook with
  | None -> compute ()
  | Some memo ->
    let key =
      Printf.sprintf "%s:%s:%s:%s" kind (order_tag order)
        (String.concat "," (List.map string_of_int (List.sort compare target)))
        (Pdtmc.digest pdtmc)
    in
    memo ~key ~compute

(* ------------------------------------------------------------------ *)
(* Structural graph analyses (an edge exists iff its ratfun is not the  *)
(* zero function)                                                       *)
(* ------------------------------------------------------------------ *)

let forward_reachable rows init =
  let n = Array.length rows in
  let mark = Array.make n false in
  let queue = Queue.create () in
  mark.(init) <- true;
  Queue.add init queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Imap.iter
      (fun d _ ->
         if not mark.(d) then begin
           mark.(d) <- true;
           Queue.add d queue
         end)
      rows.(s)
  done;
  mark

let backward_reachable rows from =
  let n = Array.length rows in
  let preds = Array.make n [] in
  Array.iteri
    (fun s row -> Imap.iter (fun d _ -> preds.(d) <- s :: preds.(d)) row)
    rows;
  let mark = Array.make n false in
  let queue = Queue.create () in
  Iset.iter
    (fun s ->
       mark.(s) <- true;
       Queue.add s queue)
    from;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    List.iter
      (fun p ->
         if not mark.(p) then begin
           mark.(p) <- true;
           Queue.add p queue
         end)
      preds.(s)
  done;
  mark

(* ------------------------------------------------------------------ *)
(* Core elimination: solve E(s) = r(s) + Σ_v p(s,v) E(v) on the states  *)
(* in [active], all other E-values being 0.  Returns E(init).  Every    *)
(* stored value is an [fr]; nothing is normalized until the single      *)
(* [fr_to_ratfun] at the end of the query.                              *)
(*                                                                      *)
(* The schedule is a sequence of dynamic picks; the final rational      *)
(* function's REPRESENTATION depends on that exact sequence (without    *)
(* multivariate gcd, different orders leave different common factors   *)
(* unreduced).  With no [Parallel] runner installed every batch is the  *)
(* single next pick, which is that sequence itself.  With a runner the  *)
(* solver does not invent a new schedule: it proves, batch by batch,    *)
(* that a prefix of the sequential schedule consists of states whose    *)
(* neighborhoods                                                        *)
(*   N(s) = {s} ∪ preds(s) ∪ succs(s)                                   *)
(* are pairwise disjoint.  Disjoint-N eliminations read and write       *)
(* disjoint array cells (rows of preds(s), pred-sets of succs(s), s's   *)
(* own row), so running them concurrently is cell-for-cell identical to *)
(* running them in sequence — byte-identical output, any interleaving.  *)
(*                                                                      *)
(* Replicating the DYNAMIC Min_degree pick without executing anything   *)
(* needs one more argument.  States outside the batch's touched region  *)
(* ⋃N(b) keep their exact degree (no cell of theirs is written), so     *)
(* their post-batch pick keys are the frozen ones.  States inside it    *)
(* have uncertain degrees — but elimination only REMOVES an edge u→v    *)
(* when v is a batch member or a fill-in target (succs(b)), and only    *)
(* removes w→u when w is a batch member or fill-in source (preds(b)):   *)
(* everything else can at most gain edges.  Counting only the edges     *)
(* that provably survive gives a degree lower bound; if every touched   *)
(* survivor's bound exceeds the best frozen degree, the frozen argmin   *)
(* IS the next sequential pick.  Any doubt — a touched state whose      *)
(* bound could win or tie (ties would invoke the sym_size tie-break on  *)
(* a row we cannot know) — closes the batch instead of guessing.        *)
(* ------------------------------------------------------------------ *)

let solve ~order ~rows ~rew ~active ~init =
  let n = Array.length rows in
  let p = Array.make n Imap.empty in
  Array.iteri
    (fun s row ->
       if active.(s) then
         p.(s) <-
           Imap.filter_map
             (fun d f -> if active.(d) then Some (fr_of_ratfun f) else None)
             row)
    rows;
  let r = Array.map fr_of_ratfun rew in
  let preds = Array.make n Iset.empty in
  Array.iteri
    (fun s row -> Imap.iter (fun d _ -> preds.(d) <- Iset.add s preds.(d)) row)
    p;
  let alive = Array.copy active in
  let to_eliminate =
    List.filter (fun s -> alive.(s) && s <> init) (List.init n Fun.id)
  in
  let degree s = Iset.cardinal preds.(s) * Imap.cardinal p.(s) in
  (* Symbolic size of a state's outgoing row — the Min_degree tie-break.
     Among states with equally many fill-in edges, eliminating the one whose
     rational functions are smallest keeps intermediate quotients from
     blowing up.  Computed lazily, only on actual degree ties. *)
  let fr_size t =
    Pmap.fold
      (fun f e acc -> acc + (e * P.num_terms f))
      t.df (P.num_terms t.c)
  in
  let sym_size s = Imap.fold (fun _ f acc -> acc + fr_size f) p.(s) 0 in
  (* The Min_degree argmin over a non-empty candidate list, with its
     degree; full ties go to the earliest candidate. *)
  let argmin candidates =
    let best = ref (List.hd candidates) in
    let best_deg = ref (degree !best) in
    let best_size = ref (-1) in
    List.iter
      (fun s ->
         let d = degree s in
         if d < !best_deg then begin
           best := s;
           best_deg := d;
           best_size := -1
         end
         else if d = !best_deg then begin
           if !best_size < 0 then best_size := sym_size !best;
           let sz = sym_size s in
           if sz < !best_size then begin
             best := s;
             best_size := sz
           end
         end)
      (List.tl candidates);
    (!best, !best_deg)
  in
  let pick remaining =
    match order with
    | Ascending -> List.hd remaining
    | Descending -> List.hd (List.rev remaining)
    | Min_degree -> fst (argmin remaining)
  in
  (* Each elimination keeps a private normalize-saved tally and adds it to
     [saved_total] when done, so concurrent eliminations of one batch
     never share a mutable cell. *)
  let saved_total = Atomic.make 0 in
  let eliminate s =
    let saved = ref 0 in
    let self = Option.value ~default:fr_zero (Imap.find_opt s p.(s)) in
    let one_minus = fr_add fr_one (fr_neg self) in
    if fr_is_zero one_minus then begin
      (* p(s,s) ≡ 1: a trap; passing through contributes nothing finite.
         Structural pre-analysis removes such states from reward queries, so
         here simply cut s out (its E-value is 0 in probability queries). *)
      Iset.iter
        (fun u -> if u <> s then p.(u) <- Imap.remove s p.(u))
        preds.(s);
      Imap.iter (fun d _ -> preds.(d) <- Iset.remove s preds.(d)) p.(s);
      p.(s) <- Imap.empty;
      alive.(s) <- false
    end
    else begin
      let factor = fr_inv one_minus in
      let out = Imap.remove s p.(s) in
      let r_s = fr_mul factor r.(s) in
      let r_s_zero = fr_is_zero r_s in
      let scaled_out = Imap.map (fun f -> fr_mul factor f) out in
      (* vs per-edge normalized arithmetic: one normalize per scaled
         out-edge, plus the explicit inverse and the r_s product *)
      saved := !saved + Imap.cardinal out + 2;
      Iset.iter
        (fun u ->
           if u <> s then begin
             match Imap.find_opt s p.(u) with
             | None -> ()
             | Some p_us ->
               if not r_s_zero then begin
                 r.(u) <- fr_add r.(u) (fr_mul p_us r_s);
                 saved := !saved + 2
               end;
               Imap.iter
                 (fun v sf ->
                    let contrib = fr_mul p_us sf in
                    p.(u) <-
                      Imap.update v
                        (function
                          | None ->
                            saved := !saved + 1;
                            if fr_is_zero contrib then None else Some contrib
                          | Some g ->
                            saved := !saved + 2;
                            let sum = fr_add g contrib in
                            if fr_is_zero sum then None else Some sum)
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
    end;
    if !saved > 0 then ignore (Atomic.fetch_and_add saved_total !saved : int)
  in
  let succs s = Imap.fold (fun d _ acc -> Iset.add d acc) p.(s) Iset.empty in
  let nbhd s = Iset.add s (Iset.union preds.(s) (succs s)) in
  (* A maximal provably-safe prefix of the sequential schedule, built
     against the CURRENT (pre-batch) arrays.  [touched] = ⋃N(b) over the
     batch; [kill_src]/[kill_dst] collect the only edge endpoints batch
     eliminations can delete (batch members, fill-in sources, fill-in
     targets), for the degree lower bounds. *)
  let build_batch remaining =
    let b1 = pick remaining in
    let batch = ref [ b1 ] in
    let bset = ref (Iset.singleton b1) in
    let touched = ref (nbhd b1) in
    let kill_src = ref (Iset.add b1 preds.(b1)) in
    let kill_dst = ref (Iset.add b1 (succs b1)) in
    let min_deg s =
      let pl =
        Iset.fold
          (fun w acc -> if Iset.mem w !kill_src then acc else acc + 1)
          preds.(s) 0
      in
      let ol =
        Imap.fold
          (fun v _ acc -> if Iset.mem v !kill_dst then acc else acc + 1)
          p.(s) 0
      in
      pl * ol
    in
    let add c =
      batch := c :: !batch;
      bset := Iset.add c !bset;
      touched := Iset.union !touched (nbhd c);
      kill_src := Iset.add c (Iset.union !kill_src preds.(c));
      kill_dst := Iset.add c (Iset.union !kill_dst (succs c))
    in
    let stop = ref false in
    while not !stop do
      let rest = List.filter (fun s -> not (Iset.mem s !bset)) remaining in
      let candidate =
        match order with
        (* fixed-order schedules: the next pick is positional; only the
           disjointness of its neighborhood needs proving *)
        | Ascending -> (match rest with [] -> None | c :: _ -> Some c)
        | Descending -> (
            match rest with [] -> None | _ -> Some (List.hd (List.rev rest)))
        | Min_degree -> (
            match List.filter (fun s -> not (Iset.mem s !touched)) rest with
            | [] -> None  (* no state with a provably exact degree left *)
            | untouched ->
              (* frozen argmin over untouched survivors — their rows and
                 pred-sets are exactly the post-batch ones *)
              let best, best_deg = argmin untouched in
              (* sound only if no touched survivor could beat OR tie it *)
              let doubtful =
                List.exists
                  (fun s -> Iset.mem s !touched && min_deg s <= best_deg)
                  rest
              in
              if doubtful then None else Some best)
      in
      match candidate with
      | Some c when Iset.disjoint (nbhd c) !touched -> add c
      | _ -> stop := true
    done;
    List.rev !batch
  in
  let batched = Parallel.enabled () in
  let rec loop remaining =
    match remaining with
    | [] -> ()
    | _ ->
      let batch = if batched then build_batch remaining else [ pick remaining ] in
      Parallel.run (Array.of_list (List.map (fun s () -> eliminate s) batch));
      let bs = Iset.of_list batch in
      loop (List.filter (fun x -> not (Iset.mem x bs)) remaining)
  in
  loop to_eliminate;
  if Atomic.get saved_total > 0 then
    Metrics.incr ~by:(Atomic.get saved_total) normalize_saved;
  (* E(init) = r(init) / (1 - p(init,init)) *)
  let self = Option.value ~default:fr_zero (Imap.find_opt init p.(init)) in
  let one_minus = fr_add fr_one (fr_neg self) in
  if fr_is_zero one_minus then Ratfun.zero
  else fr_to_ratfun (fr_mul (fr_inv one_minus) r.(init))

(* ------------------------------------------------------------------ *)

let rows_of pdtmc =
  Array.init (Pdtmc.num_states pdtmc) (fun s ->
      List.fold_left
        (fun acc (d, f) -> Imap.add d f acc)
        Imap.empty (Pdtmc.succ pdtmc s))

let check_target n target =
  List.iter
    (fun s ->
       if s < 0 || s >= n then
         invalid_arg (Printf.sprintf "Elimination: target state %d out of range" s))
    target;
  if target = [] then invalid_arg "Elimination: empty target set"

let reachability_probability ?(order = Min_degree) pdtmc ~target =
  let n = Pdtmc.num_states pdtmc in
  check_target n target;
  memoized ~kind:"prob" ~order pdtmc ~target @@ fun () ->
  let init = Pdtmc.init_state pdtmc in
  let tset = Iset.of_list target in
  if Iset.mem init tset then Ratfun.one
  else begin
    let rows = rows_of pdtmc in
    let reach = forward_reachable rows init in
    let can_reach_target = backward_reachable rows tset in
    if not can_reach_target.(init) then Ratfun.zero
    else begin
      (* maybe-states: reachable, can reach target, not target *)
      let active =
        Array.init n (fun s ->
            reach.(s) && can_reach_target.(s) && not (Iset.mem s tset))
      in
      (* r(s) = direct mass into the target set *)
      let rew =
        Array.init n (fun s ->
            if not active.(s) then Ratfun.zero
            else
              Imap.fold
                (fun d f acc ->
                   if Iset.mem d tset then Ratfun.add acc f else acc)
                rows.(s) Ratfun.zero)
      in
      solve ~order ~rows ~rew ~active ~init
    end
  end

let expected_reward ?(order = Min_degree) pdtmc ~target =
  let n = Pdtmc.num_states pdtmc in
  check_target n target;
  memoized ~kind:"rew" ~order pdtmc ~target @@ fun () ->
  let init = Pdtmc.init_state pdtmc in
  let tset = Iset.of_list target in
  if Iset.mem init tset then Ratfun.zero
  else begin
    let rows = rows_of pdtmc in
    let reach = forward_reachable rows init in
    let can_reach_target = backward_reachable rows tset in
    (* Structural almost-sure check: from every reachable state the target
       must remain reachable (for generic parameter values this implies
       probability-1 reachability on finite chains iff no reachable trap
       avoids the target). *)
    Array.iteri
      (fun s r -> if r && not can_reach_target.(s) then raise (Not_almost_sure s))
      reach;
    let active = Array.init n (fun s -> reach.(s) && not (Iset.mem s tset)) in
    let rew =
      Array.init n (fun s ->
          if active.(s) then Pdtmc.reward pdtmc s else Ratfun.zero)
    in
    solve ~order ~rows ~rew ~active ~init
  end
