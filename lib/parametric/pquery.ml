type query = {
  value : Ratfun.t;
  cmp : Pctl.cmp;
  bound : float;
  eval : (string -> float) -> float;
  arena : Arena.t;
}

exception Unsupported of string

let rec propositional_sat pdtmc (f : Pctl.state_formula) =
  let n = Pdtmc.num_states pdtmc in
  match f with
  | True -> Array.make n true
  | False -> Array.make n false
  | Prop p ->
    let marked = Array.make n false in
    List.iter (fun s -> marked.(s) <- true) (Pdtmc.states_with_label pdtmc p);
    marked
  | Not g -> Array.map not (propositional_sat pdtmc g)
  | And (a, b) ->
    let sa = propositional_sat pdtmc a and sb = propositional_sat pdtmc b in
    Array.init n (fun s -> sa.(s) && sb.(s))
  | Or (a, b) ->
    let sa = propositional_sat pdtmc a and sb = propositional_sat pdtmc b in
    Array.init n (fun s -> sa.(s) || sb.(s))
  | Implies (a, b) ->
    let sa = propositional_sat pdtmc a and sb = propositional_sat pdtmc b in
    Array.init n (fun s -> (not sa.(s)) || sb.(s))
  | Prob _ | Reward _ ->
    raise
      (Unsupported
         "nested P/R operators cannot appear inside a parametric query")

let states_of mask =
  let acc = ref [] in
  Array.iteri (fun s b -> if b then acc := s :: !acc) mask;
  List.rev !acc

(* Rebuild the chain with the given states turned into absorbing
   self-loops (used to encode Until as reachability). *)
let make_absorbing pdtmc mask =
  let n = Pdtmc.num_states pdtmc in
  let transitions =
    List.concat
      (List.init n (fun s ->
           if mask.(s) then [ (s, s, Ratfun.one) ]
           else List.map (fun (d, f) -> (s, d, f)) (Pdtmc.succ pdtmc s)))
  in
  Pdtmc.make ~n ~init:(Pdtmc.init_state pdtmc) ~transitions ()

(* Symbolic h-step iteration for bounded operators. *)
let bounded_iteration pdtmc ~allowed ~target h =
  let n = Pdtmc.num_states pdtmc in
  let x =
    ref (Array.init n (fun s -> if target.(s) then Ratfun.one else Ratfun.zero))
  in
  for _ = 1 to h do
    x :=
      Array.init n (fun s ->
          if target.(s) then Ratfun.one
          else if not allowed.(s) then Ratfun.zero
          else
            List.fold_left
              (fun acc (d, p) -> Ratfun.add acc (Ratfun.mul p !x.(d)))
              Ratfun.zero (Pdtmc.succ pdtmc s))
  done;
  !x.(Pdtmc.init_state pdtmc)

let rec path_probability pdtmc (psi : Pctl.path_formula) =
  let n = Pdtmc.num_states pdtmc in
  let all = Array.make n true in
  match psi with
  | Next f ->
    let target = propositional_sat pdtmc f in
    List.fold_left
      (fun acc (d, p) -> if target.(d) then Ratfun.add acc p else acc)
      Ratfun.zero
      (Pdtmc.succ pdtmc (Pdtmc.init_state pdtmc))
  | Eventually f ->
    let target = states_of (propositional_sat pdtmc f) in
    if target = [] then Ratfun.zero
    else Elimination.reachability_probability pdtmc ~target
  | Until (f1, f2) ->
    let s1 = propositional_sat pdtmc f1 and s2 = propositional_sat pdtmc f2 in
    let dead = Array.init n (fun s -> (not s1.(s)) && not s2.(s)) in
    let chain = make_absorbing pdtmc dead in
    let target = states_of s2 in
    if target = [] then Ratfun.zero
    else Elimination.reachability_probability chain ~target
  | Bounded_eventually (f, h) ->
    bounded_iteration pdtmc ~allowed:all ~target:(propositional_sat pdtmc f) h
  | Bounded_until (f1, f2, h) ->
    bounded_iteration pdtmc
      ~allowed:(propositional_sat pdtmc f1)
      ~target:(propositional_sat pdtmc f2)
      h
  | Globally f ->
    Ratfun.sub Ratfun.one (path_probability pdtmc (Eventually (Pctl.Not f)))
  | Bounded_globally (f, h) ->
    Ratfun.sub Ratfun.one
      (path_probability pdtmc (Bounded_eventually (Pctl.Not f, h)))

let reachability_reward pdtmc f =
  let target = states_of (propositional_sat pdtmc f) in
  if target = [] then
    raise (Unsupported "reward query with empty target set is infinite")
  else Elimination.expected_reward pdtmc ~target

(* Arena compilations of query values: one per [of_formula] the memo does
   not answer, plus one per [compile_value]/[compile_violation] whose
   variable order differs from the query's own. *)
let compiles =
  Metrics.counter "tml_arena_compiles_total"
    ~help:
      "Arena compilations of symbolic query values (Pquery.of_formula, \
       compile_value, compile_violation)"

let compile ~vars value =
  Metrics.incr compiles;
  Arena.compile ~vars value

(* ------------------------------------------------------------------ *)
(* Memo hook: an installable cache for compiled query values.  The      *)
(* runtime layer installs a bounded, thread-safe cache here so that     *)
(* repeated queries on structurally identical chains skip elimination   *)
(* and compilation entirely.  The hook receives a structural key and a  *)
(* thunk computing the result; with no hook installed the thunk runs    *)
(* directly.                                                            *)
(* ------------------------------------------------------------------ *)

type memo =
  key:string -> compute:(unit -> Ratfun.t * Arena.t) -> Ratfun.t * Arena.t

let memo_hook : memo option Atomic.t = Atomic.make None
let set_memo m = Atomic.set memo_hook m

let of_formula pdtmc (f : Pctl.state_formula) =
  let cmp, bound, kind, value =
    match f with
    | Prob (cmp, bound, psi) ->
      ( cmp, bound, "P:" ^ Pctl.path_to_string psi,
        fun () -> path_probability pdtmc psi )
    | Reward (cmp, bound, g) ->
      ( cmp, bound, "R:" ^ Pctl.to_string g,
        fun () -> reachability_reward pdtmc g )
    | _ ->
      raise
        (Unsupported
           "repairable properties must be a single top-level P[...] or \
            R[...] operator")
  in
  let compute () =
    let v = value () in
    (v, compile ~vars:(Ratfun.vars v) v)
  in
  let value, arena =
    match Atomic.get memo_hook with
    | None -> compute ()
    | Some memo ->
      memo ~key:(kind ^ ":" ^ Pdtmc.digest pdtmc) ~compute
  in
  { value; cmp; bound; eval = Arena.eval_env arena; arena }

let strict_margin = 1e-9

let violation_of cmp bound margin v =
  match cmp with
  | Pctl.Le -> v -. bound +. margin
  | Pctl.Lt -> v -. bound +. margin +. strict_margin
  | Pctl.Ge -> bound -. v +. margin
  | Pctl.Gt -> bound -. v +. margin +. strict_margin

let constraint_violation ?(margin = 0.0) q env =
  violation_of q.cmp q.bound margin (q.eval env)

(* The query's own arena when it was compiled in the requested order. *)
let arena_for q ~vars =
  if Array.to_list (Arena.vars q.arena) = vars then q.arena
  else compile ~vars q.value

let compile_value q ~vars =
  let a = arena_for q ~vars in
  fun x -> Arena.eval a x

let compile_violation ?(margin = 0.0) q ~vars =
  let a = arena_for q ~vars in
  let cmp = q.cmp and bound = q.bound in
  fun x -> violation_of cmp bound margin (Arena.eval a x)
