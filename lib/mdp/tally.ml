type t = { traces : int; transitions : (int * int * int) list }

let limit = 1 lsl 53
let empty = { traces = 0; transitions = [] }

let plus a b =
  if a > limit - b then
    invalid_arg (Printf.sprintf "Tally: count %d + %d exceeds 2^53" a b);
  a + b

let cell_order (s, d, _) (s', d', _) =
  if s <> s' then Int.compare s s' else Int.compare d d'

let make ~traces transitions =
  if traces < 0 then invalid_arg "Tally: negative trace count";
  if traces = 0 && transitions <> [] then
    invalid_arg "Tally: transitions with a trace count of 0";
  if traces > limit then invalid_arg "Tally: trace count exceeds 2^53";
  List.iter
    (fun (s, d, c) ->
       if s < 0 || d < 0 then invalid_arg "Tally: negative state";
       if c <= 0 then invalid_arg "Tally: transition count must be positive";
       if c > limit then invalid_arg "Tally: transition count exceeds 2^53")
    transitions;
  let rec merge = function
    | (s, d, c) :: (s', d', c') :: rest when s = s' && d = d' ->
      merge ((s, d, plus c c') :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  { traces; transitions = merge (List.sort cell_order transitions) }

(* Merge two canonical transition lists. *)
let add a b =
  let rec go xs ys =
    match (xs, ys) with
    | [], r | r, [] -> r
    | ((s, d, c) as x) :: xr, ((_, _, c') as y) :: yr ->
      let k = cell_order x y in
      if k < 0 then x :: go xr ys
      else if k > 0 then y :: go xs yr
      else (s, d, plus c c') :: go xr yr
  in
  { traces = plus a.traces b.traces; transitions = go a.transitions b.transitions }

(* Cells are collected unsorted, with duplicates, and canonicalised once
   by [build]: cheaper than hashing each step for the small chunks a
   watch folds, and no worse than holding the traces for a batch file. *)
type builder = {
  mutable count : int;
  mutable cells : (int * int * int) list;
}

let builder () = { count = 0; cells = [] }

let add_trace b (tr : Trace.t) =
  b.count <- plus b.count 1;
  let rec go = function
    | (st : Trace.step) :: (next :: _ as rest) ->
      b.cells <- (st.state, next.Trace.state, 1) :: b.cells;
      go rest
    | [ last ] -> b.cells <- (last.state, tr.final, 1) :: b.cells
    | [] -> ()
  in
  go tr.steps

let add_tally b t =
  b.count <- plus b.count t.traces;
  b.cells <- List.rev_append t.transitions b.cells

let build b = make ~traces:b.count b.cells

let of_traces traces =
  let b = builder () in
  List.iter (add_trace b) traces;
  build b

let of_groups groups = List.map (fun (g, traces) -> (g, of_traces traces)) groups
