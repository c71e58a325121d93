type t = {
  n : int;
  counts : float array array;
  mutable support_size : int;
  mutable lines : int;
  mutable pending : string;
  mutable groups : (string * Tally.t) list;
      (* first appearance order, the default group first *)
  mutable current : string;
  mutable trace_count : int;
}

type append_result = {
  lines : int;
  new_traces : int;
  support_changed : bool;
}

let create ~n =
  if n <= 0 then invalid_arg "Inc_learn.create: need at least one state";
  {
    n;
    counts = Array.make_matrix n n 0.0;
    support_size = 0;
    lines = 0;
    pending = "";
    groups = [ ("", Tally.empty) ];
    current = "";
    trace_count = 0;
  }

(* Fold complete lines.  The chunk is parsed, range-checked and summed
   into the learner's tallies before anything is assigned, so a malformed
   chunk leaves the learner untouched and the client can fix and resend
   it. *)
let consume (t : t) lines =
  let last_line = t.lines + List.length lines in
  let chunk, current =
    Trace_io.fold_tallies ~n:t.n ~first_line:(t.lines + 1) ~group:t.current
      lines
  in
  let groups =
    List.fold_left
      (fun groups (name, tally, line) ->
         match List.assoc_opt name groups with
         | Some _ when tally.Tally.traces = 0 -> groups
         | Some old ->
           let merged =
             try Tally.add old tally
             with Invalid_argument msg ->
               raise (Trace_io.Parse_error (Printf.sprintf "line %d: %s" line msg))
           in
           List.map (fun ((g, _) as e) -> if g = name then (g, merged) else e) groups
         | None -> groups @ [ (name, tally) ])
      t.groups chunk
  in
  let new_traces = ref 0 in
  let support_before = t.support_size in
  List.iter
    (fun (_, (tally : Tally.t), _) ->
       new_traces := !new_traces + tally.traces;
       List.iter
         (fun (s, d, c) ->
            let row = t.counts.(s) in
            if row.(d) = 0.0 then t.support_size <- t.support_size + 1;
            row.(d) <- row.(d) +. float_of_int c)
         tally.transitions)
    chunk;
  t.groups <- groups;
  t.current <- current;
  t.trace_count <- t.trace_count + !new_traces;
  t.lines <- last_line;
  {
    lines = List.length lines;
    new_traces = !new_traces;
    support_changed = t.support_size > support_before;
  }

let append t chunk =
  let text = t.pending ^ chunk in
  match String.rindex_opt text '\n' with
  | None ->
    t.pending <- text;
    { lines = 0; new_traces = 0; support_changed = false }
  | Some j ->
    let r = consume t (String.split_on_char '\n' (String.sub text 0 j)) in
    t.pending <- String.sub text (j + 1) (String.length text - j - 1);
    r

let flush t =
  if t.pending = "" then { lines = 0; new_traces = 0; support_changed = false }
  else begin
    let r = consume t [ t.pending ] in
    t.pending <- "";
    r
  end

let num_states t = t.n
let counts (t : t) = t.counts
let lines_consumed (t : t) = t.lines
let pending_bytes t = String.length t.pending
let trace_count t = t.trace_count
let support_size t = t.support_size

let support t =
  let edges = ref [] in
  for s = t.n - 1 downto 0 do
    for d = t.n - 1 downto 0 do
      if t.counts.(s).(d) > 0.0 then edges := (s, d) :: !edges
    done
  done;
  !edges

let tallies t =
  List.filter (fun (name, (tl : Tally.t)) -> name <> "" || tl.traces > 0) t.groups
