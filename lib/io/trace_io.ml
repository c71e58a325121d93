exception Parse_error of string

let fail lineno msg =
  raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg))

let parse_token lineno tok =
  match String.split_on_char ',' tok with
  | [ s ] -> (
      match int_of_string_opt s with
      | Some v -> (v, "")
      | None -> fail lineno (Printf.sprintf "expected a state, got %S" s))
  | [ s; a ] -> (
      match int_of_string_opt s with
      | Some v when a <> "" -> (v, a)
      | _ -> fail lineno (Printf.sprintf "bad state,action token %S" tok))
  | _ -> fail lineno (Printf.sprintf "bad token %S" tok)

let parse_trace lineno tokens =
  let pairs = List.map (parse_token lineno) tokens in
  match List.rev pairs with
  | [] -> fail lineno "empty trace"
  | (final, final_action) :: rev_steps ->
    if final_action <> "" then
      fail lineno "the final state must not carry an action";
    Trace.make (List.rev rev_steps) final

(* A tally count: plain decimal digits only, so "-3", "1.5", "0x10" and
   "1_000" are all rejected, and so is a count too large for an int. *)
let parse_count lineno tok =
  let digits = tok <> "" && String.for_all (fun c -> c >= '0' && c <= '9') tok in
  match (digits, int_of_string_opt tok) with
  | true, Some v -> v
  | true, None -> fail lineno (Printf.sprintf "count %s overflows" tok)
  | false, _ ->
    fail lineno (Printf.sprintf "expected a non-negative integer, got %S" tok)

let parse_tally lineno = function
  | [] -> fail lineno "tally needs a trace count"
  | traces :: cells ->
    let traces = parse_count lineno traces in
    let cell tok =
      match String.split_on_char ':' tok with
      | [ s; d; c ] ->
        (parse_count lineno s, parse_count lineno d, parse_count lineno c)
      | _ -> fail lineno (Printf.sprintf "bad transition %S (want SRC:DST:COUNT)" tok)
    in
    (try Tally.make ~traces (List.map cell cells)
     with Invalid_argument msg -> fail lineno msg)

type line = Blank | Group of string | Trace_line of Trace.t | Tally_line of Tally.t

let parse_line ~lineno line =
  let line =
    match String.index_opt line '#' with
    | Some j -> String.sub line 0 j
    | None -> line
  in
  let tokens =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | [] -> Blank
  | [ "group"; name ] -> Group name
  | "group" :: _ -> fail lineno "group takes exactly one name"
  | "tally" :: rest -> Tally_line (parse_tally lineno rest)
  | tokens -> Trace_line (parse_trace lineno tokens)

(* Walk [lines] from group [group], folding each trace or tally line into
   its group's accumulator ([fresh] makes one, [add] folds into it).
   Groups come back in order of first appearance, [group] first, together
   with the group in effect after the last line. *)
let walk ~first_line ~group ~fresh ~add lines =
  let groups = ref [ (group, fresh ()) ] in
  let current = ref group in
  List.iteri
    (fun i line ->
       let lineno = first_line + i in
       match parse_line ~lineno line with
       | Blank -> ()
       | Group name ->
         if not (List.mem_assoc name !groups) then
           groups := !groups @ [ (name, fresh ()) ];
         current := name
       | (Trace_line _ | Tally_line _) as l ->
         add lineno (List.assoc !current !groups) l)
    lines;
  (!groups, !current)

let lines_of text = String.split_on_char '\n' text

let parse ?(first_line = 1) text =
  let add lineno r = function
    | Trace_line tr -> r := tr :: !r
    | _ -> fail lineno "a tally line has no trace form"
  in
  let groups, _ =
    walk ~first_line ~group:"" ~fresh:(fun () -> ref []) ~add (lines_of text)
  in
  List.filter_map
    (fun (name, r) ->
       match List.rev !r with
       | [] when name = "" -> None (* drop an unused default group *)
       | traces -> Some (name, traces))
    groups

let fold_tallies ~n ~first_line ~group lines =
  let in_range lineno s =
    if s < 0 || s >= n then
      fail lineno (Printf.sprintf "state %d out of range [0,%d)" s n)
  in
  (* a summed cell passes 2^53 only when its group is built, so each
     group remembers the last line that added data to it *)
  let add lineno (b, last) l =
    last := lineno;
    try
      match l with
      | Trace_line tr ->
        List.iter (in_range lineno) (Trace.states tr);
        Tally.add_trace b tr
      | Tally_line t ->
        List.iter
          (fun (s, d, _) -> in_range lineno s; in_range lineno d)
          t.Tally.transitions;
        Tally.add_tally b t
      | Blank | Group _ -> ()
    with Invalid_argument msg -> fail lineno msg
  in
  let fresh () = (Tally.builder (), ref first_line) in
  let groups, current = walk ~first_line ~group ~fresh ~add lines in
  let build (name, (b, last)) =
    try (name, Tally.build b, !last) with Invalid_argument msg -> fail !last msg
  in
  (List.map build groups, current)

let parse_tallies ~n text =
  fst (fold_tallies ~n ~first_line:1 ~group:"" (lines_of text))
  |> List.filter_map (fun (name, t, _) ->
      if name <> "" || t.Tally.traces > 0 then Some (name, t) else None)

let of_file ~n path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_tallies ~n text

let add_group_line buf name =
  if name <> "" then Buffer.add_string buf (Printf.sprintf "group %s\n" name)

let to_string groups =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, traces) ->
       add_group_line buf name;
       List.iter
         (fun tr ->
            let steps =
              List.map
                (fun (s, a) ->
                   if a = "" then string_of_int s else Printf.sprintf "%d,%s" s a)
                (Trace.state_actions tr)
            in
            Buffer.add_string buf
              (String.concat " " (steps @ [ string_of_int tr.Trace.final ]));
            Buffer.add_char buf '\n')
         traces)
    groups;
  Buffer.contents buf

let tallies_to_string groups =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, (t : Tally.t)) ->
       add_group_line buf name;
       if t.traces > 0 then begin
         Buffer.add_string buf (Printf.sprintf "tally %d" t.traces);
         List.iter
           (fun (s, d, c) -> Buffer.add_string buf (Printf.sprintf " %d:%d:%d" s d c))
           t.transitions;
         Buffer.add_char buf '\n'
       end)
    groups;
  Buffer.contents buf
