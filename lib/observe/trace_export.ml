exception Parse_error of string

(* ------------------------------ emit ------------------------------ *)

(* Hand-laid rather than a rendered [Json.t]: timestamps keep a fixed
   [%.6f], which the codec's shortest-round-trip numbers would not. *)
let span_to_json (s : Trace_span.t) =
  let ob = Json.Obuf.create ~initial:192 () in
  let add fmt = Printf.ksprintf (Json.Obuf.add_string ob) fmt in
  let str v =
    Json.Obuf.add_char ob '"';
    Json.escape_into ob v;
    Json.Obuf.add_char ob '"'
  in
  add "{\"id\":%d,\"parent\":%s,\"name\":" s.Trace_span.id
    (match s.Trace_span.parent with
     | None -> "null"
     | Some p -> string_of_int p);
  str s.Trace_span.name;
  add ",\"job\":";
  (match s.Trace_span.job with None -> add "null" | Some j -> str j);
  add ",\"domain\":%d" s.Trace_span.domain;
  add ",\"wall_s\":%.6f,\"rel_s\":%.6f,\"dur_s\":%.6f" s.Trace_span.wall_s
    s.Trace_span.rel_s s.Trace_span.dur_s;
  (match s.Trace_span.status with
   | Trace_span.Ok -> add ",\"status\":\"ok\""
   | Trace_span.Error msg ->
     add ",\"status\":\"error\",\"error\":";
     str msg);
  add ",\"attrs\":{";
  List.iteri
    (fun i (k, v) ->
       if i > 0 then Json.Obuf.add_char ob ',';
       str k;
       Json.Obuf.add_char ob ':';
       str v)
    s.Trace_span.attrs;
  add "}}";
  Json.Obuf.contents ob

let to_jsonl spans =
  String.concat "" (List.map (fun s -> span_to_json s ^ "\n") spans)

(* ------------------------------ parse ------------------------------ *)

let span_of_json j =
  let open Json in
  let num name = to_num name (get name j) in
  let int name = int_of_float (num name) in
  let opt_str name = Option.map (to_str name) (opt name j) in
  let status =
    match to_str "status" (get "status" j) with
    | "ok" -> Trace_span.Ok
    | "error" -> Trace_span.Error (Option.value ~default:"" (opt_str "error"))
    | s -> fail "bad status %S" s
  in
  let attrs =
    match opt "attrs" j with
    | Some (Obj kvs) -> List.map (fun (k, v) -> (k, to_str k v)) kvs
    | None -> []
    | Some _ -> fail "field \"attrs\": expected an object"
  in
  {
    Trace_span.id = int "id";
    parent = Option.map (fun p -> int_of_float (to_num "parent" p)) (opt "parent" j);
    name = to_str "name" (get "name" j);
    job = opt_str "job";
    domain = int "domain";
    wall_s = num "wall_s";
    rel_s = num "rel_s";
    dur_s = num "dur_s";
    attrs;
    status;
  }

let of_jsonl text =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun i line ->
          if String.trim line = "" then []
          else
            try [ span_of_json (Json.parse line) ] with
            | Json.Error msg ->
              raise (Parse_error (Printf.sprintf "line %d: %s" (i + 1) msg)))
       lines)

(* ------------------------------ render ------------------------------ *)

let pretty_dur d =
  if d <= 0.0 then "·"
  else if d >= 1.0 then Printf.sprintf "%.3f s" d
  else if d >= 1e-3 then Printf.sprintf "%.3f ms" (d *. 1e3)
  else Printf.sprintf "%.1f us" (d *. 1e6)

let span_line (s : Trace_span.t) =
  let job =
    match s.Trace_span.job with
    | Some j -> Printf.sprintf " [job %s]" j
    | None -> ""
  in
  let attrs =
    match s.Trace_span.attrs with
    | [] -> ""
    | kvs ->
      Printf.sprintf " (%s)"
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs))
  in
  let err =
    match s.Trace_span.status with
    | Trace_span.Ok -> ""
    | Trace_span.Error msg -> Printf.sprintf "  ERROR: %s" msg
  in
  Printf.sprintf "%s%s%s  %s%s" s.Trace_span.name job attrs
    (pretty_dur s.Trace_span.dur_s)
    err

let tree spans =
  let order (a : Trace_span.t) (b : Trace_span.t) =
    match compare a.Trace_span.rel_s b.Trace_span.rel_s with
    | 0 -> compare a.Trace_span.id b.Trace_span.id
    | c -> c
  in
  let spans = List.sort order spans in
  let present = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace present s.Trace_span.id ()) spans;
  let children = Hashtbl.create 64 in
  let roots =
    List.filter
      (fun (s : Trace_span.t) ->
         match s.Trace_span.parent with
         | Some p when Hashtbl.mem present p ->
           Hashtbl.replace children p
             (s
              :: (Option.value ~default:[] (Hashtbl.find_opt children p)));
           false
         | _ -> true)
      spans
  in
  let buf = Buffer.create 1024 in
  let rec render prefix is_last (s : Trace_span.t) =
    Buffer.add_string buf prefix;
    Buffer.add_string buf (if is_last then "`- " else "|- ");
    Buffer.add_string buf (span_line s);
    Buffer.add_char buf '\n';
    let kids =
      List.sort order
        (Option.value ~default:[] (Hashtbl.find_opt children s.Trace_span.id))
    in
    let child_prefix = prefix ^ (if is_last then "   " else "|  ") in
    List.iteri
      (fun i k -> render child_prefix (i = List.length kids - 1) k)
      kids
  in
  List.iteri
    (fun i r ->
       (* roots are rendered flush-left, each its own tree *)
       Buffer.add_string buf (span_line r);
       Buffer.add_char buf '\n';
       let kids =
         List.sort order
           (Option.value ~default:[]
              (Hashtbl.find_opt children r.Trace_span.id))
       in
       List.iteri
         (fun j k -> render "" (j = List.length kids - 1) k)
         kids;
       if i < List.length roots - 1 then Buffer.add_char buf '\n')
    roots;
  Buffer.contents buf

let summary spans =
  let buf = Buffer.create 2048 in
  let domains =
    List.sort_uniq compare
      (List.map (fun (s : Trace_span.t) -> s.Trace_span.domain) spans)
  in
  let span_of_max =
    List.fold_left
      (fun acc (s : Trace_span.t) ->
         Float.max acc (s.Trace_span.rel_s +. s.Trace_span.dur_s))
      0.0 spans
  in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d span(s), %d domain(s), %s wall\n\n"
       (List.length spans) (List.length domains)
       (pretty_dur span_of_max));
  Buffer.add_string buf (tree spans);
  (* aggregate per span name *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace_span.t) ->
       let count, total, mx, errs =
         Option.value ~default:(0, 0.0, 0.0, 0)
           (Hashtbl.find_opt tbl s.Trace_span.name)
       in
       Hashtbl.replace tbl s.Trace_span.name
         ( count + 1,
           total +. s.Trace_span.dur_s,
           Float.max mx s.Trace_span.dur_s,
           errs
           + (match s.Trace_span.status with
              | Trace_span.Ok -> 0
              | Trace_span.Error _ -> 1) ))
    spans;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let rows =
    List.sort
      (fun (_, (_, ta, _, _)) (_, (_, tb, _, _)) -> compare tb ta)
      rows
  in
  Buffer.add_string buf
    (Printf.sprintf "\n%-28s %6s %12s %12s %12s %7s\n" "span" "count" "total"
       "mean" "max" "errors");
  List.iter
    (fun (name, (count, total, mx, errs)) ->
       Buffer.add_string buf
         (Printf.sprintf "%-28s %6d %12s %12s %12s %7d\n" name count
            (pretty_dur total)
            (pretty_dur (total /. float_of_int count))
            (pretty_dur mx) errs))
    rows;
  Buffer.contents buf
