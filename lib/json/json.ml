type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* Far above anything the repo emits (wire envelopes and stats nest 4-5
   deep), far below the depth at which recursive descent gets slow. *)
let max_depth = 512

(* ---------------------------- output buffer ------------------------ *)

(* A growable byte window with a consumable front — the server's
   per-connection write queue.  Frames are rendered straight into it
   ([Wire.frame_into]) and [Unix.write] reads straight out of it via
   [peek]/[consume], so a reply body is never materialised as an
   intermediate frame string.  The live window is buf.[head..head+len);
   appends go through [ensure], which compacts (slides the window to the
   front) before growing.  It lives here, next to [escape_into] and
   [render_into], so the per-byte render path stays in one compilation
   unit. *)
module Obuf = struct
  type t = { mutable buf : Bytes.t; mutable head : int; mutable len : int }

  let create ?(initial = 4096) () =
    { buf = Bytes.create (max 16 initial); head = 0; len = 0 }

  let length t = t.len

  let clear t =
    t.head <- 0;
    t.len <- 0

  let ensure t n =
    if t.head > 0 && t.head + t.len + n > Bytes.length t.buf then begin
      Bytes.blit t.buf t.head t.buf 0 t.len;
      t.head <- 0
    end;
    if t.len + n > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while t.len + n > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.buf t.head nb 0 t.len;
      t.buf <- nb;
      t.head <- 0
    end

  let add_char t c =
    ensure t 1;
    Bytes.unsafe_set t.buf (t.head + t.len) c;
    t.len <- t.len + 1

  let add_string t s =
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf (t.head + t.len) n;
    t.len <- t.len + n

  let add_substring t s off n =
    ensure t n;
    Bytes.blit_string s off t.buf (t.head + t.len) n;
    t.len <- t.len + n

  (* Marks are window-relative offsets, not raw positions: [ensure] may
     compact or regrow (moving [head]) between reserve and patch.  A mark
     is only valid until the next [consume]/[clear]. *)
  let reserve_u32 t =
    let mark = t.len in
    ensure t 4;
    Bytes.set_int32_be t.buf (t.head + t.len) 0l;
    t.len <- t.len + 4;
    mark

  let patch_u32 t mark v =
    if mark < 0 || mark + 4 > t.len then invalid_arg "Json.Obuf.patch_u32";
    Bytes.set_int32_be t.buf (t.head + mark) (Int32.of_int v)

  let contents t = Bytes.sub_string t.buf t.head t.len

  let peek t = (t.buf, t.head, t.len)

  let consume t n =
    if n < 0 || n > t.len then invalid_arg "Json.Obuf.consume";
    t.head <- t.head + n;
    t.len <- t.len - n;
    if t.len = 0 then t.head <- 0
end

(* ------------------------------ render ----------------------------- *)

(* Escape by blitting runs of clean characters rather than appending one
   char at a time — frames carry multi-KB model texts, and the serving
   core renders one on every submit round-trip. *)
let escape_into ob s =
  let n = String.length s in
  (* unsafe_get: [i] is always < [n] here, and this loop visits every
     byte of every model text on the wire *)
  let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20 in
  let rec go start i =
    if i >= n then (if i > start then Obuf.add_substring ob s start (i - start))
    else if not (needs_escape (String.unsafe_get s i)) then go start (i + 1)
    else begin
      if i > start then Obuf.add_substring ob s start (i - start);
      (match s.[i] with
       | '"' -> Obuf.add_string ob "\\\""
       | '\\' -> Obuf.add_string ob "\\\\"
       | '\n' -> Obuf.add_string ob "\\n"
       | '\r' -> Obuf.add_string ob "\\r"
       | '\t' -> Obuf.add_string ob "\\t"
       | c -> Obuf.add_string ob (Printf.sprintf "\\u%04x" (Char.code c)));
      go (i + 1) (i + 1)
    end
  in
  go 0 0

let rec render_into ob = function
  | Null -> Obuf.add_string ob "null"
  | Bool b -> Obuf.add_string ob (if b then "true" else "false")
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      (* string_of_int, not sprintf "%.0f": ids and sizes render on every
         frame, and format-string interpretation costs ~1us a call *)
      Obuf.add_string ob (string_of_int (int_of_float f))
    else if Float.is_finite f then
      Obuf.add_string ob (Printf.sprintf "%.17g" f)
    else Obuf.add_string ob "null"
  | Str s ->
    Obuf.add_char ob '"';
    escape_into ob s;
    Obuf.add_char ob '"'
  | Arr xs ->
    Obuf.add_char ob '[';
    List.iteri
      (fun i x ->
         if i > 0 then Obuf.add_char ob ',';
         render_into ob x)
      xs;
    Obuf.add_char ob ']'
  | Obj fields ->
    Obuf.add_char ob '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Obuf.add_char ob ',';
         Obuf.add_char ob '"';
         escape_into ob k;
         Obuf.add_string ob "\":";
         render_into ob v)
      fields;
    Obuf.add_char ob '}'

let render j =
  let ob = Obuf.create ~initial:256 () in
  render_into ob j;
  Obuf.contents ob

(* ------------------------------ parse ------------------------------ *)

(* A single-pass recursive-descent parser.  Errors carry the byte offset
   so a corrupt frame is diagnosable from the error message alone. *)
let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = fail "JSON: %s at byte %d" msg !pos in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let utf8_encode buf code =
    let byte b = Buffer.add_char buf (Char.unsafe_chr b) in
    if code < 0x80 then byte code
    else if code < 0x800 then begin
      byte (0xC0 lor (code lsr 6));
      byte (0x80 lor (code land 0x3F))
    end
    else if code < 0x10000 then begin
      byte (0xE0 lor (code lsr 12));
      byte (0x80 lor ((code lsr 6) land 0x3F));
      byte (0x80 lor (code land 0x3F))
    end
    else begin
      byte (0xF0 lor (code lsr 18));
      byte (0x80 lor ((code lsr 12) land 0x3F));
      byte (0x80 lor ((code lsr 6) land 0x3F));
      byte (0x80 lor (code land 0x3F))
    end
  in
  (* the four hex digits after a [\u]; [int_of_string] would also take
     underscores and signs *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail "bad \\u escape"
    in
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      code := (!code lsl 4) lor digit s.[i]
    done;
    pos := !pos + 4;
    !code
  in
  (* A UTF-16 surrogate pair ([\uD83D\uDE00], as Python's json.dumps
     writes non-BMP characters) is one code point, so one 4-byte UTF-8
     sequence; a lone surrogate has no UTF-8 encoding at all. *)
  let unicode_escape () =
    let code = hex4 () in
    if code >= 0xDC00 && code <= 0xDFFF then fail "lone low surrogate"
    else if code >= 0xD800 && code <= 0xDBFF then begin
      if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
        fail "lone high surrogate";
      pos := !pos + 2;
      let low = hex4 () in
      if low < 0xDC00 || low > 0xDFFF then fail "lone high surrogate";
      0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
    end
    else code
  in
  (* Runs of plain characters are scanned and blitted in one go; a
     string with no escapes at all is a single [String.sub].  Model
     texts arrive as one multi-KB string per submit, so this is the
     decoder's hottest path. *)
  let scan_plain () =
    (* unsafe_get under the [i < n] guard; a local recursion on an
       unboxed int, not a ref, so the scan is a few instructions per
       byte of model text *)
    let rec scan i =
      if i >= n then i
      else
        let c = String.unsafe_get s i in
        if c <> '"' && c <> '\\' && Char.code c >= 0x20 then scan (i + 1)
        else i
    in
    scan !pos
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = scan_plain () in
    if stop < n && s.[stop] = '"' then begin
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      (* sized to the rest of the input, not the first clean run: an
         escaped model text fills it in one pass with no regrows *)
      let buf = Buffer.create (n - start + 16) in
      Buffer.add_substring buf s start (stop - start);
      pos := stop;
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' ->
          advance ();
          Buffer.contents buf
        | Some '\\' ->
          advance ();
          (match peek () with
           | Some '"' -> Buffer.add_char buf '"'; advance ()
           | Some '\\' -> Buffer.add_char buf '\\'; advance ()
           | Some '/' -> Buffer.add_char buf '/'; advance ()
           | Some 'b' -> Buffer.add_char buf '\b'; advance ()
           | Some 'f' -> Buffer.add_char buf '\012'; advance ()
           | Some 'n' -> Buffer.add_char buf '\n'; advance ()
           | Some 'r' -> Buffer.add_char buf '\r'; advance ()
           | Some 't' -> Buffer.add_char buf '\t'; advance ()
           | Some 'u' ->
             advance ();
             utf8_encode buf (unicode_escape ())
           | _ -> fail "bad escape");
          loop ()
        | Some c when Char.code c < 0x20 -> fail "raw control char in string"
        | Some _ ->
          let st = !pos in
          let stop = scan_plain () in
          Buffer.add_substring buf s st (stop - st);
          pos := stop;
          loop ()
      in
      loop ()
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let slice = String.sub s start (!pos - start) in
    match float_of_string_opt slice with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" slice)
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some ('[' | '{') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---------------------------- accessors --------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get key j =
  match member key j with
  | Some v -> v
  | None -> fail "missing field %S" key

let opt key j =
  match member key j with Some Null | None -> None | some -> some

let to_str field = function
  | Str s -> s
  | _ -> fail "field %S: expected a string" field

let to_num field = function
  | Num f -> f
  | _ -> fail "field %S: expected a number" field

let to_int field j =
  let f = to_num field j in
  if Float.is_integer f then int_of_float f
  else fail "field %S: expected an integer" field

let to_bool field = function
  | Bool b -> b
  | _ -> fail "field %S: expected a bool" field

let to_arr field = function
  | Arr xs -> xs
  | _ -> fail "field %S: expected an array" field

let str_list field j = List.map (to_str field) (to_arr field j)
let num_list field j = List.map (to_num field) (to_arr field j)
