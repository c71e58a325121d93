module Imap = Map.Make (Int)
module Smap = Map.Make (String)

type t = {
  n : int;
  init : int;
  rows : Ratfun.t Imap.t array;
  preds : int list array;
  label_map : int list Smap.t;
  rewards : Ratfun.t array;
}

let check_state n what s =
  if s < 0 || s >= n then
    invalid_arg (Printf.sprintf "Pdtmc: %s state %d out of range [0,%d)" what s n)

let compute_preds n rows =
  let preds = Array.make n [] in
  Array.iteri
    (fun s row -> Imap.iter (fun d _ -> preds.(d) <- s :: preds.(d)) row)
    rows;
  Array.map (List.sort_uniq Int.compare) preds

let validate_rows rows =
  Array.iteri
    (fun s row ->
       let total =
         Imap.fold (fun _ f acc -> Ratfun.add acc f) row Ratfun.zero
       in
       if not (Ratfun.equal total Ratfun.one) then
         invalid_arg
           (Printf.sprintf "Pdtmc: row %d sums to %s, expected 1" s
              (Ratfun.to_string total)))
    rows

let make ~n ~init ~transitions ?(labels = []) ?rewards () =
  if n <= 0 then invalid_arg "Pdtmc: need at least one state";
  check_state n "initial" init;
  let rows = Array.make n Imap.empty in
  List.iter
    (fun (src, dst, f) ->
       check_state n "source" src;
       check_state n "target" dst;
       if not (Ratfun.is_zero f) then begin
         if Imap.mem dst rows.(src) then
           invalid_arg (Printf.sprintf "Pdtmc: duplicate edge %d->%d" src dst);
         rows.(src) <- Imap.add dst f rows.(src)
       end)
    transitions;
  validate_rows rows;
  let label_map =
    List.fold_left
      (fun acc (name, states) ->
         List.iter (check_state n ("label " ^ name)) states;
         let prev = Option.value ~default:[] (Smap.find_opt name acc) in
         Smap.add name (List.sort_uniq Int.compare (states @ prev)) acc)
      Smap.empty labels
  in
  let rewards =
    match rewards with
    | None -> Array.make n Ratfun.zero
    | Some r ->
      if Array.length r <> n then invalid_arg "Pdtmc: reward array wrong length";
      Array.copy r
  in
  { n; init; rows; preds = compute_preds n rows; label_map; rewards }

let of_dtmc dtmc =
  let n = Dtmc.num_states dtmc in
  let transitions =
    List.concat
      (List.init n (fun s ->
           (* Lift to exact rationals, then renormalise the row exactly —
              floats like 0.3 + 0.7 are not exactly 1 as dyadics. *)
           let row = Dtmc.succ dtmc s in
           let exact = List.map (fun (d, p) -> (d, Ratio.of_float p)) row in
           let total =
             List.fold_left (fun acc (_, q) -> Ratio.add acc q) Ratio.zero exact
           in
           List.map
             (fun (d, q) -> (s, d, Ratfun.const (Ratio.div q total)))
             exact))
  in
  let labels =
    List.map (fun l -> (l, Dtmc.states_with_label dtmc l)) (Dtmc.labels dtmc)
  in
  let rewards =
    Array.init n (fun s -> Ratfun.const (Ratio.of_float (Dtmc.reward dtmc s)))
  in
  make ~n ~init:(Dtmc.init_state dtmc) ~transitions ~labels ~rewards ()

let num_states t = t.n
let init_state t = t.init

let succ t s =
  check_state t.n "query" s;
  Imap.bindings t.rows.(s)

let pred t s = check_state t.n "query" s; t.preds.(s)
let reward t s = check_state t.n "query" s; t.rewards.(s)

let params t =
  let module Sset = Set.Make (String) in
  let acc = ref Sset.empty in
  Array.iter
    (fun row ->
       Imap.iter
         (fun _ f -> List.iter (fun v -> acc := Sset.add v !acc) (Ratfun.vars f))
         row)
    t.rows;
  Array.iter
    (fun f -> List.iter (fun v -> acc := Sset.add v !acc) (Ratfun.vars f))
    t.rewards;
  Sset.elements !acc

let states_with_label t name =
  Option.value ~default:[] (Smap.find_opt name t.label_map)

let map_transitions t f =
  let transitions =
    List.concat
      (List.init t.n (fun s ->
           List.map (fun (d, g) -> (s, d, f s d g)) (Imap.bindings t.rows.(s))))
  in
  let labels = Smap.bindings t.label_map in
  make ~n:t.n ~init:t.init ~transitions ~labels ~rewards:t.rewards ()

let instantiate_exact t env =
  List.concat
    (List.init t.n (fun s ->
         List.map
           (fun (d, f) -> (s, d, Ratfun.eval env f))
           (Imap.bindings t.rows.(s))))

let instantiate t env =
  let edges = instantiate_exact t env in
  List.iter
    (fun (s, d, q) ->
       if Ratio.(q < zero) || Ratio.(q > one) then
         invalid_arg
           (Printf.sprintf "Pdtmc.instantiate: edge %d->%d has probability %s"
              s d (Ratio.to_string q)))
    edges;
  let transitions =
    List.filter_map
      (fun (s, d, q) ->
         if Ratio.is_zero q then None else Some (s, d, Ratio.to_float q))
      edges
  in
  let labels = Smap.bindings t.label_map in
  let rewards =
    Array.map (fun f -> Ratio.to_float (Ratfun.eval env f)) t.rewards
  in
  Dtmc.make ~n:t.n ~init:t.init ~transitions ~labels ~rewards ()

let to_dtmc t =
  instantiate t (fun v ->
      invalid_arg (Printf.sprintf "Pdtmc.to_dtmc: chain has parameter %s" v))

let pp fmt t =
  Format.fprintf fmt "PDTMC(%d states, init %d, params %s)@\n" t.n t.init
    (String.concat "," (params t));
  Array.iteri
    (fun s row ->
       Format.fprintf fmt "  %d:" s;
       Imap.iter (fun d f -> Format.fprintf fmt " ->%d:[%s]" d (Ratfun.to_string f)) row;
       Format.fprintf fmt "@\n")
    t.rows

let digest t =
  (* Structural MD5 over a canonical textual serialisation: state count,
     initial state, every edge's exact rational function, labels and
     rewards.  Two chains with the same digest are structurally identical,
     so any elimination result computed for one is valid for the other. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "pdtmc:%d:%d;" t.n t.init);
  Array.iteri
    (fun s row ->
       Buffer.add_string buf (Printf.sprintf "s%d{" s);
       Imap.iter
         (fun d f ->
            Buffer.add_string buf (Printf.sprintf "%d=%s," d (Ratfun.to_string f)))
         row;
       Buffer.add_char buf '}')
    t.rows;
  Buffer.add_string buf "labels{";
  Smap.iter
    (fun name states ->
       Buffer.add_string buf name;
       Buffer.add_char buf ':';
       List.iter (fun s -> Buffer.add_string buf (string_of_int s ^ ",")) states;
       Buffer.add_char buf ';')
    t.label_map;
  Buffer.add_string buf "}rewards{";
  Array.iter
    (fun f ->
       Buffer.add_string buf (Ratfun.to_string f);
       Buffer.add_char buf ';')
    t.rewards;
  Buffer.add_char buf '}';
  Digest.to_hex (Digest.string (Buffer.contents buf))
