(* Sparse multivariate polynomials over Ratio.

   A monomial is a packed, hash-consed vector of (variable id, exponent)
   pairs — variable names are interned to dense ints by Symtab, and each
   distinct monomial is allocated once per domain with its hash and total
   degree precomputed.  A polynomial maps monomials to non-zero
   coefficients.  Both invariants (exponents strictly positive, no zero
   coefficients) are maintained by the smart constructors below.

   The packed representation is what makes Poly.add/mul cheap: map
   rebalancing compares int arrays (with a physical-equality fast path
   from hash-consing) instead of string-keyed maps, and monomial products
   are a single sorted merge. *)

module Q = Ratio

module Mono = struct
  (* key = [| id0; e0; id1; e1; ... |], ids strictly increasing, e > 0 *)
  type t = { key : int array; h : int; deg : int }

  let unit : t = { key = [||]; h = 0; deg = 0 }
  let is_unit (m : t) = Array.length m.key = 0

  let key_hash (key : int array) =
    Array.fold_left (fun h v -> (h * 131) + v) (Array.length key) key

  let key_equal (a : int array) (b : int array) =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i = i >= la || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let key_degree (key : int array) =
    let d = ref 0 in
    let i = ref 1 in
    while !i < Array.length key do
      d := !d + key.(!i);
      i := !i + 2
    done;
    !d

  (* Hash-consing is two-level.  The authority is a GLOBAL table sharded
     on the monomial hash — not on the domain — so a structurally equal
     key interned from any domain resolves to the SAME physical monomial,
     keeping the [==] fast paths in [compare]/[Mtbl.equal] valid even
     when polynomials cross domains (a memoized elimination computed by
     one worker's job is read by the next job on another).  Sharding the
     lock spreads concurrent interning by jobs running on different
     domains over [shard_count] mutexes instead of serializing
     it on one intern table; each shard's critical section is a single
     hashtable probe.

     In front of the authority sits a per-domain, lock-free L1 memo of
     pointers INTO the global table: repeat lookups (the arithmetic hot
     path — products regenerate the same monomials constantly) cost a
     domain-local probe and no lock, exactly what the old per-domain
     cache cost, while first sights pay one shard lock. *)
  module H = Hashtbl.Make (struct
      type t = int array

      let equal = key_equal
      let hash = key_hash
    end)

  type shard = { lock : Mutex.t; stbl : t H.t }

  let shard_count = 64  (* power of two: shard = hash land (count - 1) *)

  let shards =
    Array.init shard_count (fun _ ->
        { lock = Mutex.create (); stbl = H.create 512 })

  type cache = { tbl : t H.t; mutable hits : int; mutable misses : int }

  let hits_total =
    Metrics.counter "tml_mono_cache_hits_total"
      ~help:"Monomial hash-cons lookups served from the per-domain L1 memo"

  let misses_total =
    Metrics.counter "tml_mono_cache_misses_total"
      ~help:
        "Monomial hash-cons lookups that went to the sharded global table \
         (interning the monomial on first sight process-wide)"

  let cache_key =
    Domain.DLS.new_key (fun () ->
        { tbl = H.create 512; hits = 0; misses = 0 })

  (* Flush domain-local tallies to the shared atomic counters only every
     [flush_mask + 1] events, keeping atomics off the per-product path. *)
  let flush_mask = 0xFFF

  (* Resolve [key] in the global sharded table.  The returned monomial is
     the unique physical representative for this key, process-wide. *)
  let intern_global (key : int array) (h : int) : t =
    let s = Array.unsafe_get shards (h land (shard_count - 1)) in
    Mutex.lock s.lock;
    let m =
      match H.find_opt s.stbl key with
      | Some m -> m
      | None ->
        let m = { key; h; deg = key_degree key } in
        H.add s.stbl key m;
        m
    in
    Mutex.unlock s.lock;
    m

  let cons (key : int array) : t =
    if Array.length key = 0 then unit
    else begin
      let c = Domain.DLS.get cache_key in
      match H.find_opt c.tbl key with
      | Some m ->
        c.hits <- c.hits + 1;
        if c.hits land flush_mask = 0 then
          Metrics.incr ~by:(flush_mask + 1) hits_total;
        m
      | None ->
        c.misses <- c.misses + 1;
        if c.misses land flush_mask = 0 then
          Metrics.incr ~by:(flush_mask + 1) misses_total;
        let m = intern_global key (key_hash key) in
        (* memoize the global representative (possibly allocated by
           another domain); the L1 never holds a private duplicate *)
        H.add c.tbl m.key m;
        m
    end

  let of_var id e =
    if e <= 0 then invalid_arg "Mono.of_var: exponent must be positive";
    cons [| id; e |]

  (* Total order mirroring the previous Map.Make(String) monomial order
     when ids are interned in name order: lexicographic over (id, exp)
     pairs, shorter prefix first. *)
  let compare (a : t) (b : t) =
    if a == b then 0
    else begin
      let ka = a.key and kb = b.key in
      let la = Array.length ka and lb = Array.length kb in
      let n = if la < lb then la else lb in
      let rec go i =
        if i >= n then Stdlib.compare la lb
        else begin
          let c = Stdlib.compare ka.(i) kb.(i) in
          if c <> 0 then c else go (i + 1)
        end
      in
      go 0
    end

  let mul (a : t) (b : t) : t =
    if is_unit a then b
    else if is_unit b then a
    else begin
      let ka = a.key and kb = b.key in
      let la = Array.length ka and lb = Array.length kb in
      let buf = Array.make (la + lb) 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < la && !j < lb do
        let ia = ka.(!i) and ib = kb.(!j) in
        if ia = ib then begin
          buf.(!k) <- ia;
          buf.(!k + 1) <- ka.(!i + 1) + kb.(!j + 1);
          i := !i + 2;
          j := !j + 2
        end
        else if ia < ib then begin
          buf.(!k) <- ia;
          buf.(!k + 1) <- ka.(!i + 1);
          i := !i + 2
        end
        else begin
          buf.(!k) <- ib;
          buf.(!k + 1) <- kb.(!j + 1);
          j := !j + 2
        end;
        k := !k + 2
      done;
      while !i < la do
        buf.(!k) <- ka.(!i);
        buf.(!k + 1) <- ka.(!i + 1);
        i := !i + 2;
        k := !k + 2
      done;
      while !j < lb do
        buf.(!k) <- kb.(!j);
        buf.(!k + 1) <- kb.(!j + 1);
        j := !j + 2;
        k := !k + 2
      done;
      cons (if !k = la + lb then buf else Array.sub buf 0 !k)
    end

  let degree m = m.deg

  let degree_in id (m : t) =
    let key = m.key in
    let rec go i =
      if i >= Array.length key then 0
      else if key.(i) = id then key.(i + 1)
      else if key.(i) > id then 0
      else go (i + 2)
    in
    go 0

  (* fold over (id, exp) pairs in increasing id order *)
  let fold f (m : t) init =
    let key = m.key in
    let acc = ref init in
    let i = ref 0 in
    while !i < Array.length key do
      acc := f key.(!i) key.(!i + 1) !acc;
      i := !i + 2
    done;
    !acc

  (* monomial with variable [id]'s exponent replaced by [e] (removed when
     [e = 0]); [id] must be present *)
  let with_exp id e (m : t) =
    let key = m.key in
    let n = Array.length key in
    if e = 0 then begin
      let buf = Array.make (n - 2) 0 in
      let k = ref 0 in
      let i = ref 0 in
      while !i < n do
        if key.(!i) <> id then begin
          buf.(!k) <- key.(!i);
          buf.(!k + 1) <- key.(!i + 1);
          k := !k + 2
        end;
        i := !i + 2
      done;
      cons buf
    end
    else begin
      let buf = Array.copy key in
      let rec go i = if buf.(i) = id then buf.(i + 1) <- e else go (i + 2) in
      go 0;
      cons buf
    end

  let to_string (m : t) =
    if is_unit m then "1"
    else
      fold
        (fun id e acc ->
           let v = Symtab.name id in
           (if e = 1 then v else Printf.sprintf "%s^%d" v e) :: acc)
        m []
      |> List.rev |> String.concat "*"
end

module Mmap = Map.Make (Mono)
module Iset = Set.Make (Int)

type t = Q.t Mmap.t

let zero : t = Mmap.empty

let const c : t = if Q.is_zero c then zero else Mmap.singleton Mono.unit c
let one = const Q.one
let of_int i = const (Q.of_int i)
let var x : t = Mmap.singleton (Mono.of_var (Symtab.intern x) 1) Q.one

let is_zero (p : t) = Mmap.is_empty p

let add_term (m : Mono.t) (c : Q.t) (p : t) : t =
  if Q.is_zero c then p
  else
    Mmap.update m
      (function
        | None -> Some c
        | Some c0 ->
          let s = Q.add c0 c in
          if Q.is_zero s then None else Some s)
      p

let add (a : t) (b : t) : t = Mmap.fold add_term b a

let neg (p : t) : t = Mmap.map Q.neg p

(* Fused negate-and-add: folds [b] into [a] negating each coefficient on
   the way, instead of materialising the intermediate [neg b] map. *)
let sub (a : t) (b : t) : t =
  Mmap.fold (fun m c acc -> add_term m (Q.neg c) acc) b a

let scale k (p : t) : t =
  if Q.is_zero k then zero else Mmap.map (Q.mul k) p

module Mtbl = Hashtbl.Make (struct
    type t = Mono.t

    let equal (a : Mono.t) (b : Mono.t) = a == b || Mono.key_equal a.key b.key
    let hash (m : Mono.t) = m.h
  end)

let mul (a : t) (b : t) : t =
  if Mmap.is_empty a || Mmap.is_empty b then zero
  else begin
    let ta = Mmap.cardinal a and tb = Mmap.cardinal b in
    if ta * tb <= 32 then
      (* small products: the map is cheaper than a hashtable round-trip *)
      Mmap.fold
        (fun ma ca acc ->
           Mmap.fold
             (fun mb cb acc -> add_term (Mono.mul ma mb) (Q.mul ca cb) acc)
             b acc)
        a zero
    else begin
      (* Large products collapse many colliding monomials; accumulating in
         a hashtable keyed by the hash-consed monomial makes each of the
         ta*tb partial products O(1) instead of an O(log n) map insert —
         only the surviving terms pay for the final map build. *)
      let tbl = Mtbl.create (Stdlib.( * ) 2 (Stdlib.max ta tb)) in
      Mmap.iter
        (fun ma ca ->
           Mmap.iter
             (fun mb cb ->
                let m = Mono.mul ma mb in
                let c = Q.mul ca cb in
                match Mtbl.find_opt tbl m with
                | None -> Mtbl.add tbl m c
                | Some c0 -> Mtbl.replace tbl m (Q.add c0 c))
             b)
        a;
      Mtbl.fold
        (fun m c acc -> if Q.is_zero c then acc else Mmap.add m c acc)
        tbl zero
    end
  end

let pow p e =
  if e < 0 then invalid_arg "Poly.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
  in
  go one p e

let ( + ) = add
let ( - ) = sub
let ( * ) = mul

let is_const (p : t) =
  Mmap.for_all (fun m _ -> Mono.is_unit m) p

let to_const_opt (p : t) =
  if is_zero p then Some Q.zero
  else if Mmap.cardinal p = 1 then
    match Mmap.min_binding_opt p with
    | Some (m, c) when Mono.is_unit m -> Some c
    | _ -> None
  else None

let coeff_of_const (p : t) =
  match Mmap.find_opt Mono.unit p with Some c -> c | None -> Q.zero

let equal (a : t) (b : t) = Mmap.equal Q.equal a b
let compare (a : t) (b : t) = Mmap.compare Q.compare a b

let degree (p : t) =
  if is_zero p then -1
  else Mmap.fold (fun m _ acc -> Stdlib.max (Mono.degree m) acc) p 0

let degree_in x (p : t) =
  match Symtab.find_opt x with
  | None -> 0
  | Some id ->
    Mmap.fold (fun m _ acc -> Stdlib.max (Mono.degree_in id m) acc) p 0

let var_ids (p : t) =
  Mmap.fold
    (fun m _ acc -> Mono.fold (fun id _ acc -> Iset.add id acc) m acc)
    p Iset.empty

let vars (p : t) =
  var_ids p |> Iset.elements |> List.map Symtab.name
  |> List.sort String.compare

let num_terms = Mmap.cardinal

let eval env (p : t) =
  (* resolve each variable's value once, not once per occurrence *)
  let values = Hashtbl.create 8 in
  let value id =
    match Hashtbl.find_opt values id with
    | Some v -> v
    | None ->
      let v = env (Symtab.name id) in
      Hashtbl.add values id v;
      v
  in
  Mmap.fold
    (fun m c acc ->
       let term = Mono.fold (fun id e acc -> Q.mul acc (Q.pow (value id) e)) m c in
       Q.add acc term)
    p Q.zero

let eval_float env (p : t) =
  let values = Hashtbl.create 8 in
  let value id =
    match Hashtbl.find_opt values id with
    | Some v -> v
    | None ->
      let v = env (Symtab.name id) in
      Hashtbl.add values id v;
      v
  in
  Mmap.fold
    (fun m c acc ->
       let term =
         Mono.fold
           (fun id e acc -> acc *. Float.pow (value id) (float_of_int e))
           m (Q.to_float c)
       in
       acc +. term)
    p 0.0

(* Compilation strategy: resolve variables to indices once, record each
   term as (float coeff, packed var-index/exponent pairs), and at
   evaluation time precompute one power table per variable up to its
   maximal exponent — a term is then a few table lookups, independent of
   its degree. *)
let compile (p : t) =
  let var_names = Array.of_list (vars p) in
  let nvars = Array.length var_names in
  let index_of = Hashtbl.create (Stdlib.max 1 nvars) in
  Array.iteri (fun i v -> Hashtbl.add index_of (Symtab.intern v) i) var_names;
  let max_exp = Array.make nvars 0 in
  let terms =
    Mmap.bindings p
    |> List.map (fun (m, c) ->
        let packed =
          Mono.fold
            (fun id e acc ->
               let i = Hashtbl.find index_of id in
               max_exp.(i) <- Stdlib.max max_exp.(i) e;
               (i, e) :: acc)
            m []
          |> List.rev |> Array.of_list
        in
        (Q.to_float c, packed))
    |> Array.of_list
  in
  let tables = Array.init nvars (fun i -> Array.make (Stdlib.( + ) max_exp.(i) 1) 1.0) in
  (* Flatten into parallel arrays for a cache-friendly inner loop:
     coeffs.(t) and, per term, a [len; i1; e1; i2; e2; ...] slice of
     [layout]. *)
  let nterms = Array.length terms in
  let coeffs = Array.map fst terms in
  let layout =
    let open Stdlib in
    let buf = ref [] in
    Array.iter
      (fun (_, packed) ->
         buf := Array.length packed :: !buf;
         Array.iter (fun (i, e) -> buf := e :: i :: !buf) packed)
      terms;
    Array.of_list (List.rev !buf)
  in
  fun env ->
    let open Stdlib in
    for i = 0 to nvars - 1 do
      let x = env var_names.(i) in
      let tbl = tables.(i) in
      for e = 1 to Array.length tbl - 1 do
        tbl.(e) <- tbl.(e - 1) *. x
      done
    done;
    let acc = ref 0.0 in
    let pos = ref 0 in
    for t = 0 to nterms - 1 do
      let len = layout.(!pos) in
      incr pos;
      let term = ref (Array.unsafe_get coeffs t) in
      for _ = 1 to len do
        let i = layout.(!pos) and e = layout.(!pos + 1) in
        pos := !pos + 2;
        term := !term *. Array.unsafe_get (Array.unsafe_get tables i) e
      done;
      acc := !acc +. !term
    done;
    !acc

let subst x p (q : t) : t =
  match Symtab.find_opt x with
  | None -> q
  | Some id ->
    Mmap.fold
      (fun m c acc ->
         match Mono.degree_in id m with
         | 0 -> add_term m c acc
         | e ->
           let rest = Mono.with_exp id 0 m in
           let base : t = Mmap.singleton rest c in
           add acc (mul base (pow p e)))
      q zero

let derivative x (p : t) : t =
  match Symtab.find_opt x with
  | None -> zero
  | Some id ->
    Mmap.fold
      (fun m c acc ->
         match Mono.degree_in id m with
         | 0 -> acc
         | e ->
           let m' = Mono.with_exp id (Stdlib.( - ) e 1) m in
           add_term m' (Q.mul c (Q.of_int e)) acc)
      p zero

let to_univariate_opt (p : t) =
  match Iset.elements (var_ids p) with
  | [] -> Some ("", [| coeff_of_const p |])
  | [ id ] ->
    let x = Symtab.name id in
    let d =
      Mmap.fold (fun m _ acc -> Stdlib.max (Mono.degree_in id m) acc) p 0
    in
    let coeffs = Array.make (Stdlib.( + ) d 1) Q.zero in
    Mmap.iter (fun m c -> coeffs.(Mono.degree_in id m) <- c) p;
    Some (x, coeffs)
  | _ -> None

let of_univariate x coeffs =
  let id = lazy (Symtab.intern x) in
  let acc = ref zero in
  Array.iteri
    (fun e c ->
       if not (Q.is_zero c) then
         acc :=
           add_term
             (if e = 0 then Mono.unit else Mono.of_var (Lazy.force id) e)
             c !acc)
    coeffs;
  !acc

let to_string (p : t) =
  if is_zero p then "0"
  else begin
    let term_str first m c =
      let mono = Mono.to_string m in
      let coeff_part =
        if Mono.is_unit m then Q.to_string (Q.abs c)
        else if Q.equal (Q.abs c) Q.one then mono
        else Q.to_string (Q.abs c) ^ "*" ^ mono
      in
      if first then (if Stdlib.( < ) (Q.sign c) 0 then "-" ^ coeff_part else coeff_part)
      else if Stdlib.( < ) (Q.sign c) 0 then " - " ^ coeff_part
      else " + " ^ coeff_part
    in
    let buf = Buffer.create 64 in
    let first = ref true in
    (* Print higher-degree terms first for readability. *)
    let terms =
      Mmap.bindings p
      |> List.sort (fun (m1, _) (m2, _) ->
          match Stdlib.compare (Mono.degree m2) (Mono.degree m1) with
          | 0 -> Mono.compare m1 m2
          | c -> c)
    in
    List.iter
      (fun (m, c) ->
         Buffer.add_string buf (term_str !first m c);
         first := false)
      terms;
    Buffer.contents buf
  end

let pp fmt p = Format.pp_print_string fmt (to_string p)
