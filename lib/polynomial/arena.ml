(* Flat arena evaluator for rational functions.

   A polynomial is lowered to a postfix program over a float stack with two
   instructions: push a constant, or combine the top n+1 values with one
   variable by Horner's rule.  The lowering is the derivative-slice
   decomposition  p = Σ_e slice_e(rest) · x^e  with
   slice_e = ((d/dx)^e p)|_{x=0} / e!, applied recursively over the
   variable list — a univariate polynomial compiles to one dense Horner
   chain, a multivariate one to nested chains.  Rational-function division
   happens once at the end of an evaluation. *)

module P = Poly
module Q = Ratio

type instr = Push of float | Horner of { vi : int; n : int }

type t = {
  vars : string array;
  num : instr array;
  den : instr array option; (* None: denominator is the constant 1 *)
  depth : int; (* max program depth: the scratch stack size *)
}

(* Evaluation scratch lives with the domain, not the program, so one
   compiled program may be evaluated from several domains at once (the
   NLP's concurrent starts and speculative rungs share their constraint
   closures).  Systhreads of one domain share its scratch, and one may be
   preempted mid-evaluation: [busy] marks the scratch taken, and a caller
   that finds it taken evaluates on a fresh one.  [claim] tests and sets
   [busy] with no allocation or poll point in between, so no thread
   switch can split the two. *)
type scratch = {
  mutable busy : bool;
  mutable stack : float array;
  mutable values : float array; (* parameter vector for eval_env *)
  mutable ilo : float array; (* lower-bound stack for eval_interval *)
  mutable ihi : float array; (* upper-bound stack for eval_interval *)
}

let fresh_scratch depth nvars =
  {
    busy = true;
    stack = Array.make depth 0.0;
    values = Array.make nvars 0.0;
    ilo = Array.make depth 0.0;
    ihi = Array.make depth 0.0;
  }

let scratch_key =
  Domain.DLS.new_key (fun () -> { (fresh_scratch 16 16) with busy = false })

let[@inline] claim t =
  let s = Domain.DLS.get scratch_key in
  if s.busy then fresh_scratch t.depth (Array.length t.vars)
  else begin
    s.busy <- true;
    if Array.length s.stack < t.depth then begin
      s.stack <- Array.make t.depth 0.0;
      s.ilo <- Array.make t.depth 0.0;
      s.ihi <- Array.make t.depth 0.0
    end;
    if Array.length s.values < Array.length t.vars then
      s.values <- Array.make (Array.length t.vars) 0.0;
    s
  end

let vars t = t.vars

(* Compile [p] over the ordered (index, name) variable list. *)
let compile_poly order p =
  let code = ref [] in
  let emit i = code := i :: !code in
  let rec go vars p =
    match P.to_const_opt p with
    | Some c -> emit (Push (Q.to_float c))
    | None -> (
      match vars with
      | [] ->
        (* every variable of p was in [order]; checked by [compile] *)
        assert false
      | (vi, v) :: rest ->
        let d = P.degree_in v p in
        if d = 0 then go rest p
        else begin
          let deriv = ref p in
          let fact = ref Q.one in
          for e = 0 to d do
            if e >= 2 then fact := Q.mul !fact (Q.of_int e);
            let slice = P.scale (Q.inv !fact) (P.subst v P.zero !deriv) in
            go rest slice;
            if e < d then deriv := P.derivative v !deriv
          done;
          emit (Horner { vi; n = d })
        end)
  in
  go order p;
  Array.of_list (List.rev !code)

let max_depth prog =
  let depth = ref 0 and max = ref 0 in
  Array.iter
    (fun i ->
       (match i with
        | Push _ -> incr depth
        | Horner { n; _ } -> depth := !depth - n);
       if !depth > !max then max := !depth)
    prog;
  !max

let compile ~vars f =
  let vars = Array.of_list vars in
  let known v = Array.exists (String.equal v) vars in
  List.iter
    (fun v ->
       if not (known v) then
         invalid_arg
           (Printf.sprintf "Arena.compile: variable %s not in vars" v))
    (Ratfun.vars f);
  let order =
    Array.to_list (Array.mapi (fun i v -> (i, v)) vars)
  in
  let num = compile_poly order (Ratfun.num f) in
  let den_poly = Ratfun.den f in
  let den =
    if P.equal den_poly P.one then None else Some (compile_poly order den_poly)
  in
  let depth =
    Stdlib.max (max_depth num)
      (match den with None -> 0 | Some d -> max_depth d)
  in
  { vars; num; den; depth = Stdlib.max 1 depth }

let run prog (x : float array) (stack : float array) =
  let sp = ref 0 in
  for i = 0 to Array.length prog - 1 do
    match Array.unsafe_get prog i with
    | Push c ->
      Array.unsafe_set stack !sp c;
      incr sp
    | Horner { vi; n } ->
      let v = Array.unsafe_get x vi in
      let base = !sp - n - 1 in
      let acc = ref (Array.unsafe_get stack (!sp - 1)) in
      for j = !sp - 2 downto base do
        acc := (!acc *. v) +. Array.unsafe_get stack j
      done;
      Array.unsafe_set stack base !acc;
      sp := base + 1
  done;
  Array.unsafe_get stack 0

let[@inline] eval_on s t x =
  let n = run t.num x s.stack in
  match t.den with None -> n | Some d -> n /. run d x s.stack

let eval t x =
  let s = claim t in
  let r = eval_on s t x in
  s.busy <- false;
  r

(* [env] may itself evaluate arenas: it then finds this domain's scratch
   busy and takes a fresh one, so filling [values] here is safe.  If it
   raises, the scratch is released before the exception propagates. *)
let eval_env t env =
  let s = claim t in
  let values = s.values in
  match
    for i = 0 to Array.length t.vars - 1 do
      Array.unsafe_set values i (env (Array.unsafe_get t.vars i))
    done
  with
  | () ->
    let r = eval_on s t values in
    s.busy <- false;
    r
  | exception e ->
    s.busy <- false;
    raise e

(* ------------------------- interval semantics ------------------------- *)

(* The Horner program is run unchanged, but over closed float intervals:
   each stack slot holds a lower and an upper bound.  NaN (0 * inf in the
   interval product, or inf - inf in a sum) is widened to the whole real
   line, which is sound — the enclosure only ever gets larger. *)

let inorm lo hi =
  if Float.is_nan lo || Float.is_nan hi then (neg_infinity, infinity)
  else if lo <= hi then (lo, hi)
  else (hi, lo)

let imul al ah bl bh =
  let p1 = al *. bl and p2 = al *. bh and p3 = ah *. bl and p4 = ah *. bh in
  inorm
    (Float.min (Float.min p1 p2) (Float.min p3 p4))
    (Float.max (Float.max p1 p2) (Float.max p3 p4))

let run_interval prog (xl : float array) (xh : float array) (sl : float array)
    (sh : float array) =
  let sp = ref 0 in
  for i = 0 to Array.length prog - 1 do
    match Array.unsafe_get prog i with
    | Push c ->
      sl.(!sp) <- c;
      sh.(!sp) <- c;
      incr sp
    | Horner { vi; n } ->
      let vl, vh = inorm xl.(vi) xh.(vi) in
      let base = !sp - n - 1 in
      let al = ref sl.(!sp - 1) and ah = ref sh.(!sp - 1) in
      for j = !sp - 2 downto base do
        let ml, mh = imul !al !ah vl vh in
        let l, h = inorm (ml +. sl.(j)) (mh +. sh.(j)) in
        al := l;
        ah := h
      done;
      sl.(base) <- !al;
      sh.(base) <- !ah;
      sp := base + 1
  done;
  (sl.(0), sh.(0))

let eval_interval t lo hi =
  let s = claim t in
  let nl, nh = run_interval t.num lo hi s.ilo s.ihi in
  let r =
    match t.den with
    | None -> (nl, nh)
    | Some d ->
      let dl, dh = run_interval d lo hi s.ilo s.ihi in
      if dl <= 0.0 && dh >= 0.0 then (neg_infinity, infinity)
      else imul nl nh (1.0 /. dh) (1.0 /. dl)
  in
  s.busy <- false;
  r

let eval_grad ?(h = 1e-6) t x =
  let s = claim t in
  let v = eval_on s t x in
  let n = Array.length t.vars in
  let y = Array.sub x 0 (Array.length x) in
  let g =
    Array.init n (fun i ->
        let xi = y.(i) in
        y.(i) <- xi +. h;
        let hi = eval_on s t y in
        y.(i) <- xi -. h;
        let lo = eval_on s t y in
        y.(i) <- xi;
        (hi -. lo) /. (2.0 *. h))
  in
  s.busy <- false;
  (v, g)
