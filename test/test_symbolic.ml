(* Differential tests for the symbolic-kernel overhaul.

   The interned/hash-consed [Poly] and the hybrid small-int/bignum [Ratio]
   are pitted against straightforward reference implementations written in
   the seed's style — normalized [Bigint] pairs for rationals, string-keyed
   monomial maps for polynomials.  The references are slow but obviously
   correct; any representation bug in the fast path (overflow, missed
   promotion, wrong monomial order, hash-consing collision) shows up as a
   value mismatch.

   On top sit golden elimination tests: exact rational values of the WSN
   chain's expected-reward function f(p,q) captured from the seed
   implementation before the overhaul.  The normalized num/den pair of a
   [Ratfun] is path-dependent (normalization cancels univariate gcds only),
   so values at rational points — not string forms — are the right
   correctness oracle across engine changes. *)

module B = Bigint
module Q = Ratio

(* ------------------------------------------------------------------ *)
(* Reference rational: a normalized Bigint pair (the seed layout)       *)
(* ------------------------------------------------------------------ *)

module RefQ = struct
  type t = { num : B.t; den : B.t }

  let make num den =
    if B.is_zero den then raise Division_by_zero;
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    if B.is_zero num then { num = B.zero; den = B.one }
    else
      let g = B.gcd num den in
      { num = B.div num g; den = B.div den g }

  let of_ints n d = make (B.of_int n) (B.of_int d)
  let add a b = make B.(add (mul a.num b.den) (mul b.num a.den)) (B.mul a.den b.den)
  let neg a = { a with num = B.neg a.num }
  let sub a b = add a (neg b)
  let mul a b = make (B.mul a.num b.num) (B.mul a.den b.den)
  let inv a = make a.den a.num
  let div a b = mul a (inv b)

  let rec pow a e =
    if e < 0 then pow (inv a) (-e)
    else if e = 0 then of_ints 1 1
    else mul a (pow a (e - 1))

  let to_string a =
    if B.is_one a.den then B.to_string a.num
    else B.to_string a.num ^ "/" ^ B.to_string a.den
end

let check_ratio msg (expected : RefQ.t) (actual : Q.t) =
  Alcotest.(check string) msg (RefQ.to_string expected) (Q.to_string actual)

(* ------------------------------------------------------------------ *)
(* Reference polynomial: string-keyed monomial maps (the seed layout)   *)
(* ------------------------------------------------------------------ *)

module RefP = struct
  module Vmap = Map.Make (String)

  module Mmap = Map.Make (struct
      type t = int Vmap.t

      let compare = Vmap.compare Int.compare
    end)

  type t = Q.t Mmap.t

  let zero : t = Mmap.empty
  let const c = if Q.is_zero c then zero else Mmap.singleton Vmap.empty c
  let one = const Q.one
  let var v = Mmap.singleton (Vmap.singleton v 1) Q.one

  let add_term m c p =
    Mmap.update m
      (function
        | None -> if Q.is_zero c then None else Some c
        | Some c0 ->
          let c = Q.add c0 c in
          if Q.is_zero c then None else Some c)
      p

  let add a b = Mmap.fold add_term b a
  let neg p = Mmap.map Q.neg p
  let sub a b = add a (neg b)
  let mono_mul = Vmap.union (fun _ ea eb -> Some (ea + eb))

  let mul a b =
    Mmap.fold
      (fun ma ca acc ->
         Mmap.fold
           (fun mb cb acc -> add_term (mono_mul ma mb) (Q.mul ca cb) acc)
           b acc)
      a zero

  let rec pow p e = if e = 0 then one else mul p (pow p (e - 1))
  let num_terms = Mmap.cardinal

  let degree p =
    Mmap.fold
      (fun m _ acc -> Stdlib.max acc (Vmap.fold (fun _ e acc -> acc + e) m 0))
      p (-1)

  let eval env p =
    Mmap.fold
      (fun m c acc ->
         Q.add acc
           (Vmap.fold (fun v e acc -> Q.mul acc (Q.pow (env v) e)) m c))
      p Q.zero
end

(* ------------------------------------------------------------------ *)
(* Shared expression ASTs, evaluated by both implementations            *)
(* ------------------------------------------------------------------ *)

type pexpr =
  | Const of int * int
  | Var of int
  | Add of pexpr * pexpr
  | Sub of pexpr * pexpr
  | Mul of pexpr * pexpr
  | Pow of pexpr * int

let var_names = [| "p"; "q"; "x" |]

let rec to_poly = function
  | Const (n, d) -> Poly.const (Q.of_ints n d)
  | Var i -> Poly.var var_names.(i)
  | Add (a, b) -> Poly.add (to_poly a) (to_poly b)
  | Sub (a, b) -> Poly.sub (to_poly a) (to_poly b)
  | Mul (a, b) -> Poly.mul (to_poly a) (to_poly b)
  | Pow (a, e) -> Poly.pow (to_poly a) e

let rec to_ref = function
  | Const (n, d) -> RefP.const (Q.of_ints n d)
  | Var i -> RefP.var var_names.(i)
  | Add (a, b) -> RefP.add (to_ref a) (to_ref b)
  | Sub (a, b) -> RefP.sub (to_ref a) (to_ref b)
  | Mul (a, b) -> RefP.mul (to_ref a) (to_ref b)
  | Pow (a, e) -> RefP.pow (to_ref a) e

let rec pexpr_to_string = function
  | Const (n, d) -> Printf.sprintf "%d/%d" n d
  | Var i -> var_names.(i)
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (pexpr_to_string a) (pexpr_to_string b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (pexpr_to_string a) (pexpr_to_string b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (pexpr_to_string a) (pexpr_to_string b)
  | Pow (a, e) -> Printf.sprintf "%s^%d" (pexpr_to_string a) e

(* Size is capped low: the reference multiply is O(terms^2) with bignum
   coefficients, and nested Pow-of-Mul grows doubly fast.  Depth ~3 with
   exponents <= 3 still exercises every code path (hash-consing, the
   promotion boundary via coefficient growth, both mul strategies). *)
let gen_pexpr =
  let open QCheck2.Gen in
  sized_size (int_bound 6)
  @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ (let* num = int_range (-9) 9 in
             let* den = int_range 1 9 in
             return (Const (num, den)));
            (let* i = int_range 0 2 in
             return (Var i));
          ]
      else
        let sub = self (n / 2) in
        oneof
          [ (let* a = sub and* b = sub in return (Add (a, b)));
            (let* a = sub and* b = sub in return (Sub (a, b)));
            (let* a = sub and* b = sub in return (Mul (a, b)));
            (let* a = self (n / 3) and* e = int_range 0 3 in
             return (Pow (a, e)));
          ])

(* Exact evaluation points: distinct odd primes so distinct polynomials
   essentially never collide on all three points at once. *)
let eval_points =
  [ (fun v -> Q.of_ints 2 (match v with "p" -> 3 | "q" -> 5 | _ -> 7));
    (fun v -> Q.of_ints (match v with "p" -> -3 | "q" -> 5 | _ -> 11) 13);
    (fun v -> Q.of_ints (match v with "p" -> 17 | "q" -> -1 | _ -> 4) 19);
  ]

(* ------------------------------------------------------------------ *)
(* Ratio differential properties                                        *)
(* ------------------------------------------------------------------ *)

(* Spans the small-path bound (2^30 - 1): about half the magnitudes force
   construction, add and mul through the promotion/demotion machinery. *)
let gen_boundary_int =
  let open QCheck2.Gen in
  let small = int_range (-1000) 1000 in
  let boundary =
    let* off = int_range (-3) 3 in
    let* sign = oneofl [ 1; -1 ] in
    return (sign * ((1 lsl 30) - 1 + off))
  in
  let wide = int_range (-(1 lsl 34)) (1 lsl 34) in
  oneof [ small; boundary; wide ]

let gen_qpair =
  let open QCheck2.Gen in
  let* n = gen_boundary_int in
  let* d = gen_boundary_int in
  return (n, if d = 0 then 1 else d)

let print_qpair (n, d) = Printf.sprintf "%d/%d" n d
let print_qpair2 (a, b) = Printf.sprintf "%s, %s" (print_qpair a) (print_qpair b)

let qtest name ?(count = 500) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let ratio_props =
  let open QCheck2.Gen in
  let differential name op ref_op =
    qtest name ~print:print_qpair2 (pair gen_qpair gen_qpair)
      (fun ((an, ad), (bn, bd)) ->
         Q.to_string (op (Q.of_ints an ad) (Q.of_ints bn bd))
         = RefQ.to_string (ref_op (RefQ.of_ints an ad) (RefQ.of_ints bn bd)))
  in
  [ differential "add matches reference" Q.add RefQ.add;
    differential "sub matches reference" Q.sub RefQ.sub;
    differential "mul matches reference" Q.mul RefQ.mul;
    qtest "div matches reference" ~print:print_qpair2 (pair gen_qpair gen_qpair)
      (fun ((an, ad), (bn, bd)) ->
         QCheck2.assume (bn <> 0);
         Q.to_string (Q.div (Q.of_ints an ad) (Q.of_ints bn bd))
         = RefQ.to_string (RefQ.div (RefQ.of_ints an ad) (RefQ.of_ints bn bd)));
    qtest "pow matches reference" ~print:(fun ((n, d), e) ->
        Printf.sprintf "(%d/%d)^%d" n d e)
      (pair gen_qpair (int_range (-6) 6))
      (fun ((n, d), e) ->
         QCheck2.assume (not (n = 0 && e < 0));
         Q.to_string (Q.pow (Q.of_ints n d) e)
         = RefQ.to_string (RefQ.pow (RefQ.of_ints n d) e));
    qtest "result is always normalized" ~print:print_qpair2
      (pair gen_qpair gen_qpair)
      (fun ((an, ad), (bn, bd)) ->
         let c = Q.mul (Q.add (Q.of_ints an ad) (Q.of_ints bn bd)) (Q.of_ints bn (abs bd)) in
         B.sign (Q.den c) > 0 && (Q.is_zero c || B.is_one (B.gcd (Q.num c) (Q.den c))));
    qtest "compare matches cross-multiplication" ~print:print_qpair2
      (pair gen_qpair gen_qpair)
      (fun ((an, ad), (bn, bd)) ->
         let a = Q.of_ints an ad and b = Q.of_ints bn bd in
         let lhs = B.mul (Q.num a) (Q.den b) and rhs = B.mul (Q.num b) (Q.den a) in
         Q.compare a b = B.compare lhs rhs);
    qtest "mul/div round-trip" ~print:print_qpair2 (pair gen_qpair gen_qpair)
      (fun ((an, ad), (bn, bd)) ->
         QCheck2.assume (bn <> 0);
         let a = Q.of_ints an ad and b = Q.of_ints bn bd in
         Q.equal a (Q.div (Q.mul a b) b));
  ]

(* The exact boundary: 2^30 - 1 is the largest magnitude the fast path
   may hold, so these cases straddle promotion and demotion. *)
let test_promotion_boundary () =
  let m = (1 lsl 30) - 1 in
  check_ratio "small max + 1 promotes"
    (RefQ.add (RefQ.of_ints m 1) (RefQ.of_ints 1 1))
    (Q.add (Q.of_ints m 1) Q.one);
  check_ratio "boundary product"
    (RefQ.mul (RefQ.of_ints m 1) (RefQ.of_ints m 1))
    (Q.mul (Q.of_ints m 1) (Q.of_ints m 1));
  check_ratio "boundary denominator"
    (RefQ.mul (RefQ.of_ints 1 m) (RefQ.of_ints 1 m))
    (Q.mul (Q.of_ints 1 m) (Q.of_ints 1 m));
  check_ratio "min_int-ish construction"
    (RefQ.of_ints (-m - 1) m)
    (Q.of_ints (-m - 1) m);
  (* a big value that cancels back below the bound must still print the
     same; demotion (if any) is invisible *)
  let big = Q.mul (Q.of_ints m 7) (Q.of_ints 7 m) in
  check_ratio "cancel back to small" (RefQ.of_ints 1 1) big;
  (* sums that walk across the boundary step by step *)
  let step = Q.of_ints ((1 lsl 29) + 3) 5 in
  let acc = ref Q.zero and ref_acc = ref (RefQ.of_ints 0 1) in
  for _ = 1 to 8 do
    acc := Q.add !acc step;
    ref_acc := RefQ.add !ref_acc (RefQ.of_ints ((1 lsl 29) + 3) 5)
  done;
  check_ratio "stepwise boundary walk" !ref_acc !acc

(* ------------------------------------------------------------------ *)
(* Poly differential properties                                         *)
(* ------------------------------------------------------------------ *)

let poly_props =
  [ qtest "poly expr matches reference" ~count:300 ~print:pexpr_to_string
      gen_pexpr
      (fun e ->
         let p = to_poly e and r = to_ref e in
         Poly.num_terms p = RefP.num_terms r
         && Poly.degree p = RefP.degree r
         && List.for_all
              (fun env ->
                 Q.to_string (Poly.eval env p)
                 = RefQ.to_string
                     (let v = RefP.eval env r in
                      RefQ.make (Q.num v) (Q.den v)))
              eval_points);
    qtest "sub fuses to add of negation" ~count:200
      ~print:(fun (a, b) ->
          Printf.sprintf "%s | %s" (pexpr_to_string a) (pexpr_to_string b))
      QCheck2.Gen.(pair gen_pexpr gen_pexpr)
      (fun (ea, eb) ->
         let a = to_poly ea and b = to_poly eb in
         Poly.equal (Poly.sub a b) (Poly.add a (Poly.neg b)));
    qtest "mul commutes across hash-consing" ~count:200
      ~print:(fun (a, b) ->
          Printf.sprintf "%s | %s" (pexpr_to_string a) (pexpr_to_string b))
      QCheck2.Gen.(pair gen_pexpr gen_pexpr)
      (fun (ea, eb) ->
         let a = to_poly ea and b = to_poly eb in
         Poly.equal (Poly.mul a b) (Poly.mul b a));
  ]

(* The hashtable-accumulation path in [Poly.mul] only kicks in above a
   size threshold; force both paths on the same product. *)
let test_poly_mul_large () =
  let p = Poly.pow Poly.(var "p" + var "q" + one) 6 in
  let q = Poly.pow Poly.(var "p" - (var "q" * var "x") + one) 4 in
  let rp = RefP.pow (RefP.add (RefP.add (RefP.var "p") (RefP.var "q")) RefP.one) 6 in
  let rq =
    RefP.pow
      (RefP.add
         (RefP.sub (RefP.var "p") (RefP.mul (RefP.var "q") (RefP.var "x")))
         RefP.one)
      4
  in
  let prod = Poly.mul p q and ref_prod = RefP.mul rp rq in
  Alcotest.(check int) "num_terms" (RefP.num_terms ref_prod) (Poly.num_terms prod);
  Alcotest.(check int) "degree" (RefP.degree ref_prod) (Poly.degree prod);
  List.iteri
    (fun i env ->
       let v = RefP.eval env ref_prod in
       check_ratio (Printf.sprintf "eval point %d" i)
         (RefQ.make (Q.num v) (Q.den v))
         (Poly.eval env prod))
    eval_points

(* ------------------------------------------------------------------ *)
(* Golden elimination tests (WSN chain)                                 *)
(* ------------------------------------------------------------------ *)

(* Exact values of the expected-attempts function f(p,q) of the default
   3x3 WSN chain, captured from the seed engine before the kernel
   overhaul.  The elimination engine (factored or not, any ordering
   heuristic) must reproduce them digit for digit. *)
let wsn_reward_goldens =
  [ ( (1, 10), (1, 7),
      "37345705658443641706192994453552321694486571977888685975901569024/1906441870664603793222847769009648666252990041059969759892475247" );
    ( (2, 5), (3, 11),
      "1168934221928374549990063007087153185040780907481107804545374748672/126104992242156421809958617888973210565771940561325637506827797931" );
    ( (1, 3), (1, 3),
      "590037652335960115962276216966309197675357548986211442469371904/62088044854165551610836436648239092596572523697148824400664237" );
  ]

let wsn_parametric =
  lazy
    (Model_repair.parametric_model
       (Pdtmc.of_dtmc (Wsn.chain Wsn.default_params))
       (Wsn.repair_spec Wsn.default_params))

let test_elimination_reward_goldens () =
  let f = Elimination.expected_reward (Lazy.force wsn_parametric) ~target:[ 0 ] in
  List.iter
    (fun ((pn, pd), (qn, qd), expected) ->
       let env = function
         | "p" -> Q.of_ints pn pd
         | "q" -> Q.of_ints qn qd
         | v -> Alcotest.failf "unexpected variable %s" v
       in
       Alcotest.(check string)
         (Printf.sprintf "R(%d/%d, %d/%d)" pn pd qn qd)
         expected
         (Q.to_string (Ratfun.eval env f)))
    wsn_reward_goldens

let test_elimination_reach_golden () =
  (* delivery is almost sure, so the reachability function must be the
     constant 1 whatever the elimination order *)
  List.iter
    (fun order ->
       let f =
         Elimination.reachability_probability ~order
           (Lazy.force wsn_parametric) ~target:[ 0 ]
       in
       Alcotest.(check bool) "reach == 1" true (Ratfun.equal f Ratfun.one))
    [ Elimination.Min_degree; Elimination.Ascending; Elimination.Descending ]

let test_factored_vs_reference () =
  (* the factored engine and the per-edge reference must agree
     semantically (their normalized quotients may differ in size — only
     cross-multiplication equality is canonical) *)
  let pm = Lazy.force wsn_parametric in
  let factored = Elimination.expected_reward pm ~target:[ 0 ] in
  let reference = Elim_reference.expected_reward pm ~target:[ 0 ] in
  Alcotest.(check bool) "expected reward agrees" true
    (Ratfun.equal factored reference);
  let p_factored = Elimination.reachability_probability pm ~target:[ 0 ] in
  let p_reference = Elim_reference.reachability_probability pm ~target:[ 0 ] in
  Alcotest.(check bool) "reachability agrees" true
    (Ratfun.equal p_factored p_reference)

let test_elimination_orders_agree () =
  (* all orders normalize to semantically equal rational functions *)
  let f order = Elimination.expected_reward ~order (Lazy.force wsn_parametric) ~target:[ 0 ] in
  let reference = f Elimination.Min_degree in
  List.iter
    (fun order -> Alcotest.(check bool) "orders agree" true
        (Ratfun.equal reference (f order)))
    [ Elimination.Ascending; Elimination.Descending ]

let () =
  Alcotest.run "symbolic"
    [ ("ratio differential", ratio_props);
      ( "ratio boundary",
        [ Alcotest.test_case "promotion boundary" `Quick test_promotion_boundary ] );
      ("poly differential", poly_props);
      ( "poly large mul",
        [ Alcotest.test_case "hashtable path" `Quick test_poly_mul_large ] );
      ( "elimination goldens",
        [ Alcotest.test_case "expected reward R(p,q)" `Quick
            test_elimination_reward_goldens;
          Alcotest.test_case "reachability == 1" `Quick
            test_elimination_reach_golden;
          Alcotest.test_case "factored vs reference path" `Quick
            test_factored_vs_reference;
          Alcotest.test_case "orders agree" `Quick test_elimination_orders_agree;
        ] );
    ]
