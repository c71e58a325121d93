(* Tests for Linalg and Prng. *)

module V = Linalg.Vec
module M = Linalg.Mat

let vec = Alcotest.(array (float 1e-9))

let test_vec_ops () =
  Alcotest.check vec "add" [| 4.0; 6.0 |] (V.add [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  Alcotest.check vec "sub" [| -2.0; -2.0 |] (V.sub [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  Alcotest.check vec "scale" [| 2.0; 4.0 |] (V.scale 2.0 [| 1.0; 2.0 |]);
  Alcotest.check vec "axpy" [| 5.0; 8.0 |] (V.axpy 2.0 [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "dot" 11.0 (V.dot [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "norm2" 5.0 (V.norm2 [| 3.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "norm_inf" 4.0 (V.norm_inf [| 3.0; -4.0 |]);
  Alcotest.(check (float 1e-9)) "dist_inf" 2.0 (V.dist_inf [| 1.0; 5.0 |] [| 3.0; 4.0 |]);
  Alcotest.check_raises "mismatch" (Invalid_argument "Linalg.Vec: dimension mismatch")
    (fun () -> ignore (V.add [| 1.0 |] [| 1.0; 2.0 |]))

let test_mat_ops () =
  let a = M.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = M.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let c = M.mul a b in
  Alcotest.(check (float 1e-9)) "mul 00" 2.0 (M.get c 0 0);
  Alcotest.(check (float 1e-9)) "mul 01" 1.0 (M.get c 0 1);
  Alcotest.(check (float 1e-9)) "mul 10" 4.0 (M.get c 1 0);
  Alcotest.check vec "mul_vec" [| 5.0; 11.0 |] (M.mul_vec a [| 1.0; 2.0 |]);
  let t = M.transpose a in
  Alcotest.(check (float 1e-9)) "transpose" 3.0 (M.get t 0 1);
  let i = M.identity 2 in
  Alcotest.(check (float 1e-9)) "identity" 1.0 (M.get i 1 1);
  Alcotest.check vec "row" [| 3.0; 4.0 |] (M.row a 1)

let test_lu_solve () =
  let a = M.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Linalg.lu_solve a [| 5.0; 10.0 |] in
  Alcotest.check vec "2x2" [| 1.0; 3.0 |] x;
  (* needs pivoting: zero on the diagonal *)
  let a = M.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  Alcotest.check vec "pivot" [| 2.0; 1.0 |] (Linalg.lu_solve a [| 1.0; 2.0 |]);
  let sing = M.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" Linalg.Singular (fun () ->
      ignore (Linalg.lu_solve sing [| 1.0; 1.0 |]))

let test_lu_solve_3x3 () =
  let a =
    M.of_rows [| [| 4.0; -2.0; 1.0 |]; [| -2.0; 4.0; -2.0 |]; [| 1.0; -2.0; 4.0 |] |]
  in
  let x_true = [| 1.0; -2.0; 3.0 |] in
  let b = M.mul_vec a x_true in
  Alcotest.check vec "3x3 roundtrip" x_true (Linalg.lu_solve a b)

let test_gauss_seidel () =
  (* Diagonally dominant: converges. *)
  let a = M.of_rows [| [| 4.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x_true = [| 0.5; -1.5 |] in
  let b = M.mul_vec a x_true in
  let x = Linalg.gauss_seidel a b [| 0.0; 0.0 |] in
  Alcotest.(check (float 1e-8)) "gs x0" x_true.(0) x.(0);
  Alcotest.(check (float 1e-8)) "gs x1" x_true.(1) x.(1)

let test_lstsq () =
  (* Fit y = 2x + 1 through exact points: residual zero. *)
  let a = M.of_rows [| [| 1.0; 1.0 |]; [| 2.0; 1.0 |]; [| 3.0; 1.0 |] |] in
  let b = [| 3.0; 5.0; 7.0 |] in
  let x = Linalg.lstsq a b in
  Alcotest.(check (float 1e-9)) "slope" 2.0 x.(0);
  Alcotest.(check (float 1e-9)) "intercept" 1.0 x.(1)

let test_inverse () =
  let a = M.of_rows [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let inv = Linalg.inverse a in
  let prod = M.mul a inv in
  Alcotest.(check (float 1e-9)) "a*inv=I 00" 1.0 (M.get prod 0 0);
  Alcotest.(check (float 1e-9)) "a*inv=I 01" 0.0 (M.get prod 0 1);
  Alcotest.(check (float 1e-9)) "a*inv=I 11" 1.0 (M.get prod 1 1)

(* ---------------- Prng ---------------- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Prng.float a) (Prng.float b)
  done;
  let c = Prng.create 43 in
  Alcotest.(check bool) "different seed differs" true
    (Prng.float (Prng.create 42) <> Prng.float c)

let test_prng_ranges () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let f = Prng.float t in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let i = Prng.int t 10 in
    Alcotest.(check bool) "int in [0,10)" true (i >= 0 && i < 10);
    let u = Prng.uniform t 2.0 5.0 in
    Alcotest.(check bool) "uniform range" true (u >= 2.0 && u < 5.0)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_categorical () =
  let t = Prng.create 11 in
  let counts = Array.make 3 0 in
  let weights = [| 1.0; 2.0; 7.0 |] in
  let n = 20_000 in
  for _ = 1 to n do
    let i = Prng.categorical t weights in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check (float 0.02)) "w0" 0.1 (frac 0);
  Alcotest.(check (float 0.02)) "w1" 0.2 (frac 1);
  Alcotest.(check (float 0.02)) "w2" 0.7 (frac 2);
  Alcotest.check_raises "all zero"
    (Invalid_argument "Prng.categorical: zero total weight") (fun () ->
        ignore (Prng.categorical t [| 0.0; 0.0 |]))

let test_prng_gaussian () =
  let t = Prng.create 5 in
  let xs = Array.init 20_000 (fun _ -> Prng.gaussian t) in
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs
    /. (n -. 1.0)
  in
  Alcotest.(check (float 0.05)) "mean ~ 0" 0.0 mean;
  Alcotest.(check (float 0.05)) "stddev ~ 1" 1.0 (sqrt var)

let test_prng_split () =
  let parent = Prng.create 9 in
  let child = Prng.split parent in
  (* child and parent produce different streams *)
  let a = Array.init 10 (fun _ -> Prng.float parent) in
  let b = Array.init 10 (fun _ -> Prng.float child) in
  Alcotest.(check bool) "independent" true (a <> b)

(* ---------------- Properties ---------------- *)

let qtest name ?(count = 100) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let gen_system =
  (* Well-conditioned random systems: diagonally dominant n x n. *)
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* entries = array_size (return (n * n)) (float_bound_inclusive 1.0) in
  let* x = array_size (return n) (float_bound_inclusive 10.0) in
  let a =
    M.init n n (fun i j ->
        let v = entries.((i * n) + j) in
        if i = j then v +. float_of_int n +. 1.0 else v)
  in
  return (a, x)

let props =
  [ qtest "lu solves what mul produced"
      ~print:(fun (_, x) -> Printf.sprintf "x dim %d" (Array.length x))
      gen_system
      (fun (a, x) ->
         let b = M.mul_vec a x in
         let x' = Linalg.lu_solve a b in
         V.dist_inf x x' < 1e-6);
    qtest "gauss_seidel agrees with lu"
      ~print:(fun (_, x) -> Printf.sprintf "x dim %d" (Array.length x))
      gen_system
      (fun (a, x) ->
         let b = M.mul_vec a x in
         let gs = Linalg.gauss_seidel a b (Array.make (Array.length x) 0.0) in
         let lu = Linalg.lu_solve a b in
         V.dist_inf gs lu < 1e-6);
  ]

let () =
  Alcotest.run "linalg"
    [ ( "vec/mat",
        [ Alcotest.test_case "vec ops" `Quick test_vec_ops;
          Alcotest.test_case "mat ops" `Quick test_mat_ops;
        ] );
      ( "solvers",
        [ Alcotest.test_case "lu 2x2" `Quick test_lu_solve;
          Alcotest.test_case "lu 3x3" `Quick test_lu_solve_3x3;
          Alcotest.test_case "gauss-seidel" `Quick test_gauss_seidel;
          Alcotest.test_case "lstsq" `Quick test_lstsq;
          Alcotest.test_case "inverse" `Quick test_inverse;
        ] );
      ( "prng",
        [ Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "categorical" `Quick test_prng_categorical;
          Alcotest.test_case "gaussian" `Quick test_prng_gaussian;
          Alcotest.test_case "split" `Quick test_prng_split;
        ] );
      ("properties", props);
    ]
