type problem = {
  dim : int;
  objective : float array -> float;
  inequalities : (string * (float array -> float)) list;
  lower : float array;
  upper : float array;
}

let problem ~dim ~objective ?(inequalities = []) ?lower ?upper () =
  if dim <= 0 then invalid_arg "Nlp.problem: dim must be positive";
  let lower = Option.value ~default:(Array.make dim (-1e3)) lower in
  let upper = Option.value ~default:(Array.make dim 1e3) upper in
  if Array.length lower <> dim || Array.length upper <> dim then
    invalid_arg "Nlp.problem: bound arrays must have length dim";
  Array.iteri
    (fun i lo ->
       if lo > upper.(i) then
         invalid_arg (Printf.sprintf "Nlp.problem: empty box in dimension %d" i))
    lower;
  { dim; objective; inequalities; lower; upper }

type solution = {
  x : float array;
  objective_value : float;
  max_violation : float;
  violated : (string * float) list;
}

type outcome = Feasible of solution | Infeasible of solution

type method_ = Penalty | Augmented_lagrangian

let clamp p x =
  Array.mapi (fun i v -> Float.min p.upper.(i) (Float.max p.lower.(i) v)) x

let violations p x =
  List.map (fun (name, g) -> (name, Float.max 0.0 (g x))) p.inequalities

let max_violation p x =
  List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 (violations p x)

let is_feasible ?(feas_tol = 1e-7) p x = max_violation p x <= feas_tol

let guard v = if Float.is_nan v then infinity else v

(* Clamp into a reusable scratch buffer: the objective/constraint
   closures (arena-compiled programs) read the array and never retain
   it, and each solve owns its own scratch, so the penalty inner loop
   pays zero allocations per evaluation. *)
let clamp_into p dst y =
  for i = 0 to p.dim - 1 do
    Array.unsafe_set dst i
      (Float.min p.upper.(i) (Float.max p.lower.(i) (Array.unsafe_get y i)))
  done

(* One penalty pass: escalate μ, warm-starting each round. *)
let solve_penalty ~max_iter p x0 =
  let x = ref (clamp p x0) in
  let mus = [ 1.0; 10.0; 100.0; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 ] in
  let scratch = Array.make p.dim 0.0 in
  List.iter
    (fun mu ->
       let f y =
         clamp_into p scratch y;
         let base = guard (p.objective scratch) in
         let pen =
           List.fold_left
             (fun acc (_, g) ->
                let v = Float.max 0.0 (guard (g scratch)) in
                acc +. (v *. v))
             0.0 p.inequalities
         in
         base +. (mu *. pen)
       in
       let r = Nelder_mead.minimize ~max_iter f !x in
       x := clamp p r.Nelder_mead.x)
    mus;
  !x

(* Augmented Lagrangian with multiplier updates. *)
let solve_auglag ~max_iter p x0 =
  let k = List.length p.inequalities in
  let lambda = Array.make k 0.0 in
  let mu = ref 10.0 in
  let x = ref (clamp p x0) in
  let scratch = Array.make p.dim 0.0 in
  for _ = 1 to 8 do
    let f y =
      clamp_into p scratch y;
      let base = guard (p.objective scratch) in
      let pen = ref 0.0 in
      List.iteri
        (fun i (_, g) ->
           let gv = guard (g scratch) in
           (* max(0, λ + μ g)² − λ² over 2μ (Rockafellar) *)
           let t = Float.max 0.0 (lambda.(i) +. (!mu *. gv)) in
           pen := !pen +. (((t *. t) -. (lambda.(i) *. lambda.(i))) /. (2.0 *. !mu)))
        p.inequalities;
      base +. !pen
    in
    let r = Nelder_mead.minimize ~max_iter f !x in
    x := clamp p r.Nelder_mead.x;
    List.iteri
      (fun i (_, g) ->
         lambda.(i) <- Float.max 0.0 (lambda.(i) +. (!mu *. guard (g !x))))
      p.inequalities;
    mu := !mu *. 4.0
  done;
  !x

let start_points ~starts ~seed p =
  let rng = Prng.create seed in
  List.init starts (fun i ->
      if i = 0 then
        (* centre of the box, a good deterministic first start *)
        Array.init p.dim (fun j -> (p.lower.(j) +. p.upper.(j)) /. 2.0)
      else
        Array.init p.dim (fun j -> Prng.uniform rng p.lower.(j) p.upper.(j)))

(* Both the objective and the constraints are routed through [guard]: a
   NaN anywhere (a genuinely undefined point, or a value corrupted by an
   installed fault plan) becomes +inf, so it can never win a
   best-candidate fold — NaN comparisons are all false and would
   otherwise poison the folds below. *)
let mk_solution ~feas_tol p x =
  let vs = List.map (fun (name, v) -> (name, guard v)) (violations p x) in
  {
    x;
    objective_value = guard (p.objective x);
    max_violation = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 vs;
    violated = List.filter (fun (_, v) -> v > feas_tol) vs;
  }

let solve ?(method_ = Penalty) ?(starts = 12) ?(seed = 0) ?(feas_tol = 1e-7)
    ?(max_iter = 4000) p =
  if starts < 1 then invalid_arg "Nlp.solve: starts must be >= 1";
  let p = { p with objective = (fun x -> Fault.corrupt Fault.Solve (p.objective x)) } in
  let run =
    match method_ with
    | Penalty -> solve_penalty ~max_iter p
    | Augmented_lagrangian -> solve_auglag ~max_iter p
  in
  let candidates = List.map run (start_points ~starts ~seed p) in
  let solutions = List.map (mk_solution ~feas_tol p) candidates in
  let feasible = List.filter (fun s -> s.max_violation <= feas_tol) solutions in
  let diverged best =
    (* every candidate was NaN-guarded to +inf: the solver saw no finite
       information at all, which is non-convergence, not an answer *)
    not (Float.is_finite best.objective_value)
    && List.for_all (fun s -> not (Float.is_finite s.objective_value)) solutions
  in
  match feasible with
  | [] ->
    let best =
      List.fold_left
        (fun acc s -> if s.max_violation < acc.max_violation then s else acc)
        (List.hd solutions) (List.tl solutions)
    in
    if not (Float.is_finite best.max_violation) then
      raise
        (Tml_error.Error
           (Tml_error.Solver_nonconvergence
              "no start produced a finite constraint evaluation"));
    Infeasible best
  | s :: rest ->
    let best =
      List.fold_left
        (fun acc s ->
           if s.objective_value < acc.objective_value then s else acc)
        s rest
    in
    if diverged best then
      raise
        (Tml_error.Error
           (Tml_error.Solver_nonconvergence
              "no start produced a finite objective"));
    Feasible best

(* --------------------------- fallback ladder --------------------------- *)

(* Augmented Lagrangian, then penalty, then penalty with 3×starts — the
   escalation order suggested by "Model Repair Revamped": try the sharper
   method first, fall back to the more robust one, then widen the
   multistart before conceding infeasibility. *)
type rung = { rung_label : string; rung_method : method_; rung_starts : int }

let default_rungs ~starts =
  [
    { rung_label = "augmented-lagrangian"; rung_method = Augmented_lagrangian;
      rung_starts = starts };
    { rung_label = "penalty"; rung_method = Penalty; rung_starts = starts };
    { rung_label = "penalty-wide"; rung_method = Penalty;
      rung_starts = 3 * starts };
  ]

let rung_counter =
  Metrics.counter "tml_nlp_rungs_total"
    ~help:"NLP fallback-ladder rungs attempted"

let solve_with_fallback ?(starts = 12) ?(seed = 0) ?(feas_tol = 1e-7)
    ?(max_iter = 4000) p =
  let attempt rung =
    Trace_span.with_span "nlp:rung"
      ~attrs:
        [
          ("rung", rung.rung_label);
          ("starts", string_of_int rung.rung_starts);
        ]
      (fun () ->
         solve ~method_:rung.rung_method ~starts:rung.rung_starts ~seed
           ~feas_tol ~max_iter p)
  in
  let rec go best_infeasible transient_failure = function
    | [] -> (
        (* no rung was feasible: report the least-violating point seen,
           or re-raise if every rung failed to converge at all *)
        match (best_infeasible, transient_failure) with
        | Some (s, label), _ -> (Infeasible s, label)
        | None, Some e -> raise e
        | None, None -> assert false)
    | rung :: rest -> (
        Metrics.incr rung_counter;
        match attempt rung with
        | Feasible s -> (Feasible s, rung.rung_label)
        | Infeasible s ->
          let best =
            match best_infeasible with
            | Some (b, _) when b.max_violation <= s.max_violation ->
              best_infeasible
            | _ -> Some (s, rung.rung_label)
          in
          go best transient_failure rest
        | exception (Tml_error.Error k as e)
          when Tml_error.severity k = Tml_error.Transient ->
          go best_infeasible (Some e) rest)
  in
  go None None (default_rungs ~starts)
