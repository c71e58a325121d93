(* Seeded workload inputs, built from the paper's two case studies: the
   §V-A wireless-sensor-network query router (Model, Data and Pipeline
   jobs, and the streamed observations of a watch) and the §V-B car
   controller (Reward Repair).  Everything here is a pure function of the
   workload seed and an index, so a run is reproducible from its seed and
   the server only ever sees the generated wire frames. *)

(* One independent stream per (seed, purpose, index). *)
let rng seed purpose i = Prng.create ((seed * 1_000_003) + (purpose * 7919) + i)

(* ----------------------------- WSN pieces ---------------------------- *)

let wsn_params n = { Wsn.default_params with Wsn.n }
let wsn_model = Array.init 5 (fun n -> if n < 3 then "" else Dtmc_io.to_string (Wsn.chain (wsn_params n)))
let wsn_states n = n * n
let wsn_labels = [ ("delivered", [ 0 ]) ]
let wsn_rewards n = List.init (wsn_states n) (fun s -> if s = 0 then 0.0 else 1.0)

(* The §V-A.1 correction spec ([Wsn.repair_spec]) in the CLI's textual
   syntax: each delta is linear in p and q, so its coefficients are its
   values at the two unit points. *)
let wsn_model_spec n =
  let spec = Wsn.repair_spec (wsn_params n) in
  let term coef var =
    if coef = 0.0 then ""
    else Printf.sprintf "%c%g*%s" (if coef < 0.0 then '-' else '+') (Float.abs coef) var
  in
  let delta (i, j, f) =
    let at p q = Ratfun.eval_float (function "p" -> p | _ -> q) f in
    Printf.sprintf "%d,%d,%s%s" i j (term (at 1.0 0.0) "p") (term (at 0.0 1.0) "q")
  in
  ( List.map (fun (v, lo, hi) -> Printf.sprintf "%s:%g:%g" v lo hi)
      spec.Model_repair.variables,
    List.map delta spec.Model_repair.deltas )

let wsn_spec_text = Array.init 5 (fun n -> if n < 3 then ([], []) else wsn_model_spec n)

(* Expected attempts of the unrepaired chain: bounds below it need a
   repair, so every Model Repair job below runs the full repair path. *)
let wsn_attempts = Array.init 5 (fun n -> if n < 3 then 0.0 else Wsn.expected_attempts (wsn_params n))

let observations r ~count =
  Trace_io.to_string (Wsn.observation_groups r (wsn_params 3) ~count)

(* Observations that cover every edge a model-repair delta touches: every
   retry and every forward of every node.  A pipeline's learned chain then
   keeps the structure its spec corrects, and every node of a learned chain
   reaches delivery almost surely (a node never seen forwarding makes a
   Data Repair fail with [Elimination.Not_almost_sure]).  A draw that
   misses an edge (possible for small counts) is redrawn from the same
   stream. *)
let delta_edges = List.map (fun (i, j, _) -> (i, j)) (Wsn.repair_spec (wsn_params 3)).Model_repair.deltas

let rec covering_observations r ~count =
  let groups = Wsn.observation_groups r (wsn_params 3) ~count in
  let c = Mle.transition_counts ~n:(wsn_states 3) (List.concat_map snd groups) in
  if List.for_all (fun (i, j) -> c.(i).(j) > 0.0) delta_edges then Trace_io.to_string groups
  else covering_observations r ~count

(* a bound with three decimals, so seeded jobs essentially never repeat *)
let bound r lo hi = Float.round (Prng.uniform r lo hi *. 1000.0) /. 1000.0
let reward_phi b = Printf.sprintf "R<=%g [ F delivered ]" b

(* ----------------------------- repair_mix ---------------------------- *)

let kinds = [| "model-repair"; "data-repair"; "reward-repair"; "pipeline" |]

type sizes = { obs_lo : int; obs_hi : int }

let full_sizes = { obs_lo = 600; obs_hi = 3000 }
let smoke_sizes = { obs_lo = 600; obs_hi = 900 }

let car_mdp = lazy (Mdp_io.to_string (Car.mdp ()))

(* The [k]-th of a run's stratified draws in [lo, hi): the golden-ratio
   sequence shifted by a seeded offset.  Whatever the seed, a run's draws
   cover the range evenly, so two seeds give different jobs of the same
   overall cost; independent draws would let a run's mix, and every
   aggregate figure with it, drift with the seed. *)
let level seed purpose k lo hi =
  let u = Float.rem (Prng.float (rng seed purpose 0) +. (0.6180339887498949 *. float_of_int k)) 1.0 in
  lo +. (u *. (hi -. lo))

let obs_count ~sizes seed purpose k =
  int_of_float (level seed purpose k (float_of_int sizes.obs_lo) (float_of_int sizes.obs_hi +. 1.0))

let round3 x = Float.round (x *. 1000.0) /. 1000.0

(* Job [i] of a repair_mix run.  Kinds rotate so every stretch of four
   jobs holds one of each; within a kind the sizes and bounds are
   stratified draws and the observations are seeded. *)
let repair_job ~sizes seed i =
  let r = rng seed 1 i and k = i / 4 in
  match i mod 4 with
  | 0 ->
    (* Model Repair on the n=3 grid or (one job in three) the n=4 grid,
       bound 75-90% of the chain's expected attempts *)
    let n = if level seed 11 k 0.0 3.0 < 1.0 then 4 else 3 in
    let variables, deltas = wsn_spec_text.(n) in
    let e = wsn_attempts.(n) in
    Wire.Model_repair_req
      {
        model = wsn_model.(n);
        phi = reward_phi (round3 (level seed 12 k (0.75 *. e) (0.9 *. e)));
        variables;
        deltas;
        starts = 2;
        backend = "nlp";
      }
  | 1 ->
    Wire.Data_repair_req
      {
        states = 9;
        init = 8;
        labels = wsn_labels;
        rewards = Some (wsn_rewards 3);
        phi = reward_phi (round3 (level seed 13 k 18.5 20.5));
        traces = covering_observations r ~count:(obs_count ~sizes seed 14 k);
        max_drop = 0.999;
        pinned = [ "success" ];
        starts = 2;
        backend = "nlp";
      }
  | 2 ->
    let c = Car.unsafe_q_constraint in
    Wire.Reward_repair_req
      {
        mdp = Lazy.force car_mdp;
        theta = Array.to_list Car.paper_learned_theta;
        constraints = [ (c.Reward_repair.state, c.better, c.worse, c.margin) ];
        gamma = level seed 15 k 0.88 0.92;
        (* one start keeps a car repair near half a second, so a run fits
           well over 100 jobs *)
        starts = 1;
      }
  | _ ->
    let variables, deltas = wsn_spec_text.(3) in
    Wire.Pipeline_req
      {
        states = 9;
        init = 8;
        labels = wsn_labels;
        rewards = Some (wsn_rewards 3);
        model_spec = Some (variables, deltas);
        data_spec = Some (0.999, [ "success" ]);
        traces = covering_observations r ~count:(obs_count ~sizes seed 16 k);
        phi = reward_phi (round3 (level seed 17 k 18.5 20.5));
      }

(* ------------------------------ warm_rpc ----------------------------- *)

(* The completed repairs set-up puts in the report cache: Model Repairs
   on the n=3 grid, each against its own bound. *)
let fill_job seed i =
  let r = rng seed 2 i in
  let variables, deltas = wsn_spec_text.(3) in
  let e = wsn_attempts.(3) in
  Wire.Model_repair_req
    {
      model = wsn_model.(3);
      phi = reward_phi (bound r (0.75 *. e) (0.9 *. e));
      variables;
      deltas;
      starts = 2;
      backend = "nlp";
    }

type rpc_op =
  | Resubmit of int  (** fill job index *)
  | Wait_done of int
  | Poll_done of int
  | Fresh_check of int  (** fresh-check serial number *)

(* Op [i] of a warm_rpc stream: ~50% resubmits, ~30% waits/polls on
   completed digests, ~20% fresh checks. *)
let rpc_op ~fill seed i =
  let r = rng seed 3 i in
  let x = Prng.float r in
  if x < 0.5 then Resubmit (Prng.int r fill)
  else if x < 0.65 then Wait_done (Prng.int r fill)
  else if x < 0.8 then Poll_done (Prng.int r fill)
  else Fresh_check i

(* A check whose bound never repeats within a run: the serial number is
   folded into the bound's low digits. *)
let fresh_check seed i =
  let r = rng seed 4 i in
  let b = Float.of_int (40 + Prng.int r 20) +. (Float.of_int (i mod 1_000_000) /. 1e6) in
  Wire.Check_req { model = wsn_model.(3); phi = Printf.sprintf "R<=%.6f [ F delivered ]" b }

(* ---------------------------- watch_stream --------------------------- *)

let watch_spec phi =
  {
    Wire.states = 9;
    init = 8;
    labels = wsn_labels;
    rewards = Some (wsn_rewards 3);
    phi;
    max_drop = 0.999;
    pinned = [ "success" ];
    starts = 2;
    backend = "nlp";
  }

(* Watch 0 carries the paper's R<=19 bound, which the learned chain
   violates on every check; the others carry loose bounds that hold.  The
   chain's expected attempts are ~47, and a learned chain's early estimate
   reached 106 on one seed in 300, so loose bounds lie at 4-5 times it. *)
let watch_names k = List.init k (Printf.sprintf "w%d")
let watch_phi seed w =
  if w = 0 then reward_phi 19.0
  else reward_phi (bound (rng seed 5 w) 200.0 250.0)

(* A loose watch's chunk: ~16 observation lines (plus group headers). *)
let small_chunk seed i = observations (rng seed 6 i) ~count:14

(* Watch [w]'s first chunk: 200 observations covering every retry and
   forwarding edge.  The strict watch's reward query is then checkable
   from its first append.  A loose watch fed only small chunks could
   early on learn a node that forwards once in many retries: its estimate
   then breaks even a loose bound, and the Data Repair the violation
   submits can fail ([Elimination.Not_almost_sure]) on that sparse
   history. *)
let first_chunk seed w = covering_observations (rng seed 7 w) ~count:200

(* The strict watch's later chunks: one observation each. *)
let strict_chunk seed i = observations (rng seed 8 i) ~count:1
