type stage = Learn | Eliminate | Solve | Check

let stage_name = function
  | Learn -> "learn"
  | Eliminate -> "eliminate"
  | Solve -> "solve"
  | Check -> "check"

let fault_site = function
  | Learn -> Fault.Learn
  | Eliminate -> Fault.Eliminate
  | Solve -> Fault.Solve
  | Check -> Fault.Check

(* ------------------------ cancellation tokens ------------------------ *)

exception Deadline_exceeded
exception Cancelled_in_flight

type token = { deadline : float option; cancelled : unit -> bool }

let token_key : token option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_token tok f =
  let slot = Domain.DLS.get token_key in
  let saved = !slot in
  slot := tok;
  Fun.protect ~finally:(fun () -> slot := saved) f

let checkpoint () =
  match !(Domain.DLS.get token_key) with
  | None -> ()
  | Some tok ->
    if tok.cancelled () then raise Cancelled_in_flight;
    (match tok.deadline with
     | Some d when Unix.gettimeofday () > d -> raise Deadline_exceeded
     | _ -> ())

(* ------------------------------ timing ------------------------------ *)

(* One histogram per stage, registered eagerly at module init — on the
   main domain, before any worker can exist — so the probe itself never
   touches the registry mutex. *)
let stage_histogram =
  let mk stage =
    Metrics.histogram "tml_stage_seconds"
      ~help:"Wall-clock seconds spent per pipeline stage"
      ~label:("stage", stage_name stage)
      ~buckets:Metrics.default_time_buckets
  in
  let learn = mk Learn
  and eliminate = mk Eliminate
  and solve = mk Solve
  and check = mk Check in
  function
  | Learn -> learn
  | Eliminate -> eliminate
  | Solve -> solve
  | Check -> check

let time stage f =
  Fault.with_site (fault_site stage) @@ fun () ->
  checkpoint ();
  Trace_span.with_span ("stage:" ^ stage_name stage) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let finish () =
    Metrics.observe (stage_histogram stage) (Unix.gettimeofday () -. t0)
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e
