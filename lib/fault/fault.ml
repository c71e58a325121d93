type site =
  | Learn
  | Eliminate
  | Solve
  | Check
  | Cache
  | Worker
  | Accept
  | Read
  | Decode
  | Write
type action = Raise | Delay of float | Nan

type spec = {
  site : site;
  action : action;
  after : int;
  fires : int;
  rate : float;
}

let spec ?(after = 0) ?(fires = 1) ?(rate = 1.0) site action =
  if after < 0 then invalid_arg "Fault.spec: after must be >= 0";
  if fires < 0 then invalid_arg "Fault.spec: fires must be >= 0";
  if rate < 0.0 || rate > 1.0 then invalid_arg "Fault.spec: rate in [0,1]";
  { site; action; after; fires; rate }

(* Per-installed-plan mutable state, guarded by one mutex (probes are
   called concurrently from worker domains). *)
type armed = { aspec : spec; mutable hits : int; mutable fired : int }

type t = { seed : int; specs : spec list }

type state = {
  mutex : Mutex.t;
  slots : armed list;
  seed : int;
  mutable total : int;
  per_site : (site, int) Hashtbl.t;
}

let plan ?(seed = 0) specs = { seed; specs }

let current : state option Atomic.t = Atomic.make None
let observer : (site -> unit) option Atomic.t = Atomic.make None
let set_observer o = Atomic.set observer o

let install = function
  | None -> Atomic.set current None
  | Some p ->
    Atomic.set current
      (Some
         {
           mutex = Mutex.create ();
           slots = List.map (fun s -> { aspec = s; hits = 0; fired = 0 }) p.specs;
           seed = p.seed;
           total = 0;
           per_site = Hashtbl.create 8;
         })

let site_name = function
  | Learn -> "learn"
  | Eliminate -> "eliminate"
  | Solve -> "solve"
  | Check -> "check"
  | Cache -> "cache"
  | Worker -> "worker"
  | Accept -> "accept"
  | Read -> "read"
  | Decode -> "decode"
  | Write -> "write"

let site_of_string = function
  | "learn" -> Some Learn
  | "eliminate" -> Some Eliminate
  | "solve" -> Some Solve
  | "check" -> Some Check
  | "cache" -> Some Cache
  | "worker" -> Some Worker
  | "accept" -> Some Accept
  | "read" -> Some Read
  | "decode" -> Some Decode
  | "write" -> Some Write
  | _ -> None

let action_of_string ?(delay_s = 0.1) = function
  | "raise" -> Some Raise
  | "delay" -> Some (Delay delay_s)
  | "nan" -> Some Nan
  | _ -> None

let site_index = function
  | Learn -> 0
  | Eliminate -> 1
  | Solve -> 2
  | Check -> 3
  | Cache -> 4
  | Worker -> 5
  | Accept -> 6
  | Read -> 7
  | Decode -> 8
  | Write -> 9

(* SplitMix64 finalizer over (seed, site, occurrence) — deterministic
   per-occurrence coin for rate-limited specs. *)
let coin ~seed ~site ~occurrence =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
      (Int64.add
         (Int64.mul (Int64.of_int (site_index site)) 0xBF58476D1CE4E5B9L)
         (Int64.mul (Int64.of_int occurrence) 0x94D049BB133111EBL))
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

(* Decide which faults fire for one occurrence of [site].  Returns the
   actions to perform, in plan order. *)
let decide st site =
  Mutex.lock st.mutex;
  let fired =
    List.filter_map
      (fun a ->
         if a.aspec.site <> site then None
         else begin
           a.hits <- a.hits + 1;
           if
             a.hits > a.aspec.after
             && a.fired < a.aspec.fires
             && (a.aspec.rate >= 1.0
                 || coin ~seed:st.seed ~site ~occurrence:a.hits < a.aspec.rate)
           then begin
             a.fired <- a.fired + 1;
             st.total <- st.total + 1;
             Hashtbl.replace st.per_site site
               (1 + Option.value ~default:0 (Hashtbl.find_opt st.per_site site));
             Some a.aspec.action
           end
           else None
         end)
      st.slots
  in
  Mutex.unlock st.mutex;
  fired

(* Nan arming is per-domain: a fired Nan fault corrupts floats routed
   through [corrupt] only within the dynamic extent of the faulted site
   on the domain that hit it. *)
let armed_key : site list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_site site f =
  match Atomic.get current with
  | None -> f ()
  | Some st ->
    let actions = decide st site in
    if actions = [] then f ()
    else begin
      let notify () =
        match Atomic.get observer with
        | None -> ()
        | Some o -> List.iter (fun _ -> o site) actions
      in
      notify ();
      List.iter
        (fun action ->
           ignore
             (Trace_span.event "fault:fired"
                ~attrs:
                  [
                    ("site", site_name site);
                    ( "action",
                      match action with
                      | Raise -> "raise"
                      | Nan -> "nan"
                      | Delay s -> Printf.sprintf "delay:%.0fms" (s *. 1e3) );
                  ]
               : int option))
        actions;
      (* Delays first, then arming, then raises: a Raise spec wins. *)
      List.iter
        (function Delay s -> Unix.sleepf s | Raise | Nan -> ())
        actions;
      if List.mem Raise actions then
        raise (Tml_error.Error (Tml_error.Injected_fault (site_name site)));
      if List.mem Nan actions then begin
        let armed = Domain.DLS.get armed_key in
        armed := site :: !armed;
        Fun.protect
          ~finally:(fun () ->
            match !armed with
            | _ :: rest -> armed := rest
            | [] -> ())
          f
      end
      else f ()
    end

let at site = with_site site (fun () -> ())

let corrupt site v =
  match Atomic.get current with
  | None -> v
  | Some _ ->
    if List.mem site !(Domain.DLS.get armed_key) then Float.nan else v

let fired_total () =
  match Atomic.get current with
  | None -> 0
  | Some st ->
    Mutex.lock st.mutex;
    let n = st.total in
    Mutex.unlock st.mutex;
    n

let fired_at site =
  match Atomic.get current with
  | None -> 0
  | Some st ->
    Mutex.lock st.mutex;
    let n = Option.value ~default:0 (Hashtbl.find_opt st.per_site site) in
    Mutex.unlock st.mutex;
    n
