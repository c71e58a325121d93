(* A job as the router holds it.  The first poll or wait that finds the
   future settled renders its reply state once — settled jobs are
   polled/waited repeatedly (fan-in clients, fleet probes) and
   re-rendering through [Format] on every read dominates the settled fast
   path — and from then on the entry keeps only that state: the outcome
   itself (a repaired model, a Q-table's policy, learned tallies) is
   dropped, so a settled entry costs its report text, not its outcome. *)
type slot =
  | Running of Job.outcome Future.t
  | Settled of Wire.job_state  (** never [Job_pending] *)

type entry = { mutable slot : slot }

(* Two generations of a bounded map: inserts go to [young], and when it
   holds [cap] keys it becomes [old] and the previous [old] is dropped
   whole — eviction is O(1) amortised, with no scan.  A hit in [old]
   moves the key back to [young], so a key read at least once per [cap]
   inserts is never evicted.  At most [2 * cap] keys are held. *)
module Gens = struct
  type 'a t = {
    cap : int;
    mutable young : (string, 'a) Hashtbl.t;
    mutable old : (string, 'a) Hashtbl.t;
  }

  let create cap = { cap; young = Hashtbl.create 64; old = Hashtbl.create 1 }

  let add t key v =
    Hashtbl.remove t.old key;
    Hashtbl.replace t.young key v;
    if Hashtbl.length t.young >= t.cap then begin
      t.old <- t.young;
      t.young <- Hashtbl.create 64
    end

  let find t key =
    match Hashtbl.find_opt t.young key with
    | Some _ as found -> found
    | None ->
      let found = Hashtbl.find_opt t.old key in
      Option.iter (add t key) found;
      found
end

type t = {
  mutex : Mutex.t;
  runtime : Runtime.t;
  admission : Admission.t;
  (* The job table, keyed by digest.  Digests are content addresses (a
     job is a deterministic function of its inputs), so this is the one
     store of finished reports: a resubmit, poll or wait of a known
     digest is answered here.  Jobs that hold an admission ticket sit in
     [running] with the ticket's client and are never evicted; [sweep]
     moves them to [settled] once their future settles.  [settled] also
     takes the reports a fleet coordinator replicates to this node
     ([Put_report]).  It is bounded, and a digest it has evicted answers
     ["not-found"], which a client answers by resubmitting. *)
  running : (string, int * entry) Hashtbl.t;
  settled : entry Gens.t;
  (* Memo of wire payload -> (job kind, digest), keyed on an MD5 of the
     payload: resubmits of an identical request (retries, fan-in clients)
     skip the textual model parse and the job digest — the dominant
     per-request cost once the job itself is deduplicated.  It holds
     neither the payload (a repair_mix request carries KBs of trace text)
     nor a decoded job (a parsed Data Repair or Pipeline job is hundreds
     of KB): a hit is answered from the job table, and only a hit whose
     digest is missing there (a submit the runtime shed, now retried, or
     an evicted report) decodes again. *)
  decode_memo : (string * string) Gens.t;
  job_timeout_s : float option;
  retry : Retry.t option;
  mutable draining : bool;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The settled half of the job table and the decode memo each keep
   between one and two generations of this many keys. *)
let settled_cap = 1024
let decode_memo_cap = 512

let create ?admission ?job_timeout_s ?retry runtime =
  {
    mutex = Mutex.create ();
    runtime;
    admission =
      (match admission with Some a -> a | None -> Admission.create ());
    running = Hashtbl.create 64;
    settled = Gens.create settled_cap;
    decode_memo = Gens.create decode_memo_cap;
    job_timeout_s;
    retry;
    draining = false;
  }

let admission t = t.admission

(* ----------------------------- metrics ----------------------------- *)

let op_counter =
  let mk op =
    Metrics.counter "tml_server_requests_total" ~label:("op", op)
      ~help:"Requests handled, by op"
  in
  let submit = mk "submit"
  and poll = mk "poll"
  and wait = mk "wait"
  and cancel = mk "cancel"
  and stats = mk "stats"
  and ping = mk "ping"
  and put_report = mk "put-report"
  and fleet = mk "fleet"
  and drain = mk "drain"
  and watch = mk "watch"
  and append_chunk = mk "append-chunk"
  and unwatch = mk "unwatch" in
  function
  | Wire.Submit _ -> submit
  | Wire.Poll _ -> poll
  | Wire.Wait _ -> wait
  | Wire.Cancel _ -> cancel
  | Wire.Stats -> stats
  | Wire.Ping -> ping
  | Wire.Put_report _ -> put_report
  | Wire.Fleet_status -> fleet
  | Wire.Drain_node _ -> drain
  | Wire.Watch_op _ -> watch
  | Wire.Append_chunk _ -> append_chunk
  | Wire.Unwatch _ -> unwatch

let kind_counter =
  let mk kind =
    Metrics.counter "tml_server_jobs_total" ~label:("kind", kind)
      ~help:"Jobs submitted over the wire, by kind"
  in
  let check = mk "check"
  and model = mk "model-repair"
  and data = mk "data-repair"
  and reward = mk "reward-repair"
  and pipeline = mk "pipeline" in
  function
  | "check" -> check
  | "model-repair" -> model
  | "data-repair" -> data
  | "reward-repair" -> reward
  | _ -> pipeline

let outcome_counter =
  let mk o =
    Metrics.counter "tml_server_responses_total" ~label:("outcome", o)
      ~help:"Responses sent, by outcome"
  in
  let ok = mk "ok" and error = mk "error" and overloaded = mk "overloaded" in
  function
  | Wire.Error_reply e when e.Wire.kind = "overloaded" -> overloaded
  | Wire.Error_reply _ -> error
  | _ -> ok

(* ------------------------------ sweep ------------------------------ *)

let running e =
  match e.slot with Running fut -> Future.is_pending fut | Settled _ -> false

(* Admission tickets are released when the job settles.  Futures have no
   completion callback, so every [handle] call sweeps the running jobs —
   at most max_pending of them — into the settled table: cheap, and
   prompt enough, since a busy server is exactly a server that calls
   [handle] often. *)
let sweep t =
  let to_release =
    locked t (fun () ->
        if Hashtbl.length t.running = 0 then []
        else
          Hashtbl.fold
            (fun digest (client, e) acc ->
               if running e then acc else (digest, client, e) :: acc)
            t.running []
          |> List.map (fun (digest, client, e) ->
              Hashtbl.remove t.running digest;
              Gens.add t.settled digest e;
              client))
  in
  List.iter (fun client -> Admission.release t.admission ~client) to_release

(* ---------------------------- responses ---------------------------- *)

let render_outcome outcome = Format.asprintf "%a" Job.pp_outcome outcome

let state_of = function
  | Future.Value outcome -> Wire.Job_done (render_outcome outcome)
  | Future.Failed e -> Wire.Job_failed (Wire.err_of_exn e)
  | Future.Cancelled -> Wire.Job_cancelled
  | Future.Timed_out -> Wire.Job_timed_out

(* The entry's reply state, [None] while its job runs; the first read
   of a settled future renders it and drops the outcome.  Entries are
   read outside the lock: two first reads may both render, and they
   render the same text. *)
let settled_state e =
  match e.slot with
  | Settled st -> Some st
  | Running fut ->
    Option.map
      (fun outcome ->
         let st = state_of outcome in
         e.slot <- Settled st;
         st)
      (Future.peek fut)

let not_found digest =
  Wire.Error_reply
    {
      Wire.kind = "not-found";
      message = Printf.sprintf "unknown job %s" digest;
      transient = false;
    }

let find_locked t digest =
  match Hashtbl.find_opt t.running digest with
  | Some (_, e) -> Some e
  | None -> Gens.find t.settled digest

let find t digest = locked t (fun () -> find_locked t digest)

(* A replicated report never replaces what this node holds for the
   digest: a running job, or a reply it rendered itself. *)
let put_report t ~digest ~report =
  locked t (fun () ->
      if find_locked t digest = None then
        Gens.add t.settled digest { slot = Settled (Wire.Job_done report) });
  Wire.Stored { job = digest }

let not_a_coordinator () =
  Wire.Error_reply
    {
      Wire.kind = "bad-request";
      message = "fleet ops require a coordinator (`tml serve --coordinator`)";
      transient = false;
    }

let payload_key (jr : Wire.job_request) =
  Digest.string (Marshal.to_string jr [ Marshal.No_sharing ])

let memo_find t key = locked t (fun () -> Gens.find t.decode_memo key)
let memo_add t key ~kind ~job = locked t (fun () -> Gens.add t.decode_memo key (kind, job))

let decode_counter =
  Metrics.counter "tml_server_job_decodes_total"
    ~help:"Submitted job payloads parsed (submits not answered by the decode memo)"

let decode_job t key jr =
  Metrics.incr decode_counter;
  match Wire.job_of_request jr with
  | exception e -> Error e
  | job ->
    let digest = Job.digest job in
    memo_add t key ~kind:(Job.kind job) ~job:digest;
    Ok (job, digest)

(* The answer to a submit of a digest this node already knows, if any:
   a duplicate of a running job shares its future, and a settled one is
   answered from its reply. *)
let known_submit t digest =
  Option.map
    (fun e -> Wire.Accepted { job = digest; cached = not (running e) })
    (find t digest)

let do_submit t ~client jr =
  if t.draining then
    Wire.Error_reply
      {
        Wire.kind = "unavailable";
        message = "server is draining";
        transient = true;
      }
  else
    match Admission.admit t.admission ~client with
    | (Admission.Shed_queue_full | Admission.Shed_client_limit) as v ->
      Wire.Error_reply (Wire.err_of_exn (Admission.overloaded_error v))
    | Admission.Admitted -> (
        let release () = Admission.release t.admission ~client in
        let key = payload_key jr in
        let memo_hit =
          match memo_find t key with
          | None -> None
          | Some (kind, digest) ->
            Option.map (fun resp -> (kind, resp)) (known_submit t digest)
        in
        match memo_hit with
        | Some (kind, resp) ->
          Metrics.incr (kind_counter kind);
          release ();
          resp
        | None -> (
            match decode_job t key jr with
            | Error e ->
              release ();
              Wire.Error_reply (Wire.err_of_exn e)
            | Ok (job, digest) -> (
                Metrics.incr (kind_counter (Job.kind job));
                match known_submit t digest with
                | Some resp ->
                  release ();
                  resp
                | None -> (
                    let fut =
                      Runtime.submit t.runtime ?timeout_s:t.job_timeout_s
                        ?retry:t.retry job
                    in
                    match Future.peek fut with
                    | Some (Future.Failed (Tml_error.Error (Tml_error.Overloaded _) as e)) ->
                      (* the runtime's own bounded queue shed it *)
                      release ();
                      Wire.Error_reply (Wire.err_of_exn e)
                    | _ ->
                      (* a concurrent submit of the same digest may have
                         got here first: its entry keeps the ticket, and
                         this duplicate run is not needed *)
                      let first =
                        locked t (fun () ->
                            if Hashtbl.mem t.running digest then false
                            else begin
                              Hashtbl.add t.running digest (client, { slot = Running fut });
                              true
                            end)
                      in
                      if not first then begin
                        ignore (Future.cancel fut : bool);
                        release ()
                      end;
                      Wire.Accepted { job = digest; cached = false }))))

let do_status t digest =
  match find t digest with
  | None -> not_found digest
  | Some e ->
    let state = Option.value (settled_state e) ~default:Wire.Job_pending in
    Wire.Status { job = digest; state }

let do_wait t digest timeout_s =
  match find t digest with
  | None -> not_found digest
  | Some e ->
    (match e.slot with
     | Running fut -> ignore (Future.await ?timeout_s fut : Job.outcome Future.outcome)
     | Settled _ -> ());
    (* still running means the wait's own deadline expired *)
    let state = Option.value (settled_state e) ~default:Wire.Job_pending in
    Wire.Status { job = digest; state }

let do_cancel t digest =
  match find t digest with
  | None -> not_found digest
  | Some e ->
    let cancelled =
      match e.slot with Running fut -> Future.cancel fut | Settled _ -> false
    in
    Wire.Cancelled { job = digest; cancelled }

(* Which requests may block the caller.  Only a wait on a job that is
   still running parks a thread (in [Future.await]); everything else —
   including a wait whose future has already settled, the common case for
   poll-after-completion clients — answers from memory and can run inline
   on an event loop. *)
let classify t = function
  | Wire.Wait (digest, _) -> (
      match find t digest with
      | Some e -> if running e then `Slow else `Fast
      | None -> `Fast (* not-found: answered immediately *))
  | _ -> `Fast

let handle t ~client req =
  Metrics.incr (op_counter req);
  sweep t;
  let resp =
    try
      match req with
      | Wire.Ping -> Wire.Pong
      | Wire.Stats -> Wire.Stats_reply (Runtime.stats_json t.runtime)
      | Wire.Submit jr -> do_submit t ~client jr
      | Wire.Poll digest -> do_status t digest
      | Wire.Wait (digest, timeout_s) -> do_wait t digest timeout_s
      | Wire.Cancel digest -> do_cancel t digest
      | Wire.Put_report { job; report } -> put_report t ~digest:job ~report
      | Wire.Fleet_status | Wire.Drain_node _ -> not_a_coordinator ()
      | Wire.Watch_op _ | Wire.Append_chunk _ | Wire.Unwatch _ ->
        (* watch ops are served by the Stream_hub handler wrapper; a
           bare router means this node was started without one *)
        Wire.Error_reply
          {
            kind = "bad-request";
            message = "this server has no watch hub";
            transient = false;
          }
    with e -> Wire.Error_reply (Wire.err_of_exn e)
  in
  sweep t;
  Metrics.incr (outcome_counter resp);
  resp

(* ------------------------------ drain ------------------------------ *)

let pending_jobs t =
  locked t (fun () ->
      Hashtbl.fold (fun _ (_, e) n -> if running e then n + 1 else n) t.running 0)

let set_draining t = t.draining <- true
let draining t = t.draining

let drain ?timeout_s t =
  set_draining t;
  let futures =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ (_, e) acc ->
             match e.slot with Running fut -> fut :: acc | Settled _ -> acc)
          t.running [])
  in
  List.iter (fun fut -> ignore (Future.await ?timeout_s fut : Job.outcome Future.outcome)) futures;
  sweep t
