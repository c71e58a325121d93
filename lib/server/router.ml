type entry = {
  fut : Job.outcome Future.t;
  client : int;
  mutable released : bool;
  (* the [Job_done] report text, rendered once on first read — settled
     jobs are polled/waited repeatedly (fan-in clients, fleet probes) and
     re-rendering through [Format] on every read dominates the settled
     fast path *)
  mutable report : string option;
}

type t = {
  mutex : Mutex.t;
  runtime : Runtime.t;
  admission : Admission.t;
  jobs : (string, entry) Hashtbl.t;
  (* entries still holding an admission ticket ([released = false]) — the
     only ones [sweep] must look at, so a sweep per request costs a nil
     check rather than a walk of the whole settled history *)
  mutable live : entry list;
  (* memo of wire payload -> (job kind, digest): resubmits of an
     identical request (retries, fan-in clients) skip the textual model
     parse and the digest hash — the dominant per-request cost once the
     job itself is deduplicated.  It holds no decoded job (a parsed Data
     Repair or Pipeline job is hundreds of KB): a hit is answered from
     the job table, and only a hit whose digest is missing there (a
     submit the runtime shed, now retried) decodes again. *)
  decode_memo : (Wire.job_request, string * string) Hashtbl.t;
  (* replicated reports pushed by a fleet coordinator (Put_report): a
     bounded FIFO of digest -> rendered report, servable by poll/wait
     even though this node never ran the job *)
  replicas : (string, string) Hashtbl.t;
  replica_fifo : string Queue.t;
  replica_cap : int;
  job_timeout_s : float option;
  retry : Retry.t option;
  mutable draining : bool;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let create ?admission ?job_timeout_s ?retry ?(replica_cap = 256) runtime =
  {
    mutex = Mutex.create ();
    runtime;
    admission =
      (match admission with Some a -> a | None -> Admission.create ());
    jobs = Hashtbl.create 64;
    live = [];
    decode_memo = Hashtbl.create 64;
    replicas = Hashtbl.create 64;
    replica_fifo = Queue.create ();
    replica_cap;
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

(* Admission tickets are released when the job settles.  Futures have no
   completion callback, so every [handle] call sweeps the registry —
   cheap (the table holds at most max_pending unreleased entries plus
   settled history) and prompt enough, since a busy server is exactly a
   server that calls [handle] often. *)
let sweep t =
  let to_release =
    locked t (fun () ->
        match t.live with
        | [] -> []
        | live ->
          let pending, settled =
            List.partition (fun e -> Future.is_pending e.fut) live
          in
          List.iter (fun e -> e.released <- true) settled;
          t.live <- pending;
          List.map (fun e -> e.client) settled)
  in
  List.iter (fun client -> Admission.release t.admission ~client) to_release

(* ---------------------------- responses ---------------------------- *)

let render_outcome outcome = Format.asprintf "%a" Job.pp_outcome outcome

let state_of = function
  | Future.Value outcome -> Wire.Job_done (render_outcome outcome)
  | Future.Failed e -> Wire.Job_failed (Wire.err_of_exn e)
  | Future.Cancelled -> Wire.Job_cancelled
  | Future.Timed_out -> Wire.Job_timed_out

(* [state_of] via the entry's report cache. *)
let state_of_entry e outcome =
  match outcome with
  | Future.Value o -> (
      match e.report with
      | Some r -> Wire.Job_done r
      | None ->
        let r = render_outcome o in
        e.report <- Some r;
        Wire.Job_done r)
  | o -> state_of o

let not_found digest =
  Wire.Error_reply
    {
      Wire.kind = "not-found";
      message = Printf.sprintf "unknown job %s" digest;
      transient = false;
    }

let find t digest = locked t (fun () -> Hashtbl.find_opt t.jobs digest)

let find_replica t digest =
  locked t (fun () -> Hashtbl.find_opt t.replicas digest)

let put_report t ~digest ~report =
  locked t (fun () ->
      if not (Hashtbl.mem t.replicas digest) then begin
        Hashtbl.replace t.replicas digest report;
        Queue.push digest t.replica_fifo;
        while Queue.length t.replica_fifo > t.replica_cap do
          Hashtbl.remove t.replicas (Queue.pop t.replica_fifo)
        done
      end);
  Wire.Stored { job = digest }

let replica_count t = locked t (fun () -> Hashtbl.length t.replicas)

let not_a_coordinator () =
  Wire.Error_reply
    {
      Wire.kind = "bad-request";
      message = "fleet ops require a coordinator (`tml serve --coordinator`)";
      transient = false;
    }

let decode_memo_cap = 512

let decode_counter =
  Metrics.counter "tml_server_job_decodes_total"
    ~help:"Submitted job payloads parsed (submits not answered by the decode memo)"

let decode_job t jr =
  Metrics.incr decode_counter;
  match Wire.job_of_request jr with
  | exception e -> Error e
  | job ->
    let digest = Job.digest job in
    locked t (fun () ->
        if Hashtbl.length t.decode_memo >= decode_memo_cap then
          Hashtbl.reset t.decode_memo;
        Hashtbl.replace t.decode_memo jr (Job.kind job, digest));
    Ok (job, digest)

(* The answer to a submit of a digest this node already knows, if any. *)
let known_submit t digest =
  match find_replica t digest with
  | Some _ ->
    (* a coordinator replicated this digest's finished report to us — no
       need to recompute *)
    Some (Wire.Accepted { job = digest; cached = true })
  | None ->
    match find t digest with
    | Some e ->
      (* duplicate submit: the first ticket is still tracking this job,
         so the new one is returned immediately *)
      Some (Wire.Accepted { job = digest; cached = not (Future.is_pending e.fut) })
    | None -> None

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
        let memo_hit =
          match locked t (fun () -> Hashtbl.find_opt t.decode_memo jr) with
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
            match decode_job t jr with
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
                    | peeked ->
                      locked t (fun () ->
                          let e = { fut; client; released = false; report = None } in
                          Hashtbl.replace t.jobs digest e;
                          t.live <- e :: t.live);
                      Wire.Accepted
                        { job = digest; cached = peeked <> None }))))

let do_status t digest =
  match find t digest with
  | None ->
    (match find_replica t digest with
     | Some report -> Wire.Status { job = digest; state = Wire.Job_done report }
     | None -> not_found digest)
  | Some e ->
    (match Future.peek e.fut with
     | None -> Wire.Status { job = digest; state = Wire.Job_pending }
     | Some outcome ->
       Wire.Status { job = digest; state = state_of_entry e outcome })

let do_wait t digest timeout_s =
  match find t digest with
  | None ->
    (match find_replica t digest with
     | Some report -> Wire.Status { job = digest; state = Wire.Job_done report }
     | None -> not_found digest)
  | Some e ->
    (match Future.await ?timeout_s e.fut with
     | Future.Timed_out when Future.is_pending e.fut ->
       (* the wait's own deadline expired; the job is still running *)
       Wire.Status { job = digest; state = Wire.Job_pending }
     | outcome -> Wire.Status { job = digest; state = state_of_entry e outcome })

let do_cancel t digest =
  match find t digest with
  | None ->
    (match find_replica t digest with
     | Some _ ->
       (* a replicated report is already final — nothing to cancel *)
       Wire.Cancelled { job = digest; cancelled = false }
     | None -> not_found digest)
  | Some e ->
    let cancelled = Future.cancel e.fut in
    Wire.Cancelled { job = digest; cancelled }

(* Which requests may block the caller.  Only a wait on a job that is
   still running parks a thread (in [Future.await]); everything else —
   including a wait whose future has already settled, the common case for
   poll-after-completion clients — answers from memory and can run inline
   on an event loop. *)
let classify t = function
  | Wire.Wait (digest, _) -> (
      match find t digest with
      | Some e -> if Future.is_pending e.fut then `Slow else `Fast
      | None -> `Fast (* not-found or replica: answered immediately *))
  | _ -> `Fast

let handle t ~client req =
  Metrics.incr (op_counter req);
  sweep t;
  let resp =
    try
      match req with
      | Wire.Ping -> Wire.Pong
      | Wire.Stats -> Wire.Stats_reply (Wire.parse (Runtime.stats_json t.runtime))
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
      Hashtbl.fold
        (fun _ e n -> if Future.is_pending e.fut then n + 1 else n)
        t.jobs 0)

let set_draining t = t.draining <- true
let draining t = t.draining

let drain ?timeout_s t =
  set_draining t;
  let futures = locked t (fun () -> Hashtbl.fold (fun _ e acc -> e.fut :: acc) t.jobs []) in
  List.iter (fun fut -> ignore (Future.await ?timeout_s fut : Job.outcome Future.outcome)) futures;
  sweep t
