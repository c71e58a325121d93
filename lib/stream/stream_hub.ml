(* The watch hub: subscription state for the streaming subsystem.  It
   wraps any {!Server.handler} (a router's or a coordinator's) and
   intercepts the three watch ops; everything else — including the
   repair jobs that violations kick off — goes to the wrapped handler,
   so a hub on a fleet coordinator fans repairs out to backends while
   the watch state stays on the coordinator. *)

(* ----------------------------- metrics ----------------------------- *)

let subs_gauge =
  Metrics.gauge "tml_watch_subscriptions"
    ~help:"Active watch subscriptions (client, watch) pairs"

let watches_gauge =
  Metrics.gauge "tml_watch_watches" ~help:"Registered watches"

let appends_counter =
  Metrics.counter "tml_watch_appends_total"
    ~help:"Trace chunks folded into incremental learners"

let violations_counter =
  Metrics.counter "tml_watch_violations_total"
    ~help:"Appends whose re-check found the property violated"

let notif_counter =
  Metrics.counter "tml_watch_notifications_total"
    ~help:"Notifications broadcast (violation, repair and error events)"

let replayed_counter =
  Metrics.counter "tml_watch_replayed_total"
    ~help:"Logged notifications replayed to reconnecting subscribers"

let detect_hist =
  Metrics.histogram "tml_watch_detect_seconds"
    ~buckets:Metrics.default_time_buckets
    ~help:
      "Latency from chunk arrival to violation detection (the \
       incremental re-check, cached or eliminated)"

(* ------------------------------ types ------------------------------ *)

type watch = {
  id : string;
  spec : Wire.watch_spec;
  learner : Inc_learn.t;
  checker : Inc_check.t;
  wm : Mutex.t;  (* serialises appends (and their checks) per watch *)
  mutable seq : int;  (* last broadcast notification seq, from 0 *)
  mutable subscribers : int list;  (* client ids, newest first *)
  mutable replay : (Wire.notification * int) list;
      (* newest first, bounded by [replay_cap]; the int is the rendered
         frame-body size, for the notification-queue-bytes stat *)
  mutable replay_bytes : int;
}

type task = { tw : watch; digest : string }
(* a violation's repair job to await and broadcast *)

type t = {
  wrapped : Server.handler;
  replay_cap : int;
  repair_wait_s : float;
  m : Mutex.t;  (* registry, subscribers, seq and replay logs *)
  watches : (string, watch) Hashtbl.t;
  mutable push_fn : client:int -> Wire.json -> bool;
  nm : Mutex.t;  (* notifier queue *)
  ncv : Condition.t;
  nq : task Queue.t;
  mutable nbusy : int;  (* tasks taken but not yet broadcast *)
  mutable nquit : bool;
  mutable nthreads : Thread.t list;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let bad message =
  Wire.Error_reply { Wire.kind = "bad-request"; message; transient = false }

(* Coordinators annotate responses with their serving node — unwrap
   before matching. *)
let rec base_response = function
  | Wire.Annotated (_, r) -> base_response r
  | r -> r

(* --------------------------- notifications -------------------------- *)

let update_sub_gauge t =
  let n =
    Hashtbl.fold
      (fun _ w acc -> acc + List.length w.subscribers)
      t.watches 0
  in
  Metrics.set_gauge subs_gauge (float_of_int n)

(* Broadcast one event on [w]: assign the next seq, log it for replay,
   and push it to every live subscriber (a dead one — push refused — is
   dropped).  Called with [t.m] held. *)
let broadcast_locked t w ~event ?value ?job ?report ?error () =
  w.seq <- w.seq + 1;
  let n =
    {
      Wire.watch = w.id;
      seq = w.seq;
      event;
      value;
      job;
      report;
      error;
    }
  in
  let j = Wire.notification_to_json n in
  let size = String.length (Wire.render j) in
  w.replay <- (n, size) :: w.replay;
  w.replay_bytes <- w.replay_bytes + size;
  let rec cap k = function
    | [] -> []
    | [ (_, s) ] when k >= t.replay_cap ->
      w.replay_bytes <- w.replay_bytes - s;
      []
    | e :: rest -> e :: cap (k + 1) rest
  in
  if List.length w.replay > t.replay_cap then begin
    (* drop the oldest entries past the cap (rare: one append, one entry) *)
    let keep = cap 1 w.replay in
    w.replay <- keep
  end;
  Metrics.incr notif_counter;
  ignore
    (Trace_span.event "watch:notify"
       ~attrs:
         [ ("watch", w.id); ("event", event); ("seq", string_of_int w.seq) ]
      : int option);
  let live =
    List.filter (fun client -> t.push_fn ~client j) w.subscribers
  in
  if List.length live <> List.length w.subscribers then begin
    w.subscribers <- live;
    update_sub_gauge t
  end

let broadcast t w ~event ?value ?job ?report ?error () =
  locked t.m (fun () ->
      broadcast_locked t w ~event ?value ?job ?report ?error ())

(* ----------------------------- notifier ----------------------------- *)

(* Await the repair job a violation submitted, then broadcast its
   outcome.  Runs on the hub's own thread so an elimination-heavy
   repair never blocks an event loop or an append. *)
let notifier t () =
  let take () =
    locked t.nm (fun () ->
        let rec go () =
          if t.nquit then None
          else if not (Queue.is_empty t.nq) then begin
            t.nbusy <- t.nbusy + 1;
            Some (Queue.pop t.nq)
          end
          else begin
            Condition.wait t.ncv t.nm;
            go ()
          end
        in
        go ())
  in
  let done_one () =
    locked t.nm (fun () ->
        t.nbusy <- t.nbusy - 1;
        Condition.broadcast t.ncv)
  in
  let rec go () =
    match take () with
    | None -> ()
    | Some { tw; digest } ->
      (let resp =
         try
           base_response
             (t.wrapped.Server.on_request ~client:0
                (Wire.Wait (digest, Some t.repair_wait_s)))
         with e -> Wire.Error_reply (Wire.err_of_exn e)
       in
       match resp with
       | Wire.Status { state = Wire.Job_done report; _ } ->
         broadcast t tw ~event:"repair" ~job:digest ~report ()
       | Wire.Status { state = Wire.Job_failed e; _ } ->
         broadcast t tw ~event:"error" ~job:digest ~error:e ()
       | Wire.Status { state = Wire.Job_cancelled; _ } ->
         broadcast t tw ~event:"error" ~job:digest
           ~error:
             {
               Wire.kind = "cancelled";
               message = "repair job cancelled";
               transient = false;
             }
           ()
       | Wire.Status { state = Wire.Job_timed_out | Wire.Job_pending; _ } ->
         broadcast t tw ~event:"error" ~job:digest
           ~error:
             {
               Wire.kind = "timeout";
               message = "repair job still running past the wait deadline";
               transient = true;
             }
           ()
       | Wire.Error_reply e ->
         broadcast t tw ~event:"error" ~job:digest ~error:e ()
       | _ -> ());
      done_one ();
      go ()
  in
  go ()

let enqueue_repair_wait t w digest =
  locked t.nm (fun () ->
      Queue.push { tw = w; digest } t.nq;
      Condition.broadcast t.ncv)

(* ------------------------------ watch ops --------------------------- *)

let checker_of_spec (s : Wire.watch_spec) =
  let phi = Pctl_parser.parse s.phi in
  let rewards =
    Option.map
      (fun rs -> Array.of_list (List.map Ratio.of_float rs))
      s.rewards
  in
  Inc_check.create ~n:s.states ~init:s.init ~labels:s.labels ?rewards phi

let validate_spec (s : Wire.watch_spec) =
  if s.states < 1 then Some "watch spec: states must be >= 1"
  else if s.init < 0 || s.init >= s.states then
    Some "watch spec: init out of range"
  else None

let subscribe_locked t w client =
  if not (List.mem client w.subscribers) then begin
    w.subscribers <- client :: w.subscribers;
    update_sub_gauge t
  end

let handle_watch_op t ~client ~watch ~spec ~from_seq =
  if watch = "" then bad "watch id must be non-empty"
  else
    match
      match spec with
      | Some s -> (
          match validate_spec s with
          | Some msg -> `Err msg
          | None -> (
              (* parse outside the registry lock; creation below re-checks
                 existence, so a lost race just attaches *)
              match checker_of_spec s with
              | checker -> `Spec (s, checker)
              | exception e ->
                `Err
                  (Printf.sprintf "watch spec: %s"
                     (Wire.err_of_exn e).Wire.message)))
      | None -> `Attach
    with
    | `Err msg -> bad msg
    | (`Spec _ | `Attach) as reg -> (
        let outcome =
          locked t.m (fun () ->
              match (Hashtbl.find_opt t.watches watch, reg) with
              | Some w, `Spec (s, _) when s <> w.spec ->
                `Mismatch
              | Some w, _ ->
                subscribe_locked t w client;
                `Sub (w, false)
              | None, `Attach -> `Unknown
              | None, `Spec (s, checker) ->
                let w =
                  {
                    id = watch;
                    spec = s;
                    learner = Inc_learn.create ~n:s.states;
                    checker;
                    wm = Mutex.create ();
                    seq = 0;
                    subscribers = [];
                    replay = [];
                    replay_bytes = 0;
                  }
                in
                Hashtbl.replace t.watches watch w;
                Metrics.set_gauge watches_gauge
                  (float_of_int (Hashtbl.length t.watches));
                subscribe_locked t w client;
                `Sub (w, true))
        in
        match outcome with
        | `Mismatch ->
          bad
            (Printf.sprintf "watch %S exists with a different spec" watch)
        | `Unknown ->
          bad
            (Printf.sprintf
               "no such watch %S (registration needs a spec)" watch)
        | `Sub (w, created) ->
          ignore
            (Trace_span.event "watch:register"
               ~attrs:
                 [
                   ("watch", watch);
                   ("client", string_of_int client);
                   ("created", string_of_bool created);
                 ]
              : int option);
          (* reconnect catch-up: replay logged notifications the
             subscriber missed.  The pushes are posted to the client's
             event loop, which renders them after the [Watched] reply. *)
          (match from_seq with
           | None -> ()
           | Some from_seq ->
             let missed =
               locked t.m (fun () ->
                   List.filter
                     (fun ((n : Wire.notification), _) -> n.seq > from_seq)
                     (List.rev w.replay))
             in
             List.iter
               (fun ((n : Wire.notification), _) ->
                 if t.push_fn ~client (Wire.notification_to_json n) then
                   Metrics.incr replayed_counter)
               missed);
          Wire.Watched { watch; seq = w.seq; created })

let handle_append t ~client:_ ~watch ~chunk =
  match locked t.m (fun () -> Hashtbl.find_opt t.watches watch) with
  | None -> bad (Printf.sprintf "no such watch %S" watch)
  | Some w ->
    locked w.wm (fun () ->
        let t0 = Unix.gettimeofday () in
        Metrics.incr appends_counter;
        Trace_span.with_span "watch:append"
          ~attrs:
            [ ("watch", watch); ("bytes", string_of_int (String.length chunk)) ]
          (fun () ->
            let r = Inc_learn.append w.learner chunk in
            let verdict =
              (* a reward target the current support cannot reach yet is
                 not an error — the check just has no value *)
              match
                Inc_check.check w.checker
                  ~support_changed:r.Inc_learn.support_changed
                  (Inc_learn.counts w.learner)
              with
              | v -> Some v
              | exception _ -> None
            in
            let value = Option.map (fun v -> v.Inc_check.value) verdict in
            let violated =
              match verdict with Some v -> v.Inc_check.violated | None -> false
            in
            let recheck =
              match verdict with
              | Some { Inc_check.path = `Cached; _ } -> "cached"
              | Some { Inc_check.path = `Eliminated; _ } -> "eliminated"
              | None -> "unavailable"
            in
            let job =
              if not violated then None
              else begin
                Metrics.observe detect_hist (Unix.gettimeofday () -. t0);
                Metrics.incr violations_counter;
                let traces =
                  Trace_io.tallies_to_string (Inc_learn.tallies w.learner)
                in
                let submit =
                  try
                    base_response
                      (t.wrapped.Server.on_request ~client:0
                         (Wire.Submit
                            (Wire.job_request_of_watch w.spec ~traces)))
                  with e -> Wire.Error_reply (Wire.err_of_exn e)
                in
                match submit with
                | Wire.Accepted { job = digest; _ } ->
                  broadcast t w ~event:"violation" ?value ~job:digest ();
                  enqueue_repair_wait t w digest;
                  Some digest
                | Wire.Error_reply e ->
                  broadcast t w ~event:"error" ?value ~error:e ();
                  None
                | _ -> None
              end
            in
            Wire.Appended
              {
                watch;
                lines = r.Inc_learn.lines;
                support_changed = r.Inc_learn.support_changed;
                value;
                violated;
                job;
                recheck;
              }))

let handle_unwatch t ~client ~watch =
  locked t.m (fun () ->
      match Hashtbl.find_opt t.watches watch with
      | None -> Wire.Unwatched { watch; existed = false }
      | Some w ->
        let existed = List.mem client w.subscribers in
        if existed then begin
          w.subscribers <- List.filter (fun c -> c <> client) w.subscribers;
          update_sub_gauge t
        end;
        Wire.Unwatched { watch; existed })

let on_disconnect t ~client =
  locked t.m (fun () ->
      let changed = ref false in
      Hashtbl.iter
        (fun _ w ->
          if List.mem client w.subscribers then begin
            w.subscribers <- List.filter (fun c -> c <> client) w.subscribers;
            changed := true
          end)
        t.watches;
      if !changed then update_sub_gauge t);
  t.wrapped.Server.on_disconnect ~client

(* ------------------------------ handler ----------------------------- *)

let drain t ~timeout_s =
  (* let queued repair notifications go out before the wrapped drain *)
  let deadline = Unix.gettimeofday () +. timeout_s in
  let idle () =
    locked t.nm (fun () -> Queue.is_empty t.nq && t.nbusy = 0)
  in
  while (not (idle ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  locked t.nm (fun () ->
      t.nquit <- true;
      Condition.broadcast t.ncv);
  List.iter Thread.join t.nthreads;
  t.nthreads <- [];
  t.wrapped.Server.on_drain ~timeout_s

let handle t ~client req =
  match req with
  | Wire.Watch_op { watch; spec; from_seq } ->
    handle_watch_op t ~client ~watch ~spec ~from_seq
  | Wire.Append_chunk { watch; chunk } -> handle_append t ~client ~watch ~chunk
  | Wire.Unwatch watch -> handle_unwatch t ~client ~watch
  | req -> t.wrapped.Server.on_request ~client req

let handler t =
  {
    Server.on_request =
      (fun ~client req ->
        try handle t ~client req
        with e -> Wire.Error_reply (Wire.err_of_exn e));
    classify =
      (function
        | Wire.Append_chunk _ -> `Slow  (* parses, checks, may eliminate *)
        | Wire.Watch_op _ | Wire.Unwatch _ -> `Fast
        | req -> t.wrapped.Server.classify req);
    on_stop = (fun () -> t.wrapped.Server.on_stop ());
    on_drain = (fun ~timeout_s -> drain t ~timeout_s);
    pending =
      (fun () ->
        t.wrapped.Server.pending ()
        + locked t.nm (fun () -> Queue.length t.nq + t.nbusy));
    on_disconnect = (fun ~client -> on_disconnect t ~client);
  }

(* ----------------------------- lifecycle ---------------------------- *)

let create ?(replay_cap = 256) ?(repair_wait_s = 120.0) wrapped =
  if replay_cap < 1 then invalid_arg "Stream_hub.create: replay_cap >= 1";
  let t =
    {
      wrapped;
      replay_cap;
      repair_wait_s;
      m = Mutex.create ();
      watches = Hashtbl.create 16;
      push_fn = (fun ~client:_ _ -> false);
      nm = Mutex.create ();
      ncv = Condition.create ();
      nq = Queue.create ();
      nbusy = 0;
      nquit = false;
      nthreads = [];
    }
  in
  t.nthreads <- [ Thread.create (notifier t) () ];
  t

let set_push t push_fn = t.push_fn <- push_fn

let subscriptions t =
  locked t.m (fun () ->
      Hashtbl.fold
        (fun _ w acc -> acc + List.length w.subscribers)
        t.watches 0)

let watch_count t = locked t.m (fun () -> Hashtbl.length t.watches)

let notification_queue_bytes t =
  locked t.m (fun () ->
      Hashtbl.fold (fun _ w acc -> acc + w.replay_bytes) t.watches 0)

let stats_fields t () =
  [
    ("subscriptions", Wire.Num (float_of_int (subscriptions t)));
    ("watches", Wire.Num (float_of_int (watch_count t)));
    ( "notification_queue_bytes",
      Wire.Num (float_of_int (notification_queue_bytes t)) );
  ]
