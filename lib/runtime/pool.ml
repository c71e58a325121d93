type task = {
  deadline : float option;  (* absolute, from submit-time timeout *)
  skip : [ `Cancelled | `Timed_out ] -> unit;
  cancelled : unit -> bool;
  pending : unit -> bool;
  crashed : exn -> unit;
  run : unit -> unit;
}

type t = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  queue : task Queue.t;
  capacity : int;
  on_queue_depth : int -> unit;
  on_respawn : exn -> unit;
  mutable stopping : bool;
  mutable respawn_count : int;
  mutable domains : unit Domain.t list;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* One worker domain.  [run_task] is supervised: [task.run] settles the
   future itself and swallows every exception of the job body, so an
   exception escaping here means the worker's own plumbing died (an
   injected [Fault.Worker] fault, or a genuine bug).  The crash handler
   gives the interrupted task back to the queue (its future is still
   pending, so it will be re-run and settle exactly once), spawns a
   replacement domain, and lets this one exit cleanly — domains are only
   ever joined after a normal return, so shutdown never re-raises. *)
let rec worker_loop t () =
  let job =
    locked t (fun () ->
        let rec wait () =
          if not (Queue.is_empty t.queue) then begin
            let task = Queue.pop t.queue in
            Condition.signal t.not_full;
            Some task
          end
          else if t.stopping then None
          else begin
            Condition.wait t.not_empty t.mutex;
            wait ()
          end
        in
        wait ())
  in
  match job with
  | None -> ()
  | Some task -> (
      ignore (Trace_span.event "pool:dequeue" : int option);
      match
        Fault.at Fault.Worker;
        if task.cancelled () then task.skip `Cancelled
        else
          match task.deadline with
          | Some d when Unix.gettimeofday () > d -> task.skip `Timed_out
          | _ -> task.run ()
      with
      | () -> worker_loop t ()
      | exception e -> worker_crashed t task e)

and worker_crashed t task e =
  let respawned =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.respawn_count <- t.respawn_count + 1;
          if task.pending () then begin
            (* requeue the interrupted job; capacity is deliberately
               ignored here — the slot it occupied was already accounted
               for by the original submit *)
            Queue.push task t.queue;
            Condition.signal t.not_empty
          end;
          let d = Domain.spawn (worker_loop t) in
          t.domains <- d :: t.domains;
          true
        end)
  in
  ignore
    (Trace_span.event "pool:respawn"
       ~attrs:[ ("error", Printexc.to_string e) ]
      : int option);
  if not respawned then task.crashed e;
  t.on_respawn e

let create ?(queue_capacity = 64) ?(on_queue_depth = ignore)
    ?(on_respawn = ignore) ~workers () =
  if workers < 1 then invalid_arg "Pool.create: need at least one worker";
  if queue_capacity < 1 then invalid_arg "Pool.create: queue capacity >= 1";
  let t =
    {
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      queue = Queue.create ();
      capacity = queue_capacity;
      on_queue_depth;
      on_respawn;
      stopping = false;
      respawn_count = 0;
      domains = [];
    }
  in
  t.domains <- List.init workers (fun _ -> Domain.spawn (worker_loop t));
  t

let workers t = List.length t.domains
let respawns t = locked t (fun () -> t.respawn_count)

let make_task fut deadline f =
    {
      deadline;
      skip =
        (fun reason ->
           match reason with
           | `Cancelled -> ignore (Future.cancel fut)
           | `Timed_out -> Future.time_out fut);
      cancelled =
        (fun () ->
           match Future.peek fut with
           | Some Future.Cancelled -> true
           | _ -> false);
      pending = (fun () -> Future.is_pending fut);
      crashed = (fun e -> Future.fail fut e);
      run =
        (fun () ->
           (* the token makes the job's Instr stage boundaries poll the
              deadline and the future's cancellation state, so a timed-out
              or cancelled job stops mid-run instead of running to the end *)
           let token =
             { Instr.deadline;
               cancelled = (fun () -> not (Future.is_pending fut)) }
           in
           match Instr.with_token (Some token) f with
           | v -> Future.resolve fut v
           | exception Instr.Deadline_exceeded -> Future.time_out fut
           | exception Instr.Cancelled_in_flight ->
             (* the future was already settled (cancelled) by the caller;
                nothing left to do *)
             ignore (Future.cancel fut)
           | exception e -> Future.fail fut e);
    }

let submit t ?timeout_s f =
  let fut = Future.create () in
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s in
  let task = make_task fut deadline f in
  let depth =
    locked t (fun () ->
        let rec wait () =
          if t.stopping then None
          else if Queue.length t.queue >= t.capacity then begin
            Condition.wait t.not_full t.mutex;
            wait ()
          end
          else begin
            Queue.push task t.queue;
            Condition.signal t.not_empty;
            Some (Queue.length t.queue)
          end
        in
        wait ())
  in
  (match depth with
   | Some d -> t.on_queue_depth d
   | None ->
     (* submit-after-shutdown: settle rather than raise, so a batch racing
        a shutdown never leaks an unsettled future *)
     ignore (Future.cancel fut));
  fut

let try_submit t ?timeout_s f =
  let fut = Future.create () in
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s in
  let task = make_task fut deadline f in
  let verdict =
    locked t (fun () ->
        if t.stopping then `Stopping
        else if Queue.length t.queue >= t.capacity then `Full
        else begin
          Queue.push task t.queue;
          Condition.signal t.not_empty;
          `Queued (Queue.length t.queue)
        end)
  in
  match verdict with
  | `Queued d ->
    t.on_queue_depth d;
    Some fut
  | `Stopping ->
    ignore (Future.cancel fut);
    Some fut
  | `Full -> None

let shutdown ?(drain = true) t =
  let rec join_all () =
    (* a crashing worker may spawn a replacement concurrently with
       shutdown; loop until the domain list is stable and fully joined *)
    let to_join =
      locked t (fun () ->
          t.stopping <- true;
          if not drain then begin
            Queue.iter (fun task -> task.skip `Cancelled) t.queue;
            Queue.clear t.queue
          end;
          Condition.broadcast t.not_empty;
          Condition.broadcast t.not_full;
          let ds = t.domains in
          t.domains <- [];
          ds)
    in
    if to_join <> [] then begin
      List.iter Domain.join to_join;
      join_all ()
    end
  in
  join_all ()
