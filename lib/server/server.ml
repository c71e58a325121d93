(* The event-driven serving core: readiness loops over {!Poll} (epoll
   with a select fallback), accept sharded across loops, incremental
   {!Wire.Decoder} framing, buffered writes with admission-tied
   backpressure, and a fixed executor pool for the few request kinds
   that genuinely block. *)

type addr = [ `Unix of string | `Tcp of string * int ]

(* What the loops serve: a router over a local runtime, or a fleet
   coordinator fanning out to backends — the server itself only moves
   frames.  [classify] decides where a request runs: [`Fast] inline on
   the event loop, [`Slow] on the executor pool. *)
type handler = {
  on_request : client:int -> Wire.request -> Wire.response;
  classify : Wire.request -> [ `Fast | `Slow ];
  on_stop : unit -> unit;  (* begin refusing new work (non-blocking) *)
  on_drain : timeout_s:float -> unit;  (* await in-flight work *)
  pending : unit -> int;
  on_disconnect : client:int -> unit;
      (* connection closed (any reason); watch hubs drop subscriptions *)
}

let handler_of_router router =
  {
    on_request = (fun ~client req -> Router.handle router ~client req);
    classify = (fun req -> Router.classify router req);
    on_stop = (fun () -> Router.set_draining router);
    on_drain = (fun ~timeout_s -> Router.drain ~timeout_s router);
    pending = (fun () -> Router.pending_jobs router);
    on_disconnect = (fun ~client:_ -> ());
  }

(* On every Unix OCaml port a file_descr is the int it wraps. *)
external fd_int : Unix.file_descr -> int = "%identity"

(* ----------------------------- metrics ----------------------------- *)

let latency_hist =
  Metrics.histogram "tml_server_request_seconds"
    ~buckets:Metrics.default_time_buckets
    ~help:"End-to-end request latency (frame read to response written)"

let conn_gauge =
  Metrics.gauge "tml_server_connections" ~help:"Open client connections"

let iter_counter =
  Metrics.counter "tml_server_loop_iterations_total"
    ~help:"Event-loop wakeups (poll returns), summed over all loops"

let wq_gauge =
  Metrics.gauge "tml_server_write_queue_bytes"
    ~help:"Response bytes buffered for write, summed over all connections"

let zero_copy_saved =
  Metrics.counter "tml_server_zero_copy_bytes_saved_total"
    ~help:
      "Reply bytes rendered directly into connection write buffers \
       (bytes that previously took an intermediate frame-string copy)"

let push_counter =
  Metrics.counter "tml_server_push_frames_total"
    ~help:"Server-push notification frames rendered to subscribers"

let push_shed_counter =
  Metrics.counter "tml_server_push_shed_total"
    ~help:
      "Push frames dropped because the subscriber's write queue was at \
       its cap (the watch replay log covers the gap)"

(* ------------------------------ types ------------------------------ *)

type conn = {
  client : int;
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  out : Json.Obuf.t;  (* frames render straight in, writes drain the front *)
  mutable reading : bool;  (* current poller interest *)
  mutable writing : bool;
  mutable busy : bool;  (* a [`Slow] request is on the executor *)
  mutable closing : bool;  (* flush the write queue, then close *)
  mutable closed : bool;
  mutable last_rx : float;  (* last byte read (mid-frame stall deadline) *)
  mutable last_tx : float;  (* last write progress (write deadline) *)
  accept_span : int option;
}

type msg =
  | Add_conn of Unix.file_descr  (* dispatcher -> loop: adopt this socket *)
  | Reply of conn * int * Wire.response * float  (* executor -> loop *)
  | Push of conn * Wire.json
      (* hub -> loop: render a server-push frame into this connection's
         write buffer.  Always applied on the owning loop, so push
         frames interleave with pipelined replies only at frame
         boundaries — never inside one. *)

type loop = {
  idx : int;
  poll : Poll.t;
  mutable listen : Unix.file_descr option;
  wake_r : Unix.file_descr;  (* cross-thread wakeup pipe *)
  wake_w : Unix.file_descr;
  mb_mutex : Mutex.t;
  mutable mailbox : msg list;  (* newest first; drained each iteration *)
  inflight : int Atomic.t;  (* executor tasks that will post back here *)
  conns : (int, conn) Hashtbl.t;  (* fd -> conn; loop-private *)
  rbuf : Bytes.t;  (* read scratch, shared by this loop's connections *)
  mutable last_sweep : float;
  mutable stopping : bool;
}

type task = {
  t_loop : loop;
  t_conn : conn;
  t_id : int;
  t_req : Wire.request;
  t_t0 : float;
}

type exec = {
  em : Mutex.t;
  ecv : Condition.t;
  eq : task Queue.t;
  mutable quit : bool;
  mutable threads : Thread.t list;
}

type t = {
  handler : handler;
  addr : addr;
  bound_port : int option;
  read_timeout_s : float;
  write_timeout_s : float;
  max_frame : int;
  drain_timeout_s : float;
  max_write_buffer : int;
  tick_ms : int;  (* poll timeout: bounds stop-flag and deadline latency *)
  dispatch : bool;  (* accepts are re-routed round-robin across loops *)
  stop : bool Atomic.t;
  stop_mutex : Mutex.t;
  mutable stopped : bool;
  loops : loop array;
  mutable domains : unit Domain.t list;
  exec : exec;
  next_client : int Atomic.t;
  conn_count : int Atomic.t;
  wq_bytes : int Atomic.t;
  rr : int Atomic.t;  (* round-robin cursor for dispatched accepts *)
  clients_mutex : Mutex.t;
  clients : (int, loop * conn) Hashtbl.t;  (* client id -> owning loop *)
  stats_extra : unit -> (string * Wire.json) list;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let now () = Unix.gettimeofday ()

(* --------------------------- small helpers -------------------------- *)

(* Best-effort correlation id for responses to frames that failed to
   decode: echo the envelope id if it at least parsed as a number. *)
let salvage_id j =
  match Wire.member "id" j with
  | Some (Wire.Num f) when Float.is_integer f -> int_of_float f
  | _ -> 0

let wake loop =
  match Unix.write_substring loop.wake_w "!" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()  (* full pipe still wakes the loop *)

let post loop msg =
  locked loop.mb_mutex (fun () -> loop.mailbox <- msg :: loop.mailbox);
  wake loop

let wq_add t n =
  let v = Atomic.fetch_and_add t.wq_bytes n + n in
  Metrics.set_gauge wq_gauge (float_of_int v)

(* --------------------------- connection IO -------------------------- *)

let update_interest t loop conn =
  if not conn.closed then begin
    let read =
      (not conn.busy) && (not conn.closing)
      && Json.Obuf.length conn.out < t.max_write_buffer
    in
    let write = Json.Obuf.length conn.out > 0 in
    if read <> conn.reading || write <> conn.writing then begin
      conn.reading <- read;
      conn.writing <- write;
      try Poll.modify loop.poll conn.fd ~read ~write
      with Unix.Unix_error _ -> ()
    end
  end

let close_conn t loop conn =
  if not conn.closed then begin
    conn.closed <- true;
    Poll.remove loop.poll conn.fd;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove loop.conns (fd_int conn.fd);
    locked t.clients_mutex (fun () -> Hashtbl.remove t.clients conn.client);
    let buffered = Json.Obuf.length conn.out in
    if buffered > 0 then wq_add t (-buffered);
    Json.Obuf.clear conn.out;
    let n = Atomic.fetch_and_add t.conn_count (-1) - 1 in
    Metrics.set_gauge conn_gauge (float_of_int n);
    try t.handler.on_disconnect ~client:conn.client with _ -> ()
  end

(* Drain the write buffer as far as the socket accepts; a closing
   connection whose buffer empties is closed here.  A burst of pipelined
   replies is already contiguous in the [Obuf] — one write syscall (and
   one client wakeup) per batch, with no coalescing copy. *)
let flush t loop conn =
  if not conn.closed then begin
    let err = ref false and blocked = ref false and progressed = ref false in
    while (not (!err || !blocked)) && Json.Obuf.length conn.out > 0 do
      let buf, off, len = Json.Obuf.peek conn.out in
      match Unix.write conn.fd buf off len with
      | n ->
        progressed := true;
        Json.Obuf.consume conn.out n;
        wq_add t (-n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        blocked := true
      | exception Unix.Unix_error (_, _, _) -> err := true
    done;
    if !progressed then conn.last_tx <- now ();
    if !err then close_conn t loop conn
    else if Json.Obuf.length conn.out = 0 && conn.closing then
      close_conn t loop conn
    else update_interest t loop conn
  end

(* Queue one response frame.  The [Write] fault site fires here (an
   injected fault answers a typed error instead and then hangs up, the
   old one-error-frame-then-close contract); a write queue past its cap
   sheds the response body for a small ["overloaded"] error, counted
   with the admission sheds.  [~immediate:false] skips the flush so a
   burst of pipelined replies leaves in one write (and wakes the client
   once, not per frame) — the caller owes a [flush] when its batch is
   done. *)
let enqueue_reply ?(immediate = true) t loop conn ~id ~t0 resp =
  if not conn.closed then begin
    let resp =
      match Fault.at Fault.Write with
      | () ->
        if Json.Obuf.length conn.out > t.max_write_buffer then begin
          Admission.note_shed ();
          Wire.Error_reply
            (Wire.err_of_exn
               (Tml_error.Error (Tml_error.Overloaded "write queue full")))
        end
        else resp
      | exception e ->
        conn.closing <- true;
        Wire.Error_reply (Wire.err_of_exn e)
    in
    (* zero-copy: the frame is rendered straight into the connection's
       write buffer — no intermediate frame string *)
    let frame_len = Wire.frame_into conn.out (Wire.response_to_json ~id resp) in
    wq_add t frame_len;
    Metrics.incr ~by:frame_len zero_copy_saved;
    Metrics.observe latency_hist (now () -. t0);
    if immediate then flush t loop conn
  end

(* Fold the serving layer's own vitals into a [Stats_reply], so remote
   operators (and the bench harness, which runs the server out of
   process) can observe connection counts and write-queue depth without a
   side channel.  Extra fields are ignored by protocol-1 clients — the
   standard forward-compatibility contract. *)
let augment_stats t resp =
  match resp with
  | Wire.Stats_reply (Wire.Obj fields) ->
    Wire.Stats_reply
      (Wire.Obj
         (fields
         @ [
             ( "server",
               Wire.Obj
                 ([
                    ("backend", Wire.Str (Poll.backend t.loops.(0).poll));
                    ("loops", Wire.Num (float_of_int (Array.length t.loops)));
                    ( "connections",
                      Wire.Num (float_of_int (Atomic.get t.conn_count)) );
                    ( "write_queue_bytes",
                      Wire.Num (float_of_int (Atomic.get t.wq_bytes)) );
                  ]
                 @ (try t.stats_extra () with _ -> [])) );
           ]))
  | resp -> resp

let exec_submit t task =
  Atomic.incr task.t_loop.inflight;
  locked t.exec.em (fun () ->
      Queue.push task t.exec.eq;
      Condition.signal t.exec.ecv)

(* Decode and dispatch the frames buffered in [conn.dec].  Stops at a
   slow dispatch (ordering: one in-flight request per connection), at
   write backpressure, and during a drain. *)
let rec drain_frames t loop conn =
  if
    conn.closed || conn.closing || conn.busy
    || Json.Obuf.length conn.out >= t.max_write_buffer
    || Atomic.get t.stop
  then flush t loop conn  (* batch boundary: push buffered replies out *)
  else
    match Wire.Decoder.next conn.dec with
    | `Await -> flush t loop conn
    | `Oversized n ->
      (* body is discarded as it streams in; the connection survives *)
      enqueue_reply t loop conn ~id:0 ~t0:(now ())
        (Wire.Error_reply
           (Wire.err_of_exn
              (Wire.Protocol_error
                 (Printf.sprintf "frame of %d bytes exceeds limit %d" n
                    t.max_frame))));
      drain_frames t loop conn
    | `Frame j ->
      handle_frame t loop conn j;
      drain_frames t loop conn
    | exception e ->
      (* framing poison (bad JSON, negative length): answer once — the
         peer may still be listening — and hang up *)
      conn.closing <- true;
      enqueue_reply t loop conn ~id:0 ~t0:(now ())
        (Wire.Error_reply (Wire.err_of_exn e))

(* One request: decode under a [server:decode] span (so the runtime's
   [job:submit] event nests beneath it for fast requests), then either
   answer inline or hand off to the executor. *)
and handle_frame t loop conn j =
  let t0 = now () in
  let outcome =
    Trace_span.with_span "server:decode" ?parent:conn.accept_span
      ~attrs:[ ("client", string_of_int conn.client) ]
      (fun () ->
        match
          Fault.with_site Fault.Decode (fun () -> Wire.request_of_json j)
        with
        | exception e ->
          `Reply (salvage_id j, Wire.Error_reply (Wire.err_of_exn e))
        | id, req -> (
            match t.handler.classify req with
            | `Slow -> `Dispatch (id, req)
            | `Fast ->
              let resp =
                try augment_stats t (t.handler.on_request ~client:conn.client req)
                with e -> Wire.Error_reply (Wire.err_of_exn e)
              in
              `Reply (id, resp)))
  in
  match outcome with
  | `Reply (id, resp) ->
    (* flushed at the drain_frames batch boundary, not per reply *)
    enqueue_reply ~immediate:false t loop conn ~id ~t0 resp
  | `Dispatch (id, req) ->
    conn.busy <- true;
    update_interest t loop conn;
    exec_submit t
      { t_loop = loop; t_conn = conn; t_id = id; t_req = req; t_t0 = t0 }

let on_readable t loop conn =
  if not (conn.closed || conn.closing || conn.busy) then begin
    let continue = ref true in
    while !continue && not conn.closed do
      match
        Fault.with_site Fault.Read (fun () ->
            Unix.read conn.fd loop.rbuf 0 (Bytes.length loop.rbuf))
      with
      | 0 ->
        continue := false;
        (match Wire.Decoder.finish conn.dec with
         | () -> close_conn t loop conn  (* clean close between frames *)
         | exception e ->
           (* truncated mid-frame at any offset: answer once (the peer
              may have only shut down its write side) and hang up *)
           conn.closing <- true;
           enqueue_reply t loop conn ~id:0 ~t0:(now ())
             (Wire.Error_reply (Wire.err_of_exn e)))
      | n ->
        conn.last_rx <- now ();
        Wire.Decoder.feed conn.dec loop.rbuf 0 n;
        drain_frames t loop conn;
        if
          n < Bytes.length loop.rbuf
          || conn.busy || conn.closing
          || Json.Obuf.length conn.out >= t.max_write_buffer
        then continue := false
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        continue := false
      | exception Unix.Unix_error (_, _, _) ->
        continue := false;
        close_conn t loop conn
      | exception e ->
        (* injected read fault: one error frame, then hang up *)
        continue := false;
        conn.closing <- true;
        enqueue_reply t loop conn ~id:0 ~t0:(now ())
          (Wire.Error_reply (Wire.err_of_exn e))
    done
  end

(* ------------------------------ accept ------------------------------ *)

let register_conn t loop fd =
  match
    Unix.set_nonblock fd;
    (match t.addr with
     | `Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
     | `Unix _ -> ())
  with
  | exception _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | () ->
    let client = Atomic.fetch_and_add t.next_client 1 in
    let accept_span =
      Trace_span.event "server:accept"
        ~attrs:[ ("client", string_of_int client) ]
    in
    let conn =
      {
        client;
        fd;
        dec = Wire.Decoder.create ~max_frame:t.max_frame ();
        out = Json.Obuf.create ();
        reading = true;
        writing = false;
        busy = false;
        closing = false;
        closed = false;
        last_rx = now ();
        last_tx = now ();
        accept_span;
      }
    in
    Hashtbl.replace loop.conns (fd_int fd) conn;
    (match Poll.add loop.poll fd ~read:true ~write:false with
     | () ->
       locked t.clients_mutex (fun () ->
           Hashtbl.replace t.clients client (loop, conn));
       let n = Atomic.fetch_and_add t.conn_count 1 + 1 in
       Metrics.set_gauge conn_gauge (float_of_int n)
     | exception Unix.Unix_error _ ->
       Hashtbl.remove loop.conns (fd_int fd);
       (try Unix.close fd with Unix.Unix_error _ -> ()))

let on_accept t loop lfd =
  let continue = ref true and budget = ref 64 in
  while !continue && !budget > 0 do
    decr budget;
    if Atomic.get t.stop then continue := false
    else
      match Unix.accept ~cloexec:true lfd with
      | exception
          Unix.Unix_error
            ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
              | Unix.ECONNABORTED ),
              _,
              _ ) ->
        continue := false
      | exception Unix.Unix_error _ -> continue := false
      | fd, _peer -> (
          match Fault.at Fault.Accept with
          | exception _ ->
            (* injected accept fault: drop the connection, keep serving *)
            (try Unix.close fd with Unix.Unix_error _ -> ())
          | () ->
            let target =
              if t.dispatch then
                let n = Array.length t.loops in
                t.loops.(Atomic.fetch_and_add t.rr 1 mod n)
              else loop
            in
            if target == loop then register_conn t loop fd
            else post target (Add_conn fd))
  done

(* ---------------------------- event loops --------------------------- *)

let drain_wake loop =
  let rec go () =
    match Unix.read loop.wake_r loop.rbuf 0 256 with
    | 0 -> ()
    | n -> if n = 256 then go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
  in
  go ()

let process_msg t loop = function
  | Add_conn fd ->
    if loop.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
    else register_conn t loop fd
  | Reply (conn, id, resp, t0) ->
    if not conn.closed then begin
      conn.busy <- false;
      enqueue_reply t loop conn ~id ~t0 resp;
      if not conn.closed then
        if Atomic.get t.stop then begin
          conn.closing <- true;
          if Json.Obuf.length conn.out = 0 then close_conn t loop conn
          else update_interest t loop conn
        end
        else drain_frames t loop conn
    end
  | Push (conn, j) ->
    if not (conn.closed || conn.closing) then
      if Json.Obuf.length conn.out > t.max_write_buffer then
        (* slow subscriber at the cap: shed the push rather than grow the
           queue without bound — the watch replay log covers the gap *)
        Metrics.incr push_shed_counter
      else begin
        let frame_len = Wire.frame_into conn.out j in
        wq_add t frame_len;
        Metrics.incr ~by:frame_len zero_copy_saved;
        Metrics.incr push_counter;
        flush t loop conn
      end

let process_mailbox t loop =
  match
    locked loop.mb_mutex (fun () ->
        let m = loop.mailbox in
        loop.mailbox <- [];
        m)
  with
  | [] -> ()
  | msgs -> List.iter (process_msg t loop) (List.rev msgs)

(* Deadline sweep, at most once per tick: a peer silent mid-frame past
   the read deadline is answered with a protocol error and closed; a
   peer not draining its responses past the write deadline is dropped. *)
let sweep_deadlines t loop tnow =
  if tnow -. loop.last_sweep >= float_of_int t.tick_ms /. 1000.0 then begin
    loop.last_sweep <- tnow;
    let stalled = ref [] and dead = ref [] in
    Hashtbl.iter
      (fun _ c ->
        if not c.closed then
          if
            c.reading
            && Wire.Decoder.mid_frame c.dec
            && tnow -. c.last_rx > t.read_timeout_s
          then stalled := c :: !stalled
          else if Json.Obuf.length c.out > 0 && tnow -. c.last_tx > t.write_timeout_s
          then dead := c :: !dead)
      loop.conns;
    List.iter
      (fun c ->
        c.closing <- true;
        enqueue_reply t loop c ~id:0 ~t0:tnow
          (Wire.Error_reply
             (Wire.err_of_exn
                (Wire.Protocol_error "read deadline exceeded mid-frame"))))
      !stalled;
    List.iter (fun c -> close_conn t loop c) !dead
  end

(* Entering drain: close the listener, close idle connections, let busy
   ones finish their in-flight request and flush. *)
let begin_stop t loop =
  loop.stopping <- true;
  (match loop.listen with
   | Some lfd ->
     Poll.remove loop.poll lfd;
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     loop.listen <- None
   | None -> ());
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) loop.conns [] in
  List.iter
    (fun c ->
      if not (c.closed || c.busy) then begin
        c.closing <- true;
        if Json.Obuf.length c.out = 0 then close_conn t loop c else flush t loop c
      end)
    all

let run_loop t loop () =
  let rec go () =
    Metrics.incr iter_counter;
    if Atomic.get t.stop && not loop.stopping then begin_stop t loop;
    if loop.stopping then begin
      (* close anything that drained; busy conns finish via Reply *)
      let idle =
        Hashtbl.fold
          (fun _ c acc ->
            if (not c.busy) && Json.Obuf.length c.out = 0 then c :: acc else acc)
          loop.conns []
      in
      List.iter (fun c -> close_conn t loop c) idle
    end;
    if
      loop.stopping
      && Hashtbl.length loop.conns = 0
      && Atomic.get loop.inflight = 0
      && locked loop.mb_mutex (fun () -> loop.mailbox = [])
    then begin
      (* no connection, no in-flight executor task, nothing queued:
         nobody can post here any more, so the wake pipe can go *)
      Poll.close loop.poll;
      (try Unix.close loop.wake_r with Unix.Unix_error _ -> ());
      try Unix.close loop.wake_w with Unix.Unix_error _ -> ()
    end
    else begin
      let timeout_ms = if loop.stopping then min 20 t.tick_ms else t.tick_ms in
      let events = Poll.wait loop.poll ~timeout_ms in
      (* drain the wake pipe before taking the mailbox: a message posted
         after the take writes a fresh wake byte that this drain can no
         longer swallow, so it wakes the next poll instead of waiting a
         whole tick *)
      if List.exists (fun (ev : Poll.event) -> ev.fd = loop.wake_r) events then
        drain_wake loop;
      process_mailbox t loop;
      List.iter
        (fun (ev : Poll.event) ->
          if ev.fd = loop.wake_r then ()
          else
            match loop.listen with
            | Some lfd when ev.fd = lfd ->
              if ev.readable then on_accept t loop lfd
            | _ -> (
                match Hashtbl.find_opt loop.conns (fd_int ev.fd) with
                | None -> ()
                | Some conn ->
                  if ev.writable then flush t loop conn;
                  if ev.readable && not conn.closed then
                    on_readable t loop conn))
        events;
      sweep_deadlines t loop (now ());
      go ()
    end
  in
  go ()

(* ----------------------------- executor ----------------------------- *)

let exec_worker t () =
  let rec go () =
    Mutex.lock t.exec.em;
    let rec take () =
      if not (Queue.is_empty t.exec.eq) then Some (Queue.pop t.exec.eq)
      else if t.exec.quit then None
      else begin
        Condition.wait t.exec.ecv t.exec.em;
        take ()
      end
    in
    let task = take () in
    Mutex.unlock t.exec.em;
    match task with
    | None -> ()
    | Some { t_loop; t_conn; t_id; t_req; t_t0 } ->
      let resp =
        Trace_span.with_span "server:handle" ?parent:t_conn.accept_span
          ~attrs:[ ("client", string_of_int t_conn.client) ]
          (fun () ->
            try t.handler.on_request ~client:t_conn.client t_req
            with e -> Wire.Error_reply (Wire.err_of_exn e))
      in
      post t_loop (Reply (t_conn, t_id, resp, t_t0));
      (* decrement only after the reply is visible in the mailbox, so a
         draining loop never exits between the two *)
      Atomic.decr t_loop.inflight;
      go ()
  in
  go ()

(* ------------------------------ lifecycle --------------------------- *)

let default_loops () =
  max 1 (min 4 (Domain.recommended_domain_count () / 2))

let sockaddr_of = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let listen_socket ~reuseport addr backlog =
  let sockaddr = sockaddr_of addr in
  let fd =
    Unix.socket ~cloexec:true
      (Unix.domain_of_sockaddr sockaddr)
      Unix.SOCK_STREAM 0
  in
  match
    (match addr with
     | `Tcp _ ->
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       if reuseport then Unix.setsockopt fd Unix.SO_REUSEPORT true
     | `Unix _ -> ());
    Unix.bind fd sockaddr;
    Unix.listen fd backlog;
    Unix.set_nonblock fd
  with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let make_loop idx listen =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let poll = Poll.create () in
  Poll.add poll wake_r ~read:true ~write:false;
  (match listen with
   | Some lfd -> Poll.add poll lfd ~read:true ~write:false
   | None -> ());
  {
    idx;
    poll;
    listen;
    wake_r;
    wake_w;
    mb_mutex = Mutex.create ();
    mailbox = [];
    inflight = Atomic.make 0;
    conns = Hashtbl.create 64;
    rbuf = Bytes.create 65536;
    last_sweep = 0.0;
    stopping = false;
  }

let start ?(backlog = 128) ?(read_timeout_s = 5.0) ?(write_timeout_s = 5.0)
    ?(max_frame = Wire.default_max_frame) ?(drain_timeout_s = 30.0) ?loops
    ?(handler_threads = 16) ?(max_write_buffer = 1 lsl 20)
    ?(stats_extra = fun () -> []) ~handler addr =
  let nloops =
    match loops with
    | None -> default_loops ()
    | Some n ->
      if n < 1 || n > 64 then invalid_arg "Server.start: loops in 1..64";
      n
  in
  if handler_threads < 1 then
    invalid_arg "Server.start: handler_threads >= 1";
  (* buffered socket writes need EPIPE, not a fatal signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (match addr with
   | `Unix path -> if Sys.file_exists path then Unix.unlink path
   | `Tcp _ -> ());
  let is_tcp = match addr with `Tcp _ -> true | `Unix _ -> false in
  let first =
    listen_socket ~reuseport:(is_tcp && nloops > 1) addr backlog
  in
  let bound_port =
    match Unix.getsockname first with
    | Unix.ADDR_INET (_, p) -> Some p
    | Unix.ADDR_UNIX _ -> None
  in
  (* TCP shards accepts in-kernel: one SO_REUSEPORT listener per loop.
     Unix sockets (no REUSEPORT balancing) — and any loop whose extra
     listener could not be created — fall back to loop-0 dispatching
     accepted fds round-robin. *)
  let extra_listeners =
    if is_tcp && nloops > 1 then
      let host = match addr with `Tcp (h, _) -> h | _ -> assert false in
      let port = Option.get bound_port in
      List.init (nloops - 1) (fun _ ->
          try Some (listen_socket ~reuseport:true (`Tcp (host, port)) backlog)
          with Unix.Unix_error _ -> None)
    else List.init (nloops - 1) (fun _ -> None)
  in
  let dispatch = (not is_tcp) || List.exists Option.is_none extra_listeners in
  let loops =
    Array.of_list
      (List.mapi
         (fun i l -> make_loop i l)
         (Some first :: extra_listeners))
  in
  let t =
    {
      handler;
      addr;
      bound_port;
      read_timeout_s;
      write_timeout_s;
      max_frame;
      drain_timeout_s;
      max_write_buffer;
      tick_ms = min 200 (max 5 (int_of_float (read_timeout_s *. 250.0)));
      dispatch;
      stop = Atomic.make false;
      stop_mutex = Mutex.create ();
      stopped = false;
      loops;
      domains = [];
      exec =
        {
          em = Mutex.create ();
          ecv = Condition.create ();
          eq = Queue.create ();
          quit = false;
          threads = [];
        };
      next_client = Atomic.make 1;
      conn_count = Atomic.make 0;
      wq_bytes = Atomic.make 0;
      rr = Atomic.make 0;
      clients_mutex = Mutex.create ();
      clients = Hashtbl.create 64;
      stats_extra;
    }
  in
  t.exec.threads <-
    List.init handler_threads (fun _ -> Thread.create (exec_worker t) ());
  t.domains <-
    Array.to_list (Array.map (fun l -> Domain.spawn (run_loop t l)) t.loops);
  t

let port t = t.bound_port

let connections t = Atomic.get t.conn_count

(* Deliver a server-push frame to a client's connection.  The JSON is
   posted to the owning loop and rendered there, so a push never lands
   inside a half-written reply.  [false] means the client is unknown or
   already gone — subscription bookkeeping should drop it. *)
let push t ~client j =
  match
    locked t.clients_mutex (fun () -> Hashtbl.find_opt t.clients client)
  with
  | None -> false
  | Some (loop, conn) ->
    if conn.closed then false
    else begin
      post loop (Push (conn, j));
      true
    end

let backend t = Poll.backend t.loops.(0).poll

let loop_count t = Array.length t.loops

let request_stop t =
  Atomic.set t.stop true;
  t.handler.on_stop ()

(* Drain order: stop accepting, let every connection finish its in-flight
   request and flush its write queue (the loops notice the flag within
   one tick), then await every registered job so no admitted work is
   abandoned.  Trace/metric flushing belongs to whoever enabled them —
   by the time [stop] returns, all server spans have been recorded. *)
let stop t =
  request_stop t;
  locked t.stop_mutex (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        List.iter Domain.join t.domains;
        t.domains <- [];
        (* executor after the loops: a draining loop waits on its slow
           replies, so workers must stay up until every loop is done *)
        locked t.exec.em (fun () ->
            t.exec.quit <- true;
            Condition.broadcast t.exec.ecv);
        List.iter Thread.join t.exec.threads;
        t.exec.threads <- [];
        t.handler.on_drain ~timeout_s:t.drain_timeout_s;
        match t.addr with
        | `Unix path -> (
            try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
        | `Tcp _ -> ()
      end)

let wait t =
  while not (Atomic.get t.stop) do
    Thread.delay 0.05
  done;
  stop t

let install_signal_handlers ?(signals = [ Sys.sigterm; Sys.sigint ]) t =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> request_stop t)))
    signals
