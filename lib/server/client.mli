(** A synchronous client for the repair service.

    One connection, one request in flight at a time: every call is a
    blocking round-trip that checks the response's correlation id.
    Server-reported failures raise {!Remote_error} carrying the typed
    wire error — match on [err.transient] (e.g. the ["overloaded"] shed
    signal) to decide whether to back off and resubmit.

    Peer death — connection refused, reset, broken pipe, a close
    mid-frame or before the reply — raises a typed {e transient}
    [Tml_error.Error (Unreachable _)] rather than a raw [Unix_error] or
    [Protocol_error], so fleet callers can re-route without string
    matching. *)

type addr = [ `Unix of string | `Tcp of string * int ]

val addr_of_string : string -> addr
(** Parse ["unix:PATH"], ["HOST:PORT"] or ["[HOST]:PORT"].  [HOST:PORT]
    splits on the {e last} colon, so bare IPv6 literals (["::1:7000"])
    work; the bracketed form disambiguates any host containing [':'] —
    or a TCP host literally named ["unix"].
    @raise Wire.Protocol_error on anything else. *)

val addr_to_string : addr -> string
(** Inverse of {!addr_of_string}; hosts containing [':'] render
    bracketed. *)

exception Remote_error of Wire.err
(** The server answered with an [Error_reply]. *)

type t

val connect : ?max_frame:int -> ?timeout_s:float -> addr -> t
(** [timeout_s] arms [SO_RCVTIMEO]/[SO_SNDTIMEO] on the socket — with it
    set, a stalled peer surfaces as a transient [Unreachable] instead of
    blocking forever (the coordinator's probe/RPC deadline).
    @raise Tml_error.Error
      ([Unreachable]) when the peer cannot be reached. *)

val close : t -> unit
(** Idempotent. *)

val with_client : ?max_frame:int -> ?timeout_s:float -> addr -> (t -> 'a) -> 'a
(** [connect], run, always [close]. *)

val connect_any : ?max_frame:int -> ?timeout_s:float -> addr list -> addr * t
(** First address that accepts a connection, tried in order.
    @raise Tml_error.Error when every address is unreachable (the last
    failure). *)

val with_any :
  ?max_frame:int -> ?timeout_s:float -> addr list -> (addr -> t -> 'a) -> 'a

val rpc : t -> Wire.request -> Wire.response
(** Raw round-trip; [Error_reply] is returned, not raised.
    @raise Tml_error.Error
      ([Unreachable], transient) when the peer dies mid-RPC.
    @raise Wire.Protocol_error on framing/id-correlation failures. *)

val pipeline :
  t ->
  ?on_reply:(int -> Wire.response -> unit) ->
  Wire.request list ->
  Wire.response list
(** Fire the whole request window in one write burst, then collect the
    replies, which the server sends back {e in request order} (it serves
    one request per connection at a time; pipelined frames queue in its
    decoder).  Returns responses in request order; [Error_reply]s are
    returned in place, not raised.  [on_reply i resp] fires as reply [i]
    is decoded — e.g. to timestamp completions.  Trades per-request
    latency for throughput: syscalls amortise across the window, so
    prefer this for bulk submit/wait traffic and {!rpc} for interactive
    calls.  Failure contract is {!rpc}'s. *)

val ping : t -> unit

val submit : t -> Wire.job_request -> string * bool
(** [(digest, cached)] — the job id to poll/wait on, and whether the
    server already held its finished report. *)

val poll : t -> string -> Wire.job_state
(** Non-blocking status of a submitted job. *)

val wait : t -> ?timeout_s:float -> string -> Wire.job_state
(** Block (server-side) until the job settles or [timeout_s] expires —
    a timeout on a still-running job returns [Job_pending]. *)

val cancel : t -> string -> bool
(** [true] when the job was still pending and is now cancelled. *)

val stats : t -> Wire.json
(** The server runtime's instrumentation dump. *)

val put_report : t -> digest:string -> report:string -> unit
(** Fleet replication: store a finished job's rendered report on the
    peer (servable there by poll/wait/submit on [digest]). *)

val fleet_status : t -> Wire.json
(** Coordinator-only: the per-node fleet snapshot. *)

val drain_node : t -> string -> int
(** Coordinator-only: drain the named node out of the ring; returns the
    number of its jobs still unfinished at the drain deadline (0 on a
    clean drain). *)

val run : t -> ?timeout_s:float -> Wire.job_request -> string * Wire.job_state
(** [submit] then [wait] — the one-shot convenience. *)

(** {1 Watches}

    Streaming subscriptions ([tml watch]).  A subscribed connection
    receives unsolicited server-push frames; {!rpc} and {!pipeline}
    skip them transparently before id correlation (routing them to the
    {!set_push_handler} callback when one is installed), so a plain
    protocol-1 client on a subscribed connection keeps working — the
    ignore-what-you-don't-understand contract. *)

type appended = {
  lines : int;  (** complete lines consumed from the chunk *)
  support_changed : bool;
  value : float option;
      (** the re-checked value; [None] when not yet checkable *)
  violated : bool;
  job : string option;  (** repair job digest, when a violation fired *)
  recheck : string;  (** ["cached"], ["eliminated"] or ["unavailable"] *)
}
(** The [Appended] reply payload. *)

val set_push_handler : t -> (Wire.json -> unit) -> unit
(** Observe server-push frames skipped by {!rpc}/{!pipeline} (decode
    with {!Wire.notification_of_json}).  Exceptions it raises are
    swallowed. *)

val watch : t -> ?spec:Wire.watch_spec -> ?from_seq:int -> string -> int * bool
(** Subscribe this connection to the named watch: [(seq, created)].
    [spec] creates the watch (or must match the existing one);
    [from_seq] replays the logged notifications with a larger seq —
    reconnect catch-up. *)

val append_chunk : t -> watch:string -> string -> appended
(** Fold one trace chunk into the watch and re-check the property. *)

val unwatch : t -> string -> bool
(** Unsubscribe; [true] when this connection was subscribed. *)

val follow :
  t ->
  ?on_idle:(unit -> [ `Continue | `Stop ]) ->
  (Wire.notification -> [ `Continue | `Stop ]) ->
  unit
(** Block reading notifications until the callback says [`Stop], the
    server closes, or [on_idle] (fired on the [connect ~timeout_s] read
    deadline) says stop.  Unknown push kinds are skipped. *)
