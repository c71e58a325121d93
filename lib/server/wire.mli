(** The repair service's wire protocol: length-prefixed JSON frames.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON.  Requests and responses are enveloped with the
    protocol {!version} and a client-chosen correlation [id]; the server
    echoes the id so a client can pipeline requests on one connection.

    Job payloads travel in {e textual} form — the same model, property,
    trace and spec syntaxes the CLI accepts ({!Dtmc_io}, {!Mdp_io},
    {!Trace_io}, {!Spec_io}, {!Pctl_parser}) — and are decoded into a
    {!Job.t} on the server by {!job_of_request}, so the wire format never
    duplicates the in-memory model representations.

    Everything malformed — bad framing, oversized frames, invalid JSON,
    missing fields, unknown ops — raises {!Protocol_error} with a
    self-diagnosing message. *)

val version : int
(** Protocol version spoken by this build (currently 1).  Envelopes carry
    it as ["v"]; a mismatch is a {!Protocol_error}. *)

val default_max_frame : int
(** Default frame-size cap (16 MiB). *)

exception Protocol_error of string
(** The same exception as {!Json.Error}: malformed JSON and bad
    envelopes, framing and fields raise it alike. *)

exception Peer_closed of string
(** The peer vanished mid-exchange: a connection closed {e mid}-frame on
    read, or a broken pipe / reset on write.  Distinct from
    {!Protocol_error} so callers (the {!Client}, the coordinator's
    re-route logic) can classify peer death as transient without string
    matching; {!err_of_exn} maps it to a transient ["unreachable"]. *)

exception Bad_request of string
(** A job payload {!job_of_request} rejects beyond the lib/io parsers: a
    malformed PCTL formula or an invalid Data Repair spec.  {!err_of_exn}
    maps it to a non-transient ["bad-request"]. *)

(** {1 JSON}

    The codec itself is {!Json}; these are the names Wire's clients
    use for it. *)

type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val render : json -> string
(** {!Json.render}: compact single-line rendering. *)

val parse : string -> json
(** {!Json.parse}.  @raise Protocol_error with a byte offset on
    malformed input. *)

val member : string -> json -> json option
(** {!Json.member}: field lookup on an [Obj]; [None] on missing fields
    or non-objects. *)

val frame_into : Json.Obuf.t -> json -> int
(** Append one length-prefixed frame (4-byte big-endian header plus
    rendered body) to a {!Json.Obuf} and return its total size in
    bytes — the server's zero-copy reply path. *)

(** {1 Framing} *)

val write_frame : Unix.file_descr -> json -> unit
(** Render and send one frame.
    @raise Protocol_error when a write deadline ([SO_SNDTIMEO]) expires.
    @raise Peer_closed when the peer has closed or reset the
    connection. *)

val write_frames : Unix.file_descr -> json list -> unit
(** Render and send a batch of frames in a single write burst — the
    pipelining fast path: one syscall for the whole window instead of
    one per frame.  Same failure contract as {!write_frame}. *)

val read_frame :
  ?max_frame:int ->
  Unix.file_descr ->
  [ `Frame of json | `Eof | `Idle ]
(** Read one frame.  [`Eof] is a clean close {e between} frames; [`Idle]
    is a read deadline ([SO_RCVTIMEO]) expiring with no bytes of the next
    frame read yet — the caller polls its stop flag and retries.  A stall
    {e mid}-frame, an oversized frame and malformed JSON raise
    {!Protocol_error}; a close {e mid}-frame raises {!Peer_closed}. *)

(** {1 Incremental decoding}

    The event-driven server never blocks on a partial frame: whatever
    bytes a readiness notification delivers are {!Decoder.feed}ed into a
    per-connection decoder, and {!Decoder.next} yields zero or more
    complete frames.  Partial frames resume on the next feed; oversized
    frames are rejected up front and their bodies discarded {e without
    ever being buffered}. *)

module Decoder : sig
  type t

  val create : ?max_frame:int -> unit -> t
  (** A fresh decoder positioned at a frame boundary.  [max_frame]
      defaults to {!default_max_frame}. *)

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed t buf off n] appends [n] bytes read from the socket.  The
      bytes are copied (or, inside an oversized frame, discarded), so the
      caller may reuse [buf] immediately. *)

  val next : t -> [ `Frame of json | `Await | `Oversized of int ]
  (** Advance the frame state machine: [`Frame] is one complete decoded
      payload (call again — a single read may carry several pipelined
      frames); [`Await] means more bytes are needed; [`Oversized n] is
      reported once per frame whose declared length [n] exceeds
      [max_frame] — the decoder then skips the body as it streams in and
      resumes cleanly at the next frame boundary, so the caller can
      answer an error and keep the connection.

      @raise Protocol_error on malformed JSON inside a well-delimited
      frame ({e recoverable}: the decoder has already advanced past the
      frame) and on a negative length prefix ({e unrecoverable}: framing
      is lost, close the connection). *)

  val finish : t -> unit
  (** The peer closed its write side.  Returns normally only when the
      stream ended exactly on a frame boundary.
      @raise Peer_closed on truncation at {e any} offset — inside the
      4-byte length prefix, mid-body, or mid-skip of an oversized
      frame. *)

  val buffered : t -> int
  (** Bytes currently buffered (diagnostics; oversized bodies never
      count, they are discarded on arrival). *)

  val mid_frame : t -> bool
  (** [true] when the stream position is inside a frame — i.e. when
      {!finish} would raise. *)
end

(** {1 Errors} *)

type err = { kind : string; message : string; transient : bool }
(** A wire-level error: a stable kind slug (["overloaded"],
    ["bad-request"], ["protocol"], ["internal"], or a {!Tml_error.kind}
    slug), a human message, and whether retrying may succeed. *)

val err_of_exn : exn -> err
(** Classify: {!Tml_error.Error} keeps its kind and severity; lib/io
    parse errors and {!Bad_request} become non-transient ["bad-request"];
    everything else is ["internal"]. *)

(** {1 Job payloads} *)

type job_request =
  | Check_req of { model : string; phi : string }
  | Model_repair_req of {
      model : string;
      phi : string;
      variables : string list;  (** {!Spec_io.parse_variable} syntax *)
      deltas : string list;  (** {!Spec_io.parse_delta} syntax *)
      starts : int;
      backend : string;
          (** {!Repair_backend} slug; optional on the wire (absent means
              ["nlp"], keeping protocol-1 clients valid) *)
    }
  | Data_repair_req of {
      states : int;
      init : int;
      labels : (string * int list) list;
      rewards : float list option;
      phi : string;
      traces : string;
          (** {!Trace_io} text: trace lines, tally lines or both *)
      max_drop : float;
      pinned : string list;
      starts : int;
      backend : string;  (** same contract as in [Model_repair_req] *)
    }
  | Reward_repair_req of {
      mdp : string;  (** {!Mdp_io} text *)
      theta : float list;
      constraints : (int * string * string * float) list;
          (** (state, better, worse, margin) *)
      gamma : float;
      starts : int;
          (** decoded and ignored: Reward Repair's QP search is
              deterministic and has no starts.  Protocol-1 clients send
              it, so the field stays on the wire. *)
    }
  | Pipeline_req of {
      states : int;
      init : int;
      labels : (string * int list) list;
      rewards : float list option;
      model_spec : (string list * string list) option;
          (** (variables, deltas) *)
      data_spec : (float * string list) option;  (** (max_drop, pinned) *)
      traces : string;
      phi : string;
    }  (** One repair job in wire (textual) form. *)

val kind_of_job_request : job_request -> string
(** The {!Job.kind} string of the decoded job, without decoding. *)

val job_of_request : job_request -> Job.t
(** Decode with the lib/io parsers.  Raises the underlying lib/io
    parser's exception on a malformed model, trace or spec text, and
    {!Bad_request} on a malformed formula or an invalid Data Repair spec
    (the router maps each to a ["bad-request"] wire error); an unknown
    [backend] slug is a
    {!Protocol_error}.  Data Repair and Pipeline [traces] are folded into
    per-group tallies here ({!Trace_io.parse_tallies} with [~n:states]),
    so a state out of range or a malformed tally line is rejected at
    submit, naming its line. *)

(** {1 Watch specs}

    The registration payload of a streaming watch: the model skeleton,
    property and repair configuration a [watch] op carries — everything
    a {!Data_repair_req} needs except the traces, which arrive
    incrementally as appended chunks. *)

type watch_spec = {
  states : int;
  init : int;
  labels : (string * int list) list;
  rewards : float list option;
  phi : string;
  max_drop : float;
  pinned : string list;
  starts : int;
  backend : string;  (** {!Repair_backend} slug; ["nlp"] when absent *)
}

val watch_spec_to_json : watch_spec -> json
val watch_spec_of_json : json -> watch_spec

val job_request_of_watch : watch_spec -> traces:string -> job_request
(** The Data Repair job a violated watch submits: the accumulated
    tallies in canonical textual form ({!Trace_io.tallies_to_string})
    under the watch's spec.  A batch
    submit of the concatenated trace text with the same spec decodes to
    the same {!Job.t} — equal digests, byte-identical report (the
    differential-correctness contract of the streaming subsystem). *)

(** {1 Envelopes} *)

type request =
  | Submit of job_request
  | Poll of string  (** job digest *)
  | Wait of string * float option  (** digest, optional timeout *)
  | Cancel of string
  | Stats
  | Ping
  | Put_report of { job : string; report : string }
      (** fleet replication: store a completed job's rendered report under
          [job]'s digest so polls/waits on this node can serve it (sent by
          the coordinator to the digest's ring successor) *)
  | Fleet_status
      (** coordinator only: per-node health/in-flight snapshot (a plain
          backend answers a ["bad-request"] error) *)
  | Drain_node of string
      (** coordinator only: drain the named node out of the ring — stop
          routing new digests to it, await its in-flight jobs, remove *)
  | Watch_op of {
      watch : string;
      spec : watch_spec option;
          (** present: create the watch (or verify it matches an
              existing one); absent: attach to an existing watch *)
      from_seq : int option;
          (** replay logged notifications with [seq > from_seq] to this
              connection (reconnect catch-up); [None] = only new ones *)
    }  (** subscribe this connection to the named watch *)
  | Append_chunk of { watch : string; chunk : string }
      (** fold a trace chunk into the watch's incremental learner and
          re-check φ *)
  | Unwatch of string  (** unsubscribe this connection from the watch *)

type job_state =
  | Job_pending
  | Job_done of string  (** the {!Job.pp_outcome} report text *)
  | Job_failed of err
  | Job_cancelled
  | Job_timed_out

type response =
  | Accepted of { job : string; cached : bool }
      (** submit acknowledged; [cached] when the server already holds the
          digest's finished report (it ran the job earlier, or a
          coordinator replicated the report to it) *)
  | Status of { job : string; state : job_state }
  | Cancelled of { job : string; cancelled : bool }
  | Stats_reply of json
  | Pong
  | Error_reply of err
  | Stored of { job : string }  (** {!Put_report} acknowledged *)
  | Fleet_reply of json  (** {!Fleet_status} snapshot *)
  | Drained of { node : string; pending : int }
      (** {!Drain_node} finished; [pending] jobs were still unfinished
          when the drain deadline expired (0 on a clean drain) *)
  | Watched of { watch : string; seq : int; created : bool }
      (** subscribed; [seq] is the watch's latest notification sequence
          number (pass it back as [from_seq] after a reconnect) *)
  | Appended of {
      watch : string;
      lines : int;  (** complete lines consumed from this chunk *)
      support_changed : bool;
      value : float option;
          (** the re-checked value; [None] when the check is not yet
              possible (e.g. a reward target still unreachable) *)
      violated : bool;
      job : string option;
          (** digest of the repair job a violation kicked off *)
      recheck : string;  (** ["cached"] (µs path) or ["eliminated"] *)
    }
  | Unwatched of { watch : string; existed : bool }
  | Annotated of (string * json) list * response
      (** [response] plus extra informational envelope fields (e.g. the
          coordinator's [("node", Str name)] serving-node annotation).
          Encode-only: decoding returns the base response and drops the
          extras, which is exactly the protocol-1 forward-compatibility
          contract — unknown fields are ignored. *)

val request_to_json : id:int -> request -> json
val request_of_json : json -> int * request
(** @raise Protocol_error on bad envelopes (wrong version, unknown op,
    missing fields). *)

val response_to_json : id:int -> response -> json
val response_of_json : json -> int * response
(** @raise Protocol_error on bad envelopes. *)

(** {1 Server push}

    Push frames are server-initiated notifications: same length-prefixed
    framing, correlation id 0 (request ids start at 1) and a ["push"]
    marker member.  A client that does not understand a push frame must
    skip it — the same forward-compatibility contract as unknown fields
    — which {!is_push} makes checkable before id correlation. *)

type notification = {
  watch : string;
  seq : int;  (** per-watch, monotonically increasing from 1 *)
  event : string;  (** ["violation"], ["repair"] or ["error"] *)
  value : float option;  (** checked value at detection *)
  job : string option;  (** repair job digest *)
  report : string option;  (** the {!Job.pp_outcome} report (["repair"]) *)
  error : err option;  (** why the repair failed (["error"]) *)
}

val push_id : int
(** The correlation id every push frame carries (0). *)

val is_push : json -> bool
(** Whether a decoded frame is a server push (carries a ["push"]
    marker) — check before id correlation and skip if unhandled. *)

val notification_to_json : notification -> json

val notification_of_json : json -> notification
(** @raise Protocol_error when the frame is not a notification push. *)
