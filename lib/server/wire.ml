let version = 1
let default_max_frame = 16 * 1024 * 1024

exception Protocol_error = Json.Error
exception Peer_closed of string
exception Bad_request of string

let proto = Json.fail
let peer fmt = Printf.ksprintf (fun m -> raise (Peer_closed m)) fmt

(* ------------------------------ JSON ------------------------------ *)

(* The codec lives in lib/json; Wire's clients know it by these names. *)
type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse = Json.parse
let render = Json.render
let member = Json.member
let get = Json.get
let opt = Json.opt
let to_str = Json.to_str
let to_num = Json.to_num
let to_int = Json.to_int
let to_bool = Json.to_bool
let to_arr = Json.to_arr
let str_list = Json.str_list
let num_list = Json.num_list

(* Render one length-prefixed frame directly into [ob]: reserve the
   4-byte header, render the body behind it, patch the length in.
   Returns the whole frame's size (header included). *)
let frame_into ob j =
  let mark = Json.Obuf.reserve_u32 ob in
  let before = Json.Obuf.length ob in
  Json.render_into ob j;
  let body_len = Json.Obuf.length ob - before in
  Json.Obuf.patch_u32 ob mark body_len;
  4 + body_len

(* ----------------------------- framing ---------------------------- *)

(* Frames are a 4-byte big-endian payload length followed by that many
   bytes of JSON.  Reads distinguish a quiet socket (`Idle]: the read
   deadline expired with no bytes of the next frame yet — the caller can
   poll a stop flag and retry) from a mid-frame stall (a peer that went
   silent halfway through a frame is a protocol error). *)

let rec read_part fd buf off len =
  if len = 0 then `Done
  else
    match Unix.read fd buf off len with
    | 0 -> `Closed (off > 0)
    | n -> read_part fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_part fd buf off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Stalled (off > 0)
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Closed (off > 0)

let read_frame ?(max_frame = default_max_frame) fd =
  let hdr = Bytes.create 4 in
  match read_part fd hdr 0 4 with
  | `Closed false -> `Eof
  | `Closed true -> peer "connection closed mid-frame"
  | `Stalled false -> `Idle
  | `Stalled true -> proto "read deadline exceeded mid-frame"
  | `Done ->
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame then
      proto "frame of %d bytes exceeds limit %d" len max_frame;
    let payload = Bytes.create len in
    (match read_part fd payload 0 len with
     | `Done -> `Frame (parse (Bytes.unsafe_to_string payload))
     | `Closed _ -> peer "connection closed mid-frame"
     | `Stalled _ -> proto "read deadline exceeded mid-frame")

(* ----------------------- incremental decoding ---------------------- *)

module Decoder = struct
  type state =
    | Header  (* accumulating the 4-byte length prefix *)
    | Body of int  (* expecting this many payload bytes *)
    | Skip of int  (* discarding the body of an oversized frame *)

  type t = {
    max_frame : int;
    mutable buf : Bytes.t;  (* live window is buf.[head .. head+len) *)
    mutable head : int;
    mutable len : int;
    mutable state : state;
  }

  let create ?(max_frame = default_max_frame) () =
    { max_frame; buf = Bytes.create 4096; head = 0; len = 0; state = Header }

  let buffered t = t.len

  let mid_frame t = t.len > 0 || t.state <> Header

  let ensure_space t n =
    if t.head > 0 && t.head + t.len + n > Bytes.length t.buf then begin
      (* compact: slide the window to the front before considering growth *)
      Bytes.blit t.buf t.head t.buf 0 t.len;
      t.head <- 0
    end;
    if t.len + n > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while t.len + n > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.buf t.head nb 0 t.len;
      t.buf <- nb;
      t.head <- 0
    end

  let feed t src off n =
    if off < 0 || n < 0 || off + n > Bytes.length src then
      invalid_arg "Wire.Decoder.feed";
    (* an oversized body is discarded as it arrives, never buffered; the
       skip counter is consumed here when the buffer is already drained
       (the common case) and in [next] otherwise *)
    let off, n =
      match t.state with
      | Skip k when t.len = 0 ->
        let eat = min k n in
        t.state <- (if eat = k then Header else Skip (k - eat));
        (off + eat, n - eat)
      | _ -> (off, n)
    in
    if n > 0 then begin
      ensure_space t n;
      Bytes.blit src off t.buf (t.head + t.len) n;
      t.len <- t.len + n
    end

  (* One step of the frame state machine.  [`Oversized] is returned once
     per oversized frame, when its header is decoded; the connection can
     keep going — the body is skipped without being buffered and the
     stream resumes at the next frame boundary.  Malformed JSON inside a
     well-delimited frame raises {!Protocol_error} with the decoder
     already advanced past the frame, so the caller may likewise answer
     an error and continue.  A negative length prefix also raises, but
     leaves the stream position meaningless — the caller must close. *)
  let rec next t =
    match t.state with
    | Skip k ->
      let eat = min k t.len in
      t.head <- t.head + eat;
      t.len <- t.len - eat;
      if eat = k then begin
        t.state <- Header;
        next t
      end
      else begin
        t.state <- Skip (k - eat);
        `Await
      end
    | Header ->
      if t.len < 4 then `Await
      else begin
        let flen = Int32.to_int (Bytes.get_int32_be t.buf t.head) in
        t.head <- t.head + 4;
        t.len <- t.len - 4;
        if flen < 0 then proto "negative frame length %d" flen
        else if flen > t.max_frame then begin
          t.state <- Skip flen;
          `Oversized flen
        end
        else begin
          t.state <- Body flen;
          next t
        end
      end
    | Body flen ->
      if t.len < flen then `Await
      else begin
        let payload = Bytes.sub_string t.buf t.head flen in
        t.head <- t.head + flen;
        t.len <- t.len - flen;
        t.state <- Header;
        `Frame (parse payload)
      end

  (* Peer closed the stream: truncation at {e any} offset — inside the
     length prefix, mid-body, or mid-skip — is uniformly {!Peer_closed}.
     Only a close exactly on a frame boundary is clean. *)
  let finish t =
    if mid_frame t then peer "connection closed mid-frame"
end

let rec write_part fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> write_part fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_part fd buf off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      proto "write deadline exceeded"
    | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
      peer "peer closed connection"
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      peer "connection reset by peer"

let write_frame fd j =
  let body = render j in
  let len = String.length body in
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Bytes.blit_string body 0 frame 4 len;
  write_part fd frame 0 (4 + len)

let write_frames fd js =
  let buf = Buffer.create 4096 in
  let hdr = Bytes.create 4 in
  List.iter
    (fun j ->
       let body = render j in
       Bytes.set_int32_be hdr 0 (Int32.of_int (String.length body));
       Buffer.add_bytes buf hdr;
       Buffer.add_string buf body)
    js;
  let b = Buffer.to_bytes buf in
  write_part fd b 0 (Bytes.length b)

(* ----------------------------- errors ----------------------------- *)

type err = { kind : string; message : string; transient : bool }

let err_kind_name = function
  | Tml_error.Solver_nonconvergence _ -> "solver-nonconvergence"
  | Tml_error.Timeout _ -> "timeout"
  | Tml_error.Cache_race _ -> "cache-race"
  | Tml_error.Injected_fault _ -> "injected-fault"
  | Tml_error.Overloaded _ -> "overloaded"
  | Tml_error.Unreachable _ -> "unreachable"
  | Tml_error.Malformed_model _ -> "malformed-model"
  | Tml_error.Empty_feasible_box _ -> "empty-feasible-box"
  | Tml_error.Internal _ -> "internal"

let err_of_exn = function
  | Tml_error.Error k ->
    {
      kind = err_kind_name k;
      message = Tml_error.to_string k;
      transient = Tml_error.severity k = Tml_error.Transient;
    }
  | Protocol_error m -> { kind = "protocol"; message = m; transient = false }
  | Peer_closed m -> { kind = "unreachable"; message = m; transient = true }
  | Dtmc_io.Parse_error m | Mdp_io.Parse_error m | Trace_io.Parse_error m
  | Spec_io.Parse_error m | Bad_request m ->
    { kind = "bad-request"; message = m; transient = false }
  | e ->
    { kind = "internal"; message = Printexc.to_string e; transient = false }

let err_to_json e =
  Obj
    [
      ("kind", Str e.kind);
      ("message", Str e.message);
      ("transient", Bool e.transient);
    ]

let err_of_json j =
  {
    kind = to_str "kind" (get "kind" j);
    message = to_str "message" (get "message" j);
    transient = to_bool "transient" (get "transient" j);
  }

(* ---------------------------- job codecs --------------------------- *)

type job_request =
  | Check_req of { model : string; phi : string }
  | Model_repair_req of {
      model : string;
      phi : string;
      variables : string list;
      deltas : string list;
      starts : int;
      backend : string;
    }
  | Data_repair_req of {
      states : int;
      init : int;
      labels : (string * int list) list;
      rewards : float list option;
      phi : string;
      traces : string;
      max_drop : float;
      pinned : string list;
      starts : int;
      backend : string;
    }
  | Reward_repair_req of {
      mdp : string;
      theta : float list;
      constraints : (int * string * string * float) list;
      gamma : float;
      starts : int;
    }
  | Pipeline_req of {
      states : int;
      init : int;
      labels : (string * int list) list;
      rewards : float list option;
      model_spec : (string list * string list) option;
      data_spec : (float * string list) option;
      traces : string;
      phi : string;
    }

let kind_of_job_request = function
  | Check_req _ -> "check"
  | Model_repair_req _ -> "model-repair"
  | Data_repair_req _ -> "data-repair"
  | Reward_repair_req _ -> "reward-repair"
  | Pipeline_req _ -> "pipeline"

let labels_to_json labels =
  Arr
    (List.map
       (fun (name, states) ->
          Arr [ Str name; Arr (List.map (fun s -> Num (float_of_int s)) states) ])
       labels)

let labels_of_json j =
  List.map
    (function
      | Arr [ Str name; states ] ->
        (name, List.map (to_int "labels") (to_arr "labels" states))
      | _ -> proto "field \"labels\": expected [name, [states...]] pairs")
    (to_arr "labels" j)

let rewards_to_json = function
  | None -> Null
  | Some rs -> Arr (List.map (fun r -> Num r) rs)

let rewards_of_json j =
  Option.map (num_list "rewards") (opt "rewards" j)

let job_request_to_json = function
  | Check_req { model; phi } ->
    Obj [ ("kind", Str "check"); ("model", Str model); ("phi", Str phi) ]
  | Model_repair_req { model; phi; variables; deltas; starts; backend } ->
    Obj
      [
        ("kind", Str "model-repair");
        ("model", Str model);
        ("phi", Str phi);
        ("variables", Arr (List.map (fun v -> Str v) variables));
        ("deltas", Arr (List.map (fun d -> Str d) deltas));
        ("starts", Num (float_of_int starts));
        ("backend", Str backend);
      ]
  | Data_repair_req
      {
        states;
        init;
        labels;
        rewards;
        phi;
        traces;
        max_drop;
        pinned;
        starts;
        backend;
      } ->
    Obj
      [
        ("kind", Str "data-repair");
        ("states", Num (float_of_int states));
        ("init", Num (float_of_int init));
        ("labels", labels_to_json labels);
        ("rewards", rewards_to_json rewards);
        ("phi", Str phi);
        ("traces", Str traces);
        ("max_drop", Num max_drop);
        ("pinned", Arr (List.map (fun p -> Str p) pinned));
        ("starts", Num (float_of_int starts));
        ("backend", Str backend);
      ]
  | Reward_repair_req { mdp; theta; constraints; gamma; starts } ->
    Obj
      [
        ("kind", Str "reward-repair");
        ("mdp", Str mdp);
        ("theta", Arr (List.map (fun t -> Num t) theta));
        ( "constraints",
          Arr
            (List.map
               (fun (state, better, worse, margin) ->
                  Obj
                    [
                      ("state", Num (float_of_int state));
                      ("better", Str better);
                      ("worse", Str worse);
                      ("margin", Num margin);
                    ])
               constraints) );
        ("gamma", Num gamma);
        ("starts", Num (float_of_int starts));
      ]
  | Pipeline_req
      { states; init; labels; rewards; model_spec; data_spec; traces; phi } ->
    Obj
      [
        ("kind", Str "pipeline");
        ("states", Num (float_of_int states));
        ("init", Num (float_of_int init));
        ("labels", labels_to_json labels);
        ("rewards", rewards_to_json rewards);
        ( "model",
          match model_spec with
          | None -> Null
          | Some (variables, deltas) ->
            Obj
              [
                ("variables", Arr (List.map (fun v -> Str v) variables));
                ("deltas", Arr (List.map (fun d -> Str d) deltas));
              ] );
        ( "data",
          match data_spec with
          | None -> Null
          | Some (max_drop, pinned) ->
            Obj
              [
                ("max_drop", Num max_drop);
                ("pinned", Arr (List.map (fun p -> Str p) pinned));
              ] );
        ("traces", Str traces);
        ("phi", Str phi);
      ]

let job_request_of_json j =
  let str key = to_str key (get key j) in
  let int key = to_int key (get key j) in
  let num key = to_num key (get key j) in
  (* optional on the wire so protocol-1 clients that predate the region
     backend keep working; absent means the NLP path *)
  let backend () =
    match opt "backend" j with Some b -> to_str "backend" b | None -> "nlp"
  in
  match str "kind" with
  | "check" -> Check_req { model = str "model"; phi = str "phi" }
  | "model-repair" ->
    Model_repair_req
      {
        model = str "model";
        phi = str "phi";
        variables = str_list "variables" (get "variables" j);
        deltas = str_list "deltas" (get "deltas" j);
        starts = int "starts";
        backend = backend ();
      }
  | "data-repair" ->
    Data_repair_req
      {
        states = int "states";
        init = int "init";
        labels = labels_of_json (get "labels" j);
        rewards = rewards_of_json j;
        phi = str "phi";
        traces = str "traces";
        max_drop = num "max_drop";
        pinned = str_list "pinned" (get "pinned" j);
        starts = int "starts";
        backend = backend ();
      }
  | "reward-repair" ->
    Reward_repair_req
      {
        mdp = str "mdp";
        theta = num_list "theta" (get "theta" j);
        constraints =
          List.map
            (fun c ->
               ( to_int "state" (get "state" c),
                 to_str "better" (get "better" c),
                 to_str "worse" (get "worse" c),
                 to_num "margin" (get "margin" c) ))
            (to_arr "constraints" (get "constraints" j));
        gamma = num "gamma";
        starts = int "starts";
      }
  | "pipeline" ->
    Pipeline_req
      {
        states = int "states";
        init = int "init";
        labels = labels_of_json (get "labels" j);
        rewards = rewards_of_json j;
        model_spec =
          Option.map
            (fun m ->
               ( str_list "variables" (get "variables" m),
                 str_list "deltas" (get "deltas" m) ))
            (opt "model" j);
        data_spec =
          Option.map
            (fun d ->
               ( to_num "max_drop" (get "max_drop" d),
                 str_list "pinned" (get "pinned" d) ))
            (opt "data" j);
        traces = str "traces";
        phi = str "phi";
      }
  | k -> proto "unknown job kind %S" k

(* Decode the textual payload into a real [Job.t] with the lib/io parsers.
   A lib/io parse failure escapes as that parser's own exception; the
   router maps it to a non-transient [bad-request] wire error. *)
let parse_backend b =
  match Repair_backend.of_string b with
  | Ok backend -> backend
  | Error msg -> proto "field \"backend\": %s" msg

let decode_job = function
  | Check_req { model; phi } ->
    Job.Check { model = Dtmc_io.parse model; phi = Pctl_parser.parse phi }
  | Model_repair_req { model; phi; variables; deltas; starts; backend } ->
    Job.Model_repair
      {
        model = Dtmc_io.parse model;
        phi = Pctl_parser.parse phi;
        spec =
          {
            Model_repair.variables = List.map Spec_io.parse_variable variables;
            deltas = List.map Spec_io.parse_delta deltas;
          };
        starts;
        backend = parse_backend backend;
      }
  | Data_repair_req
      {
        states;
        init;
        labels;
        rewards;
        phi;
        traces;
        max_drop;
        pinned;
        starts;
        backend;
      } ->
    Job.Data_repair
      {
        n = states;
        init;
        labels;
        rewards =
          Option.map
            (fun rs -> Array.of_list (List.map Ratio.of_float rs))
            rewards;
        phi = Pctl_parser.parse phi;
        spec =
          Data_repair.spec ~max_drop ~pinned
            (Trace_io.parse_tallies ~n:states traces);
        starts;
        backend = parse_backend backend;
      }
  | Reward_repair_req { mdp; theta; constraints; gamma; starts = _ } ->
    Job.Reward_repair
      {
        mdp = Mdp_io.parse mdp;
        theta = Array.of_list theta;
        constraints =
          List.map
            (fun (state, better, worse, margin) ->
               { Reward_repair.state; better; worse; margin })
            constraints;
        gamma;
      }
  | Pipeline_req
      { states; init; labels; rewards; model_spec; data_spec; traces; phi } ->
    let groups = Trace_io.parse_tallies ~n:states traces in
    Job.Pipeline
      {
        n = states;
        init;
        labels;
        rewards =
          Option.map
            (fun rs -> Array.of_list (List.map Ratio.of_float rs))
            rewards;
        model_spec =
          Option.map
            (fun (variables, deltas) ->
               {
                 Model_repair.variables =
                   List.map Spec_io.parse_variable variables;
                 deltas = List.map Spec_io.parse_delta deltas;
               })
            model_spec;
        data_spec =
          Option.map
            (fun (max_drop, pinned) ->
               Data_repair.spec ~max_drop ~pinned groups)
            data_spec;
        groups;
        phi = Pctl_parser.parse phi;
      }

(* A malformed formula and the payload checks of [Data_repair.spec]
   (max_drop outside (0, 1), an unknown pinned group) are bad requests
   too — here, at decode time only: the same exceptions raised while a
   job runs are answered ["internal"]. *)
let job_of_request jr =
  try decode_job jr with
  | Pctl_parser.Parse_error m | Invalid_argument m -> raise (Bad_request m)

(* ---------------------------- watch codecs ------------------------- *)

type watch_spec = {
  states : int;
  init : int;
  labels : (string * int list) list;
  rewards : float list option;
  phi : string;
  max_drop : float;
  pinned : string list;
  starts : int;
  backend : string;
}

let watch_spec_to_json (s : watch_spec) =
  Obj
    [
      ("states", Num (float_of_int s.states));
      ("init", Num (float_of_int s.init));
      ("labels", labels_to_json s.labels);
      ("rewards", rewards_to_json s.rewards);
      ("phi", Str s.phi);
      ("max_drop", Num s.max_drop);
      ("pinned", Arr (List.map (fun p -> Str p) s.pinned));
      ("starts", Num (float_of_int s.starts));
      ("backend", Str s.backend);
    ]

let watch_spec_of_json j =
  {
    states = to_int "states" (get "states" j);
    init = to_int "init" (get "init" j);
    labels = labels_of_json (get "labels" j);
    rewards = rewards_of_json j;
    phi = to_str "phi" (get "phi" j);
    max_drop = to_num "max_drop" (get "max_drop" j);
    pinned = str_list "pinned" (get "pinned" j);
    starts = to_int "starts" (get "starts" j);
    backend =
      (match opt "backend" j with
       | Some b -> to_str "backend" b
       | None -> "nlp");
  }

(* The Data Repair job a violated watch submits: the accumulated traces
   in canonical textual form, under the watch's registered spec.  A
   batch submit of the concatenated trace text under the same spec
   decodes to the same [Job.t] — equal digests, byte-identical report. *)
let job_request_of_watch (s : watch_spec) ~traces =
  Data_repair_req
    {
      states = s.states;
      init = s.init;
      labels = s.labels;
      rewards = s.rewards;
      phi = s.phi;
      traces;
      max_drop = s.max_drop;
      pinned = s.pinned;
      starts = s.starts;
      backend = s.backend;
    }

(* ---------------------------- envelopes ---------------------------- *)

type request =
  | Submit of job_request
  | Poll of string
  | Wait of string * float option
  | Cancel of string
  | Stats
  | Ping
  | Put_report of { job : string; report : string }
  | Fleet_status
  | Drain_node of string
  | Watch_op of { watch : string; spec : watch_spec option; from_seq : int option }
  | Append_chunk of { watch : string; chunk : string }
  | Unwatch of string

type job_state =
  | Job_pending
  | Job_done of string
  | Job_failed of err
  | Job_cancelled
  | Job_timed_out

type response =
  | Accepted of { job : string; cached : bool }
  | Status of { job : string; state : job_state }
  | Cancelled of { job : string; cancelled : bool }
  | Stats_reply of json
  | Pong
  | Error_reply of err
  | Stored of { job : string }
  | Fleet_reply of json
  | Drained of { node : string; pending : int }
  | Watched of { watch : string; seq : int; created : bool }
  | Appended of {
      watch : string;
      lines : int;
      support_changed : bool;
      value : float option;
      violated : bool;
      job : string option;
      recheck : string;
    }
  | Unwatched of { watch : string; existed : bool }
  | Annotated of (string * json) list * response

let envelope id fields = Obj (("v", Num (float_of_int version)) :: ("id", Num (float_of_int id)) :: fields)

let request_to_json ~id = function
  | Submit jr ->
    envelope id [ ("op", Str "submit"); ("job", job_request_to_json jr) ]
  | Poll job -> envelope id [ ("op", Str "poll"); ("job", Str job) ]
  | Wait (job, timeout_s) ->
    envelope id
      (("op", Str "wait") :: ("job", Str job)
       ::
       (match timeout_s with
        | None -> []
        | Some t -> [ ("timeout_s", Num t) ]))
  | Cancel job -> envelope id [ ("op", Str "cancel"); ("job", Str job) ]
  | Stats -> envelope id [ ("op", Str "stats") ]
  | Ping -> envelope id [ ("op", Str "ping") ]
  | Put_report { job; report } ->
    envelope id
      [ ("op", Str "put-report"); ("job", Str job); ("report", Str report) ]
  | Fleet_status -> envelope id [ ("op", Str "fleet") ]
  | Drain_node node ->
    envelope id [ ("op", Str "drain"); ("node", Str node) ]
  | Watch_op { watch; spec; from_seq } ->
    envelope id
      (("op", Str "watch") :: ("watch", Str watch)
       :: ((match spec with
            | None -> []
            | Some s -> [ ("spec", watch_spec_to_json s) ])
           @ (match from_seq with
              | None -> []
              | Some s -> [ ("from_seq", Num (float_of_int s)) ])))
  | Append_chunk { watch; chunk } ->
    envelope id
      [ ("op", Str "append-chunk"); ("watch", Str watch); ("chunk", Str chunk) ]
  | Unwatch watch ->
    envelope id [ ("op", Str "unwatch"); ("watch", Str watch) ]

let check_version j =
  match opt "v" j with
  | Some v ->
    let v = to_int "v" v in
    if v <> version then proto "unsupported protocol version %d (want %d)" v version
  | None -> proto "missing field \"v\""

let request_of_json j =
  check_version j;
  let id = to_int "id" (get "id" j) in
  let req =
    match to_str "op" (get "op" j) with
    | "submit" -> Submit (job_request_of_json (get "job" j))
    | "poll" -> Poll (to_str "job" (get "job" j))
    | "wait" ->
      Wait
        ( to_str "job" (get "job" j),
          Option.map (to_num "timeout_s") (opt "timeout_s" j) )
    | "cancel" -> Cancel (to_str "job" (get "job" j))
    | "stats" -> Stats
    | "ping" -> Ping
    | "put-report" ->
      Put_report
        { job = to_str "job" (get "job" j);
          report = to_str "report" (get "report" j) }
    | "fleet" -> Fleet_status
    | "drain" -> Drain_node (to_str "node" (get "node" j))
    | "watch" ->
      Watch_op
        {
          watch = to_str "watch" (get "watch" j);
          spec = Option.map watch_spec_of_json (opt "spec" j);
          from_seq = Option.map (to_int "from_seq") (opt "from_seq" j);
        }
    | "append-chunk" ->
      Append_chunk
        {
          watch = to_str "watch" (get "watch" j);
          chunk = to_str "chunk" (get "chunk" j);
        }
    | "unwatch" -> Unwatch (to_str "watch" (get "watch" j))
    | op -> proto "unknown op %S" op
  in
  (id, req)

let state_fields = function
  | Job_pending -> [ ("status", Str "pending") ]
  | Job_done report -> [ ("status", Str "done"); ("report", Str report) ]
  | Job_failed e -> [ ("status", Str "failed"); ("error", err_to_json e) ]
  | Job_cancelled -> [ ("status", Str "cancelled") ]
  | Job_timed_out -> [ ("status", Str "timed-out") ]

let rec response_to_json ~id = function
  | Annotated (extra, resp) ->
    (* extra fields are purely informational (e.g. the coordinator's
       serving-node annotation): appended after the base envelope so
       protocol-1 decoders, which ignore unknown fields, are unaffected *)
    (match response_to_json ~id resp with
     | Obj fields ->
       let keys = List.map fst fields in
       Obj (fields @ List.filter (fun (k, _) -> not (List.mem k keys)) extra)
     | j -> j)
  | Stored { job } ->
    envelope id [ ("ok", Bool true); ("job", Str job); ("stored", Bool true) ]
  | Fleet_reply fleet -> envelope id [ ("ok", Bool true); ("fleet", fleet) ]
  | Drained { node; pending } ->
    envelope id
      [
        ("ok", Bool true);
        ("node", Str node);
        ("drained", Bool true);
        ("pending", Num (float_of_int pending));
      ]
  | Accepted { job; cached } ->
    envelope id
      [
        ("ok", Bool true);
        ("job", Str job);
        ("status", Str (if cached then "cached" else "queued"));
      ]
  | Status { job; state } ->
    envelope id (("ok", Bool true) :: ("job", Str job) :: state_fields state)
  | Cancelled { job; cancelled } ->
    envelope id
      [ ("ok", Bool true); ("job", Str job); ("cancelled", Bool cancelled) ]
  | Stats_reply stats -> envelope id [ ("ok", Bool true); ("stats", stats) ]
  | Pong -> envelope id [ ("ok", Bool true); ("pong", Bool true) ]
  | Error_reply e -> envelope id [ ("ok", Bool false); ("error", err_to_json e) ]
  | Watched { watch; seq; created } ->
    envelope id
      [
        ("ok", Bool true);
        ("watch", Str watch);
        ("seq", Num (float_of_int seq));
        ("created", Bool created);
      ]
  | Appended { watch; lines; support_changed; value; violated; job; recheck } ->
    envelope id
      ([
        ("ok", Bool true);
        ("watch", Str watch);
        ("lines", Num (float_of_int lines));
        ("support_changed", Bool support_changed);
        ("violated", Bool violated);
        ("recheck", Str recheck);
      ]
        @ (match value with None -> [] | Some v -> [ ("value", Num v) ])
        @ (match job with None -> [] | Some d -> [ ("job", Str d) ]))
  | Unwatched { watch; existed } ->
    envelope id
      [ ("ok", Bool true); ("watch", Str watch); ("existed", Bool existed) ]

let response_of_json j =
  check_version j;
  let id = to_int "id" (get "id" j) in
  let resp =
    if not (to_bool "ok" (get "ok" j)) then
      Error_reply (err_of_json (get "error" j))
    else if member "pong" j <> None then Pong
    else if member "stats" j <> None then Stats_reply (get "stats" j)
    else if member "fleet" j <> None then Fleet_reply (get "fleet" j)
    else if member "stored" j <> None then
      Stored { job = to_str "job" (get "job" j) }
    else if member "drained" j <> None then
      Drained
        {
          node = to_str "node" (get "node" j);
          pending = to_int "pending" (get "pending" j);
        }
    else if member "created" j <> None then
      Watched
        {
          watch = to_str "watch" (get "watch" j);
          seq = to_int "seq" (get "seq" j);
          created = to_bool "created" (get "created" j);
        }
    else if member "lines" j <> None then
      Appended
        {
          watch = to_str "watch" (get "watch" j);
          lines = to_int "lines" (get "lines" j);
          support_changed = to_bool "support_changed" (get "support_changed" j);
          value = Option.map (to_num "value") (opt "value" j);
          violated = to_bool "violated" (get "violated" j);
          job = Option.map (to_str "job") (opt "job" j);
          recheck = to_str "recheck" (get "recheck" j);
        }
    else if member "existed" j <> None then
      Unwatched
        {
          watch = to_str "watch" (get "watch" j);
          existed = to_bool "existed" (get "existed" j);
        }
    else if member "cancelled" j <> None then
      Cancelled
        {
          job = to_str "job" (get "job" j);
          cancelled = to_bool "cancelled" (get "cancelled" j);
        }
    else
      let job = to_str "job" (get "job" j) in
      match to_str "status" (get "status" j) with
      | "queued" -> Accepted { job; cached = false }
      | "cached" -> Accepted { job; cached = true }
      | "pending" -> Status { job; state = Job_pending }
      | "done" ->
        Status { job; state = Job_done (to_str "report" (get "report" j)) }
      | "failed" ->
        Status { job; state = Job_failed (err_of_json (get "error" j)) }
      | "cancelled" -> Status { job; state = Job_cancelled }
      | "timed-out" -> Status { job; state = Job_timed_out }
      | s -> proto "unknown status %S" s
  in
  (id, resp)

(* --------------------------- server push --------------------------- *)

(* Push frames are server-initiated: they carry correlation id 0 (which
   request ids never use — clients start at 1) and a ["push"] marker
   member, so a pre-watch protocol-1 client that checks ids before
   anything else can also detect and skip them via [is_push].  New push
   kinds extend the ["push"] member's value; unknown kinds must be
   skipped, same contract as unknown fields. *)

type notification = {
  watch : string;
  seq : int;
  event : string;
  value : float option;
  job : string option;
  report : string option;
  error : err option;
}

let push_id = 0

let is_push j =
  match member "push" j with Some (Str _) -> true | _ -> false

let notification_to_json (n : notification) =
  envelope push_id
    ([
      ("push", Str "notification");
      ("watch", Str n.watch);
      ("seq", Num (float_of_int n.seq));
      ("event", Str n.event);
    ]
      @ (match n.value with None -> [] | Some v -> [ ("value", Num v) ])
      @ (match n.job with None -> [] | Some d -> [ ("job", Str d) ])
      @ (match n.report with None -> [] | Some r -> [ ("report", Str r) ])
      @ (match n.error with None -> [] | Some e -> [ ("error", err_to_json e) ]))

let notification_of_json j =
  check_version j;
  (match member "push" j with
   | Some (Str "notification") -> ()
   | _ -> proto "not a notification push frame");
  {
    watch = to_str "watch" (get "watch" j);
    seq = to_int "seq" (get "seq" j);
    event = to_str "event" (get "event" j);
    value = Option.map (to_num "value") (opt "value" j);
    job = Option.map (to_str "job") (opt "job" j);
    report = Option.map (to_str "report") (opt "report" j);
    error = Option.map err_of_json (opt "error" j);
  }
