(* Tests for lib/server: wire framing and codecs, the router, admission
   shedding, graceful drain, chaos faults at the connection sites, and a
   live server over Unix-domain and TCP sockets. *)

(* ------------------------------ fixtures ------------------------------ *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "tml-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let model_text =
  "dtmc\n\
   states 3\n\
   init 0\n\
   0 -> 1 : 0.3\n\
   0 -> 2 : 0.7\n\
   1 -> 1 : 1.0\n\
   2 -> 2 : 1.0\n\
   label goal = 1\n"

let check_req b =
  Wire.Check_req
    { model = model_text; phi = Printf.sprintf "P>=%g [ F goal ]" b }

(* A tiny server over a fresh runtime; read timeout kept short by
   default so conn threads notice a drain quickly. *)
let with_server ?admission ?(workers = 2) ?(read_timeout_s = 0.25) f =
  Runtime.with_runtime ~workers @@ fun rt ->
  let router = Router.create ?admission rt in
  let path = fresh_sock () in
  let server =
    Server.start ~read_timeout_s ~write_timeout_s:2.0
      ~drain_timeout_s:10.0 ~handler:(Server.handler_of_router router) (`Unix path)
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f (`Unix path : Client.addr) server router)

let with_delay_faults ?(fires = 4) ?(delay = 0.4) f =
  Fault.install
    (Some (Fault.plan [ Fault.spec ~fires Fault.Check (Fault.Delay delay) ]));
  Fun.protect ~finally:(fun () -> Fault.install None) f

let expect_remote_error ~kind ~transient what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Remote_error %s" what kind
  | exception Client.Remote_error e ->
    Alcotest.(check string) (what ^ ": kind") kind e.Wire.kind;
    Alcotest.(check bool) (what ^ ": transient") transient e.Wire.transient

(* -------------------------------- json -------------------------------- *)

let test_json_roundtrip () =
  let samples =
    [
      Wire.Null;
      Wire.Bool true;
      Wire.Num 0.0;
      Wire.Num (-12345.0);
      Wire.Num 0.125;
      Wire.Str "";
      Wire.Str "with \"quotes\", back\\slash,\nnewline\tand tab";
      Wire.Arr [ Wire.Num 1.0; Wire.Str "two"; Wire.Null ];
      Wire.Obj
        [
          ("a", Wire.Arr []);
          ("b", Wire.Obj [ ("nested", Wire.Bool false) ]);
          ("c", Wire.Str "x");
        ];
    ]
  in
  List.iter
    (fun j ->
       let j' = Wire.parse (Wire.render j) in
       Alcotest.(check bool)
         (Printf.sprintf "round-trips %s" (Wire.render j))
         true (j = j'))
    samples;
  (* unicode escapes decode to UTF-8 *)
  (match Wire.parse {|"éA"|} with
   | Wire.Str s -> Alcotest.(check string) "utf8 escape" "\xc3\xa9A" s
   | _ -> Alcotest.fail "expected a string");
  List.iter
    (fun bad ->
       match Wire.parse bad with
       | exception Wire.Protocol_error _ -> ()
       | _ -> Alcotest.failf "garbage %S should not parse" bad)
    [ "{"; "[1,]"; "\"unterminated"; "nulll"; "{\"a\" 1}"; "1 2"; "" ]

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () -> close a; close b)
    (fun () ->
       let msgs =
         [
           Wire.Obj [ ("x", Wire.Num 1.0) ];
           Wire.Str (String.make 2000 'y');
           Wire.Arr [];
         ]
       in
       List.iter (Wire.write_frame a) msgs;
       List.iter
         (fun expected ->
            match Wire.read_frame b with
            | `Frame got ->
              Alcotest.(check bool) "frame round-trips" true (got = expected)
            | `Eof | `Idle -> Alcotest.fail "expected a frame")
         msgs;
       (* clean close between frames is Eof, not an error *)
       Unix.close a;
       match Wire.read_frame b with
       | `Eof -> ()
       | _ -> Alcotest.fail "expected Eof after close")

let test_frame_oversized_and_garbage () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
       Wire.write_frame a (Wire.Str (String.make 100 'z'));
       (match Wire.read_frame ~max_frame:16 b with
        | exception Wire.Protocol_error msg ->
          Alcotest.(check bool) "oversized names the limit" true
            (String.length msg > 0)
        | _ -> Alcotest.fail "oversized frame must be rejected");
       ());
  (* a frame whose payload is not JSON *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
       let payload = "not json at all {" in
       let frame = Bytes.create (4 + String.length payload) in
       Bytes.set_int32_be frame 0 (Int32.of_int (String.length payload));
       Bytes.blit_string payload 0 frame 4 (String.length payload);
       ignore (Unix.write a frame 0 (Bytes.length frame) : int);
       (match Wire.read_frame b with
        | exception Wire.Protocol_error _ -> ()
        | _ -> Alcotest.fail "garbage payload must be rejected");
       ());
  (* a peer that dies mid-frame *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close b)
    (fun () ->
       let hdr = Bytes.create 4 in
       Bytes.set_int32_be hdr 0 64l;
       ignore (Unix.write a hdr 0 4 : int);
       ignore (Unix.write_substring a "short" 0 5 : int);
       Unix.close a;
       match Wire.read_frame b with
       | exception Wire.Peer_closed _ -> ()
       | _ -> Alcotest.fail "truncated frame must raise Peer_closed")

let test_envelope_roundtrip () =
  let reqs =
    [
      Wire.Submit (check_req 0.25);
      Wire.Submit
        (Wire.Model_repair_req
           {
             model = model_text;
             phi = "P>=0.5 [ F goal ]";
             variables = [ "v:0:0.4" ];
             deltas = [ "0,1,+v"; "0,2,-v" ];
             starts = 2;
             backend = "region";
           });
      Wire.Submit
        (Wire.Data_repair_req
           {
             states = 3;
             init = 0;
             labels = [ ("goal", [ 1 ]); ("fail", [ 2 ]) ];
             rewards = Some [ 1.0; 0.0; 0.5 ];
             phi = "P>=0.5 [ F goal ]";
             traces = "group a\n0 1\n";
             max_drop = 0.9;
             pinned = [ "a" ];
             starts = 2;
             backend = "nlp";
           });
      Wire.Submit
        (Wire.Reward_repair_req
           {
             mdp = "mdp\nstates 1\ninit 0\n0 stay -> 0 : 1.0\n";
             theta = [ 0.5; -0.25 ];
             constraints = [ (0, "stay", "go", 1e-4) ];
             gamma = 0.9;
             starts = 2;
           });
      Wire.Submit
        (Wire.Pipeline_req
           {
             states = 3;
             init = 0;
             labels = [ ("goal", [ 1 ]) ];
             rewards = None;
             model_spec = Some ([ "v:0:0.4" ], [ "0,1,+v"; "0,2,-v" ]);
             data_spec = Some (0.9, [ "clean" ]);
             traces = "0 1\n";
             phi = "P>=0.5 [ F goal ]";
           });
      Wire.Poll "abc123";
      Wire.Wait ("abc123", Some 1.5);
      Wire.Wait ("abc123", None);
      Wire.Cancel "abc123";
      Wire.Stats;
      Wire.Ping;
      Wire.Put_report { job = "abc123"; report = "report text\n" };
      Wire.Fleet_status;
      Wire.Drain_node "unix:/tmp/node-2.sock";
    ]
  in
  List.iteri
    (fun i req ->
       let id = i + 7 in
       let id', req' =
         Wire.request_of_json (Wire.parse (Wire.render (Wire.request_to_json ~id req)))
       in
       Alcotest.(check int) "request id round-trips" id id';
       Alcotest.(check bool) "request round-trips" true (req = req'))
    reqs;
  let resps =
    [
      Wire.Accepted { job = "d1"; cached = false };
      Wire.Accepted { job = "d1"; cached = true };
      Wire.Status { job = "d1"; state = Wire.Job_pending };
      Wire.Status { job = "d1"; state = Wire.Job_done "report text\n" };
      Wire.Status
        {
          job = "d1";
          state =
            Wire.Job_failed
              { Wire.kind = "overloaded"; message = "queue full"; transient = true };
        };
      Wire.Status { job = "d1"; state = Wire.Job_cancelled };
      Wire.Status { job = "d1"; state = Wire.Job_timed_out };
      Wire.Cancelled { job = "d1"; cancelled = true };
      Wire.Stats_reply (Wire.Obj [ ("jobs", Wire.Num 3.0) ]);
      Wire.Pong;
      Wire.Error_reply
        { Wire.kind = "protocol"; message = "bad"; transient = false };
      Wire.Stored { job = "d1" };
      Wire.Fleet_reply (Wire.Obj [ ("ring", Wire.Arr [ Wire.Str "n1" ]) ]);
      Wire.Drained { node = "unix:/tmp/node-2.sock"; pending = 0 };
      Wire.Drained { node = "127.0.0.1:7001"; pending = 3 };
    ]
  in
  List.iteri
    (fun i resp ->
       let id = i + 3 in
       let id', resp' =
         Wire.response_of_json
           (Wire.parse (Wire.render (Wire.response_to_json ~id resp)))
       in
       Alcotest.(check int) "response id round-trips" id id';
       Alcotest.(check bool) "response round-trips" true (resp = resp'))
    resps;
  (* version mismatch is rejected *)
  match
    Wire.request_of_json
      (Wire.Obj [ ("v", Wire.Num 99.0); ("id", Wire.Num 1.0); ("op", Wire.Str "ping") ])
  with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "version 99 must be rejected"

(* Protocol-1 forward compatibility: unknown envelope fields are ignored
   on decode.  This is exactly what lets an unmodified v1 client talk to
   a fleet coordinator, whose responses carry an extra "node"
   serving-node annotation. *)
let test_unknown_fields_ignored () =
  let id, req =
    Wire.request_of_json
      (Wire.Obj
         [
           ("v", Wire.Num 1.0);
           ("id", Wire.Num 4.0);
           ("op", Wire.Str "ping");
           ("shard", Wire.Str "a");
           ("hop", Wire.Num 2.0);
         ])
  in
  Alcotest.(check int) "id survives stray fields" 4 id;
  Alcotest.(check bool) "request decodes past stray fields" true
    (req = Wire.Ping);
  let resp = Wire.Accepted { job = "d1"; cached = false } in
  let annotated =
    Wire.Annotated ([ ("node", Wire.Str "unix:/tmp/n0.sock") ], resp)
  in
  let json = Wire.response_to_json ~id:9 annotated in
  (match Wire.member "node" json with
   | Some (Wire.Str "unix:/tmp/n0.sock") -> ()
   | _ -> Alcotest.fail "the annotation must appear on the wire");
  let id', resp' = Wire.response_of_json (Wire.parse (Wire.render json)) in
  Alcotest.(check int) "annotated response id" 9 id';
  Alcotest.(check bool) "a v1 decoder sees the base response" true
    (resp' = resp);
  (* an annotation may not shadow a base envelope field *)
  let clash =
    Wire.response_to_json ~id:1
      (Wire.Annotated ([ ("job", Wire.Str "evil") ], resp))
  in
  match Wire.member "job" clash with
  | Some (Wire.Str "d1") -> ()
  | _ -> Alcotest.fail "base fields must win over annotations"

let test_job_decoding () =
  (match Wire.job_of_request (check_req 0.25) with
   | Job.Check _ -> ()
   | _ -> Alcotest.fail "expected a Check job");
  (* malformed payloads raise the underlying parser's error *)
  match
    Wire.job_of_request (Wire.Check_req { model = "not a model"; phi = "P>=1 [ F g ]" })
  with
  | exception Dtmc_io.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad model text must raise Dtmc_io.Parse_error"

(* ----------------------------- live server ---------------------------- *)

let zero_copy_saved =
  (* same name → same registered counter as the server's *)
  Metrics.counter "tml_server_zero_copy_bytes_saved_total"

let test_ping_stats_over_unix_socket () =
  let saved0 = Metrics.counter_value zero_copy_saved in
  (with_server @@ fun addr _server _router ->
   Client.with_client addr @@ fun c ->
   Client.ping c;
   match Wire.member "jobs" (Client.stats c) with
   | Some _ -> ()
   | None -> Alcotest.fail "stats dump should contain a jobs section");
  (* both replies were rendered straight into the connection's write
     buffer: the zero-copy counter grows by at least the two frames'
     bytes (4-byte header + body each) *)
  Alcotest.(check bool) "zero-copy bytes counted" true
    (Metrics.counter_value zero_copy_saved - saved0 > 8)

let test_submit_wait_poll_cancel () =
  with_server @@ fun addr _server _router ->
  Client.with_client addr @@ fun c ->
  (* submit + wait; the cached flag on a first submit is racy by design
     (a fast job can settle before the accept response is built), so it
     is only asserted on the post-completion resubmit below *)
  let digest, _cached = Client.submit c (check_req 0.25) in
  (match Client.wait c digest with
   | Wire.Job_done report ->
     Alcotest.(check bool) "report is non-empty" true (String.length report > 0)
   | _ -> Alcotest.fail "expected Job_done");
  (* poll after completion *)
  (match Client.poll c digest with
   | Wire.Job_done _ -> ()
   | _ -> Alcotest.fail "poll after completion is Job_done");
  (* duplicate submit joins the settled job *)
  let digest', cached' = Client.submit c (check_req 0.25) in
  Alcotest.(check string) "same inputs, same digest" digest digest';
  Alcotest.(check bool) "second submit served from cache" true cached';
  (* unknown digest *)
  expect_remote_error ~kind:"not-found" ~transient:false "unknown digest"
    (fun () -> Client.poll c "deadbeef");
  (* a malformed job is a bad-request, not a crash *)
  expect_remote_error ~kind:"bad-request" ~transient:false "bad model"
    (fun () ->
       Client.submit c
         (Wire.Check_req { model = "garbage"; phi = "P>=0.5 [ F goal ]" }))

let test_wait_timeout_and_cancel () =
  with_delay_faults ~fires:4 ~delay:0.4 @@ fun () ->
  with_server ~workers:1 @@ fun addr _server _router ->
  Client.with_client addr @@ fun c ->
  (* the single worker is busy with [slow]; [queued] sits in the queue *)
  let slow, _ = Client.submit c (check_req 0.11) in
  let queued, _ = Client.submit c (check_req 0.12) in
  (match Client.wait c ~timeout_s:0.05 slow with
   | Wire.Job_pending -> ()
   | _ -> Alcotest.fail "wait past its timeout reports Job_pending");
  Alcotest.(check bool) "queued job cancels" true (Client.cancel c queued);
  (match Client.wait c queued with
   | Wire.Job_cancelled -> ()
   | _ -> Alcotest.fail "cancelled job settles Job_cancelled");
  match Client.wait c slow with
  | Wire.Job_done _ -> ()
  | _ -> Alcotest.fail "slow job still completes"

let test_admission_sheds_overloaded () =
  with_delay_faults ~fires:8 ~delay:0.5 @@ fun () ->
  let admission = Admission.create ~max_pending:2 ~max_per_client:16 () in
  with_server ~admission ~workers:1 @@ fun addr _server router ->
  Client.with_client addr @@ fun c ->
  let _a = Client.submit c (check_req 0.21) in
  let _b = Client.submit c (check_req 0.22) in
  expect_remote_error ~kind:"overloaded" ~transient:true "third submit"
    (fun () -> Client.submit c (check_req 0.23));
  Alcotest.(check int) "two tickets held" 2
    (Admission.pending (Router.admission router));
  Alcotest.(check bool) "shed was counted" true
    (Admission.shed_count (Router.admission router) >= 1)

let test_per_client_limit () =
  with_delay_faults ~fires:8 ~delay:0.5 @@ fun () ->
  let admission = Admission.create ~max_pending:16 ~max_per_client:1 () in
  with_server ~admission ~workers:1 @@ fun addr _server _router ->
  Client.with_client addr @@ fun c1 ->
  let _a = Client.submit c1 (check_req 0.31) in
  expect_remote_error ~kind:"overloaded" ~transient:true
    "same client over its limit" (fun () -> Client.submit c1 (check_req 0.32));
  (* a different connection still gets in *)
  Client.with_client addr @@ fun c2 ->
  let digest, _ = Client.submit c2 (check_req 0.33) in
  Alcotest.(check bool) "other client admitted" true (String.length digest > 0)

let test_graceful_drain () =
  with_delay_faults ~fires:2 ~delay:0.3 @@ fun () ->
  Runtime.with_runtime ~workers:1 @@ fun rt ->
  let router = Router.create rt in
  let path = fresh_sock () in
  let server =
    Server.start ~read_timeout_s:0.25 ~write_timeout_s:2.0 ~handler:(Server.handler_of_router router) (`Unix path)
  in
  let c = Client.connect (`Unix path) in
  let digest, _ = Client.submit c (check_req 0.41) in
  (* begin the drain while the job is still running *)
  Server.request_stop server;
  Server.stop server;
  Client.close c;
  Alcotest.(check int) "no job left pending after drain" 0
    (Router.pending_jobs router);
  Alcotest.(check int) "every admission ticket released" 0
    (Admission.pending (Router.admission router));
  (* the admitted job's result survived the drain *)
  (match Router.handle router ~client:99 (Wire.Poll digest) with
   | Wire.Status { state = Wire.Job_done _; _ } -> ()
   | _ -> Alcotest.fail "drained job should have completed");
  (* new submits are rejected while draining *)
  (match Router.handle router ~client:99 (Wire.Submit (check_req 0.42)) with
   | Wire.Error_reply e ->
     Alcotest.(check string) "draining rejection kind" "unavailable" e.Wire.kind;
     Alcotest.(check bool) "draining rejection transient" true e.Wire.transient
   | _ -> Alcotest.fail "submit during drain must be rejected");
  (* the socket file is gone and the listener no longer accepts *)
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* The drain-mode edge PR 5 left untested: a wait (or poll) on a ticket
   that already completed must keep serving the report during a drain —
   only new submits are refused. *)
let test_drain_serves_completed_ticket () =
  with_server @@ fun addr _server router ->
  Client.with_client addr @@ fun c ->
  let digest, _ = Client.submit c (check_req 0.27) in
  (match Client.wait c digest with
   | Wire.Job_done _ -> ()
   | _ -> Alcotest.fail "expected Job_done before the drain");
  Router.set_draining router;
  (match Client.wait c digest with
   | Wire.Job_done report ->
     Alcotest.(check bool) "report still served during drain" true
       (String.length report > 0)
   | _ -> Alcotest.fail "wait on a completed ticket during drain must \
                         return the report, not Unavailable");
  (match Client.poll c digest with
   | Wire.Job_done _ -> ()
   | _ -> Alcotest.fail "poll on a completed ticket during drain");
  expect_remote_error ~kind:"unavailable" ~transient:true
    "drain refuses new submits" (fun () ->
        Client.submit c (check_req 0.31))

let test_protocol_error_over_live_server () =
  with_server @@ fun addr _server _router ->
  let path = match addr with `Unix p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect fd (Unix.ADDR_UNIX path);
       (* wrong protocol version: answered with a protocol error, and the
          connection stays usable *)
       Wire.write_frame fd
         (Wire.Obj
            [ ("v", Wire.Num 2.0); ("id", Wire.Num 5.0); ("op", Wire.Str "ping") ]);
       (match Wire.read_frame fd with
        | `Frame j -> (
            match Wire.response_of_json j with
            | _, Wire.Error_reply e ->
              Alcotest.(check string) "protocol error kind" "protocol" e.Wire.kind;
              Alcotest.(check bool) "id echoed" true
                (Wire.member "id" j = Some (Wire.Num 5.0))
            | _ -> Alcotest.fail "expected an error reply")
        | _ -> Alcotest.fail "expected a frame");
       Wire.write_frame fd (Wire.request_to_json ~id:6 Wire.Ping);
       match Wire.read_frame fd with
       | `Frame j -> (
           match Wire.response_of_json j with
           | 6, Wire.Pong -> ()
           | _ -> Alcotest.fail "ping after protocol error should still work")
       | _ -> Alcotest.fail "expected a pong frame")

(* ------------------------------- chaos -------------------------------- *)

let with_fault site action f =
  Fault.install (Some (Fault.plan [ Fault.spec ~fires:1 site action ]));
  Fun.protect ~finally:(fun () -> Fault.install None) f

let test_chaos_decode_fault () =
  with_server @@ fun addr _server _router ->
  with_fault Fault.Decode Fault.Raise @@ fun () ->
  Client.with_client addr @@ fun c ->
  expect_remote_error ~kind:"injected-fault" ~transient:true "faulted decode"
    (fun () -> Client.ping c);
  (* the connection survives a decode fault *)
  Client.ping c

let test_chaos_read_fault () =
  with_server @@ fun addr _server _router ->
  (with_fault Fault.Read Fault.Raise @@ fun () ->
   Client.with_client addr @@ fun c ->
   (* the server's read probe fires, it answers with an error frame (id 0,
      since no request was decoded) and hangs up — the client surfaces
      this as a protocol failure either way *)
   match Client.ping c with
   | () -> Alcotest.fail "expected the faulted read to kill the request"
   | exception (Wire.Protocol_error _ | Client.Remote_error _) -> ());
  (* the server itself survives: a fresh connection works *)
  Client.with_client addr @@ fun c -> Client.ping c

let test_chaos_write_fault () =
  with_server @@ fun addr _server _router ->
  (with_fault Fault.Write Fault.Raise @@ fun () ->
   Client.with_client addr @@ fun c ->
   match Client.ping c with
   | () -> Alcotest.fail "expected the faulted write to fail the request"
   | exception Client.Remote_error e ->
     Alcotest.(check string) "typed injected fault" "injected-fault" e.Wire.kind
   | exception Wire.Protocol_error _ -> ());
  Client.with_client addr @@ fun c -> Client.ping c

let test_chaos_accept_fault () =
  with_server @@ fun addr _server _router ->
  (with_fault Fault.Accept Fault.Raise @@ fun () ->
   match
     Client.with_client addr @@ fun c ->
     Client.ping c
   with
   | () -> Alcotest.fail "expected the faulted accept to drop the connection"
   | exception (Tml_error.Error _ | Wire.Protocol_error _ | Unix.Unix_error _)
     -> ());
  Client.with_client addr @@ fun c -> Client.ping c

(* ------------------------ incremental decoder ------------------------- *)

(* A frame as it appears on the wire: 4-byte big-endian length prefix
   followed by the rendered JSON payload. *)
let encode_frame j =
  let payload = Wire.render j in
  let b = Bytes.create (4 + String.length payload) in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.blit_string payload 0 b 4 (String.length payload);
  b

let drain_decoder d =
  let rec go acc =
    match Wire.Decoder.next d with
    | `Frame j -> go (j :: acc)
    | `Await -> List.rev acc
    | `Oversized _ -> Alcotest.fail "unexpected oversized frame"
  in
  go []

let sample_frames =
  [
    Wire.Obj [ ("op", Wire.Str "ping"); ("id", Wire.Num 1.0) ];
    Wire.Str "with \"quotes\" and \\ and \ncontrol bytes";
    Wire.Arr [ Wire.Num 0.125; Wire.Null; Wire.Obj [] ];
    Wire.request_to_json ~id:42 (Wire.Submit (check_req 0.5));
  ]

let test_decoder_byte_at_a_time () =
  let d = Wire.Decoder.create () in
  List.iter
    (fun j ->
       let raw = encode_frame j in
       let n = Bytes.length raw in
       for i = 0 to n - 1 do
         (* every prefix strictly inside the frame must yield Await *)
         (match Wire.Decoder.next d with
          | `Await -> ()
          | _ -> Alcotest.fail "partial frame must await");
         Wire.Decoder.feed d raw i 1
       done;
       match Wire.Decoder.next d with
       | `Frame got ->
         Alcotest.(check bool) "byte-fed frame decodes" true (got = j)
       | _ -> Alcotest.fail "complete frame must decode")
    sample_frames;
  Alcotest.(check bool) "decoder back at a boundary" false
    (Wire.Decoder.mid_frame d)

let test_decoder_split_every_offset () =
  let j = List.nth sample_frames 1 in
  let raw = encode_frame j in
  let n = Bytes.length raw in
  for split = 1 to n - 1 do
    let d = Wire.Decoder.create () in
    Wire.Decoder.feed d raw 0 split;
    (match Wire.Decoder.next d with
     | `Await -> ()
     | `Frame _ -> Alcotest.failf "split at %d: frame before final bytes" split
     | `Oversized _ -> Alcotest.failf "split at %d: spurious oversized" split);
    Alcotest.(check bool)
      (Printf.sprintf "mid_frame after %d bytes" split)
      (split > 0) (Wire.Decoder.mid_frame d);
    Wire.Decoder.feed d raw split (n - split);
    match drain_decoder d with
    | [ got ] ->
      Alcotest.(check bool)
        (Printf.sprintf "frame split at byte %d round-trips" split)
        true (got = j)
    | l -> Alcotest.failf "split at %d: %d frames" split (List.length l)
  done

let test_decoder_pipelined_single_read () =
  let raw = Buffer.create 256 in
  List.iter (fun j -> Buffer.add_bytes raw (encode_frame j)) sample_frames;
  let bytes = Buffer.to_bytes raw in
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed d bytes 0 (Bytes.length bytes);
  let got = drain_decoder d in
  Alcotest.(check int) "all pipelined frames decode" (List.length sample_frames)
    (List.length got);
  List.iter2
    (fun expected g ->
       Alcotest.(check bool) "pipelined frame round-trips" true (expected = g))
    sample_frames got;
  Alcotest.(check int) "no residue buffered" 0 (Wire.Decoder.buffered d)

let test_decoder_oversized_midstream () =
  (* good frame · oversized frame · good frame, all in one feed: the
     oversized body must be skipped without tearing the decoder down *)
  let ok1 = List.nth sample_frames 0 and ok2 = List.nth sample_frames 2 in
  let big = Wire.Str (String.make 4096 'z') in
  let raw = Buffer.create 8192 in
  Buffer.add_bytes raw (encode_frame ok1);
  Buffer.add_bytes raw (encode_frame big);
  Buffer.add_bytes raw (encode_frame ok2);
  let bytes = Buffer.to_bytes raw in
  let d = Wire.Decoder.create ~max_frame:256 () in
  Wire.Decoder.feed d bytes 0 (Bytes.length bytes);
  (match Wire.Decoder.next d with
   | `Frame got -> Alcotest.(check bool) "frame before oversized" true (got = ok1)
   | _ -> Alcotest.fail "expected first frame");
  (match Wire.Decoder.next d with
   | `Oversized n ->
     Alcotest.(check bool) "oversized reports declared length" true (n > 256)
   | _ -> Alcotest.fail "expected oversized report");
  (match Wire.Decoder.next d with
   | `Frame got -> Alcotest.(check bool) "frame after oversized" true (got = ok2)
   | _ -> Alcotest.fail "decoder must resume after an oversized frame");
  (match Wire.Decoder.next d with
   | `Await -> ()
   | _ -> Alcotest.fail "expected a clean boundary");
  (* the skipped body is discarded as it streams, never buffered *)
  Alcotest.(check int) "oversized body not buffered" 0 (Wire.Decoder.buffered d);
  (* same, with the oversized body dribbling in one byte at a time *)
  let d = Wire.Decoder.create ~max_frame:16 () in
  let raw2 = encode_frame (Wire.Str (String.make 64 'q')) in
  let seen = ref false in
  Bytes.iteri
    (fun i _ ->
       Wire.Decoder.feed d raw2 i 1;
       match Wire.Decoder.next d with
       | `Oversized _ when not !seen -> seen := true
       | `Oversized _ -> Alcotest.fail "oversized must be reported once"
       | `Await -> ()
       | `Frame _ -> Alcotest.fail "oversized frame must not decode")
    raw2;
  Alcotest.(check bool) "oversized reported on dribble" true !seen;
  (* the follow-up frame must itself fit under the 16-byte cap *)
  let tiny = Wire.Null in
  Wire.Decoder.feed d (encode_frame tiny) 0 (Bytes.length (encode_frame tiny));
  match Wire.Decoder.next d with
  | `Frame got -> Alcotest.(check bool) "next frame decodes" true (got = tiny)
  | _ -> Alcotest.fail "decoder must survive a dribbled oversized frame"

(* Regression: truncation must surface as [Peer_closed] wherever the
   stream is cut — inside the length prefix, mid-body, or mid-skip of an
   oversized frame — never as [Protocol_error]. *)
let test_decoder_truncation_every_offset () =
  let j = List.nth sample_frames 3 in
  let raw = encode_frame j in
  let n = Bytes.length raw in
  for cut = 1 to n - 1 do
    let d = Wire.Decoder.create () in
    Wire.Decoder.feed d raw 0 cut;
    (match Wire.Decoder.next d with `Await -> () | _ -> ());
    match Wire.Decoder.finish d with
    | () -> Alcotest.failf "cut at %d: truncation not detected" cut
    | exception Wire.Peer_closed _ -> ()
    | exception e ->
      Alcotest.failf "cut at %d: expected Peer_closed, got %s" cut
        (Printexc.to_string e)
  done;
  (* the full frame followed by a clean close is not a truncation *)
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed d raw 0 n;
  ignore (drain_decoder d);
  (match Wire.Decoder.finish d with
   | () -> ()
   | exception _ -> Alcotest.fail "close on a frame boundary is clean");
  (* truncation mid-skip of an oversized frame is Peer_closed too *)
  let d = Wire.Decoder.create ~max_frame:8 () in
  let big = encode_frame (Wire.Str (String.make 100 'z')) in
  Wire.Decoder.feed d big 0 20;
  (match Wire.Decoder.next d with
   | `Oversized _ -> ()
   | _ -> Alcotest.fail "expected oversized");
  match Wire.Decoder.finish d with
  | () -> Alcotest.fail "mid-skip truncation must raise"
  | exception Wire.Peer_closed _ -> ()
  | exception e ->
    Alcotest.failf "mid-skip: expected Peer_closed, got %s" (Printexc.to_string e)

(* The live server answers pipelined frames in request order. *)
let test_live_pipelining () =
  with_server @@ fun addr _server _router ->
  Client.with_client addr @@ fun c ->
  let reqs =
    [
      Wire.Ping;
      Wire.Submit (check_req 0.25);
      Wire.Ping;
      Wire.Submit (check_req 0.25);
      Wire.Stats;
    ]
  in
  let replies = Client.pipeline c reqs in
  Alcotest.(check int) "one reply per request" (List.length reqs)
    (List.length replies);
  (match replies with
   | [ Wire.Pong; Wire.Accepted { job = j1; _ }; Wire.Pong;
       Wire.Accepted { job = j2; _ }; Wire.Stats_reply _ ] ->
     Alcotest.(check string) "duplicate submit dedups" j1 j2;
     (match Client.wait c j1 with
      | Wire.Job_done _ -> ()
      | _ -> Alcotest.fail "pipelined submit completes")
   | _ -> Alcotest.fail "replies must arrive in request order");
  ()

(* ----------------------------- router memo ---------------------------- *)

let job_decodes =
  (* same name → same registered counter as the router's *)
  Metrics.counter "tml_server_job_decodes_total"

let router_submit router jr =
  match Router.handle router ~client:1 (Wire.Submit jr) with
  | Wire.Accepted { job; cached } -> `Accepted (job, cached)
  | Wire.Error_reply e -> `Error e.Wire.kind
  | _ -> Alcotest.fail "submit answers Accepted or an error"

let router_wait router digest =
  match Router.handle router ~client:1 (Wire.Wait (digest, Some 30.0)) with
  | Wire.Status { state; _ } -> state
  | _ -> Alcotest.fail "wait answers a Status"

let expect_accepted what = function
  | `Accepted (job, cached) -> (job, cached)
  | `Error kind -> Alcotest.failf "%s: rejected with %s" what kind

(* The runtime's queue (capacity 1, one busy worker) sheds the third
   submit after the router has decoded it and memoised its digest.  The
   retry is a memo hit whose digest is not in the job table: it must be
   decoded again and run, not answered with a digest nobody computes. *)
let test_memo_shed_retry_runs () =
  with_delay_faults ~fires:2 ~delay:0.3 @@ fun () ->
  Runtime.with_runtime ~workers:1 ~queue_capacity:1 @@ fun rt ->
  let router = Router.create rt in
  let running, _ = expect_accepted "first" (router_submit router (check_req 0.41)) in
  Unix.sleepf 0.1 (* the worker takes the first job off the queue *);
  let queued, _ = expect_accepted "second" (router_submit router (check_req 0.42)) in
  (match router_submit router (check_req 0.43) with
   | `Error kind -> Alcotest.(check string) "third is shed" "overloaded" kind
   | `Accepted _ -> Alcotest.fail "a full runtime queue must shed the third submit");
  List.iter (fun d -> ignore (router_wait router d : Wire.job_state)) [ running; queued ];
  let decodes0 = Metrics.counter_value job_decodes in
  let retried, cached = expect_accepted "retry" (router_submit router (check_req 0.43)) in
  Alcotest.(check int) "the retry is decoded again" 1
    (Metrics.counter_value job_decodes - decodes0);
  Alcotest.(check bool) "the retry is a fresh run" false cached;
  match router_wait router retried with
  | Wire.Job_done _ -> ()
  | _ -> Alcotest.fail "the retried submit runs to completion"

let test_memo_resubmit_skips_decode () =
  Runtime.with_runtime ~workers:1 @@ fun rt ->
  let router = Router.create rt in
  let digest, _ = expect_accepted "first" (router_submit router (check_req 0.44)) in
  ignore (router_wait router digest : Wire.job_state);
  let decodes0 = Metrics.counter_value job_decodes in
  for _ = 1 to 3 do
    let digest', cached = expect_accepted "resubmit" (router_submit router (check_req 0.44)) in
    Alcotest.(check string) "same digest" digest digest';
    Alcotest.(check bool) "answered cached" true cached
  done;
  Alcotest.(check int) "resubmits are not decoded" 0
    (Metrics.counter_value job_decodes - decodes0)

(* The memo keeps (kind, digest), not the parsed job: 600 distinct Data
   Repair submits (more than the memo's 512 entries) grow the router by
   little more than their job-table entries.  Each request carries its
   own copy of the trace text, as a decoded wire frame does. *)
let test_memo_memory_bounded () =
  let traces =
    Trace_io.to_string (Wsn.observation_groups (Prng.create 11) Wsn.default_params ~count:400)
  in
  let request i =
    Wire.Data_repair_req
      {
        states = 9;
        init = 8;
        labels = [ ("delivered", [ 0 ]) ];
        rewards = Some (List.init 9 (fun s -> if s = 0 then 0.0 else 1.0));
        (* a loose bound: the learned chain already satisfies it, so each
           job is a learn and a check *)
        phi = Printf.sprintf "R<=%d [ F delivered ]" (1000 + i);
        traces = Bytes.to_string (Bytes.of_string traces);
        max_drop = 0.9;
        pinned = [];
        starts = 1;
        backend = "nlp";
      }
  in
  Runtime.with_runtime ~workers:2 @@ fun rt ->
  let router = Router.create rt in
  let words () = Obj.reachable_words (Obj.repr router) in
  let w100 = ref 0 and peak = ref 0 in
  for i = 1 to 600 do
    let digest, _ = expect_accepted "data repair" (router_submit router (request i)) in
    ignore (router_wait router digest : Wire.job_state);
    if i = 100 then w100 := words ();
    if i mod 100 = 0 then peak := max !peak (words ())
  done;
  let per_submit = (!peak - !w100) / 500 in
  if per_submit > 1_000 then
    Alcotest.failf "router grows %d words per distinct submit" per_submit

(* ----------------------------- wake pipe ------------------------------ *)

(* Replies from the executor reach the event loop through its mailbox and
   a wake byte.  Waits on one job settle together, so their replies are
   posted microseconds apart; a loop that took the mailbox before
   draining the wake pipe could swallow a later reply's wake byte and
   leave that reply parked until the next poll tick.  At the default read
   timeout the tick is 200 ms, so every round must finish well inside
   it. *)
let test_concurrent_replies_not_parked () =
  let rounds = 25 and waiters = 8 in
  with_delay_faults ~fires:rounds ~delay:0.01 @@ fun () ->
  with_server ~read_timeout_s:5.0 @@ fun addr _server _router ->
  let clients = List.init waiters (fun _ -> Client.connect addr) in
  Fun.protect ~finally:(fun () -> List.iter Client.close clients) @@ fun () ->
  let worst = ref 0.0 in
  for i = 1 to rounds do
    let digest, _ =
      Client.submit (List.hd clients) (check_req (0.5 +. (float_of_int i /. 1000.0)))
    in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.map
        (fun c ->
           Thread.create (fun () -> ignore (Client.wait c digest : Wire.job_state)) ())
        clients
    in
    List.iter Thread.join threads;
    worst := Float.max !worst (Unix.gettimeofday () -. t0)
  done;
  if !worst > 0.1 then
    Alcotest.failf "slowest round took %.0f ms, past half a 200 ms tick"
      (!worst *. 1000.0)

(* -------------------------------- tcp --------------------------------- *)

let test_tcp_ephemeral_port () =
  Runtime.with_runtime ~workers:2 @@ fun rt ->
  let router = Router.create rt in
  let server =
    Server.start ~read_timeout_s:0.25 ~write_timeout_s:2.0 ~handler:(Server.handler_of_router router)
      (`Tcp ("127.0.0.1", 0))
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
       let port =
         match Server.port server with
         | Some p -> p
         | None -> Alcotest.fail "tcp server must report its port"
       in
       Alcotest.(check bool) "ephemeral port is real" true (port > 0);
       Client.with_client (`Tcp ("127.0.0.1", port)) @@ fun c ->
       Client.ping c;
       let digest, _ = Client.submit c (check_req 0.25) in
       match Client.wait c digest with
       | Wire.Job_done _ -> ()
       | _ -> Alcotest.fail "job over tcp completes")

(* ------------------------- push-frame traffic ------------------------- *)

let sample_notification =
  {
    Wire.watch = "w";
    seq = 3;
    event = "violation";
    value = Some 0.75;
    job = Some "abc123";
    report = None;
    error = None;
  }

(* An unsolicited push frame may land between (or interleaved with)
   pipelined replies at ANY byte boundary; the decoder must hand all
   three frames back in order at every split offset, with the push
   recognisable before id correlation. *)
let test_push_interleaved_every_offset () =
  let frames =
    [
      Wire.response_to_json ~id:1 Wire.Pong;
      Wire.notification_to_json sample_notification;
      Wire.response_to_json ~id:2 Wire.Pong;
    ]
  in
  let raw = Buffer.create 256 in
  List.iter (fun j -> Buffer.add_bytes raw (encode_frame j)) frames;
  let bytes = Buffer.to_bytes raw in
  let n = Bytes.length bytes in
  for split = 0 to n do
    let d = Wire.Decoder.create () in
    if split > 0 then Wire.Decoder.feed d bytes 0 split;
    let first = drain_decoder d in
    if split < n then Wire.Decoder.feed d bytes split (n - split);
    match first @ drain_decoder d with
    | [ a; b; c ] ->
      Alcotest.(check bool)
        (Printf.sprintf "split %d: replies are not pushes" split)
        false
        (Wire.is_push a || Wire.is_push c);
      Alcotest.(check bool)
        (Printf.sprintf "split %d: middle frame is a push" split)
        true (Wire.is_push b);
      let id1, r1 = Wire.response_of_json a in
      let id2, r2 = Wire.response_of_json c in
      Alcotest.(check (pair int int))
        (Printf.sprintf "split %d: reply ids correlate" split)
        (1, 2) (id1, id2);
      (match (r1, r2) with
       | Wire.Pong, Wire.Pong -> ()
       | _ -> Alcotest.failf "split %d: replies decoded wrong" split);
      let nf = Wire.notification_of_json b in
      Alcotest.(check bool)
        (Printf.sprintf "split %d: notification round-trips" split)
        true
        (nf = sample_notification)
    | l -> Alcotest.failf "split %d: got %d frames" split (List.length l)
  done

(* A client that predates watches must skip push kinds it does not
   understand — [is_push] fires on the marker alone. *)
let test_unknown_push_kind_ignored () =
  let mystery =
    Wire.Obj
      [
        ("v", Wire.Num 1.0);
        ("id", Wire.Num 0.0);
        ("push", Wire.Str "mystery-future-kind");
        ("data", Wire.Arr [ Wire.Num 1.0 ]);
      ]
  in
  Alcotest.(check bool) "marker detected" true (Wire.is_push mystery);
  (match Wire.notification_of_json mystery with
   | _ -> Alcotest.fail "mystery push decoded as a notification"
   | exception Wire.Protocol_error _ -> ());
  (* a reply is never mistaken for a push *)
  Alcotest.(check bool) "reply is not a push" false
    (Wire.is_push (Wire.response_to_json ~id:5 Wire.Pong))

(* Push frames render into the connection's [Obuf] behind a partially
   written reply: the buffer's head has advanced, so the render path
   (reserve length word, add body, patch the word) must survive a
   compact-then-grow between the reserve and the patch. *)
let test_obuf_compaction_across_reserve_patch () =
  let ob = Wire.Obuf.create ~initial:32 () in
  let first = Wire.Str "0123456789-first-frame" in
  ignore (Wire.frame_into ob first : int);
  (* partial socket write: 7 bytes of frame 1 left the buffer *)
  let b, o, _len = Wire.Obuf.peek ob in
  let sent = Bytes.sub_string b o 7 in
  Wire.Obuf.consume ob 7;
  (* now render a frame large enough to force a grow — with the head
     advanced, [ensure] compacts first, moving the reserved mark's
     bytes; the patch must still land on the length word *)
  let mark = Wire.Obuf.reserve_u32 ob in
  let body = Wire.render (Wire.Str (String.make 200 'x')) in
  Wire.Obuf.add_string ob body;
  Wire.Obuf.patch_u32 ob mark (String.length body);
  let stream = sent ^ Wire.Obuf.contents ob in
  let d = Wire.Decoder.create () in
  let bytes = Bytes.of_string stream in
  Wire.Decoder.feed d bytes 0 (Bytes.length bytes);
  (match drain_decoder d with
   | [ a; b ] ->
     Alcotest.(check bool) "first frame intact" true (a = first);
     Alcotest.(check bool) "patched frame intact" true
       (b = Wire.Str (String.make 200 'x'))
   | l -> Alcotest.failf "expected 2 frames, got %d" (List.length l));
  Alcotest.(check bool) "decoder at a boundary" false (Wire.Decoder.mid_frame d)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized and garbage frames" `Quick
            test_frame_oversized_and_garbage;
          Alcotest.test_case "envelope round-trip" `Quick test_envelope_roundtrip;
          Alcotest.test_case "unknown fields ignored" `Quick
            test_unknown_fields_ignored;
          Alcotest.test_case "job decoding" `Quick test_job_decoding;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "one byte at a time" `Quick
            test_decoder_byte_at_a_time;
          Alcotest.test_case "split at every offset" `Quick
            test_decoder_split_every_offset;
          Alcotest.test_case "pipelined frames in one read" `Quick
            test_decoder_pipelined_single_read;
          Alcotest.test_case "oversized mid-stream" `Quick
            test_decoder_oversized_midstream;
          Alcotest.test_case "truncation at every offset" `Quick
            test_decoder_truncation_every_offset;
          Alcotest.test_case "live pipelining" `Quick test_live_pipelining;
        ] );
      ( "push",
        [
          Alcotest.test_case "push interleaved at every offset" `Quick
            test_push_interleaved_every_offset;
          Alcotest.test_case "unknown push kind ignored" `Quick
            test_unknown_push_kind_ignored;
          Alcotest.test_case "obuf compaction across reserve/patch" `Quick
            test_obuf_compaction_across_reserve_patch;
        ] );
      ( "service",
        [
          Alcotest.test_case "ping and stats" `Quick
            test_ping_stats_over_unix_socket;
          Alcotest.test_case "submit/wait/poll/cancel" `Quick
            test_submit_wait_poll_cancel;
          Alcotest.test_case "wait timeout and cancel" `Quick
            test_wait_timeout_and_cancel;
          Alcotest.test_case "admission sheds overloaded" `Quick
            test_admission_sheds_overloaded;
          Alcotest.test_case "per-client limit" `Quick test_per_client_limit;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "drain serves completed ticket" `Quick
            test_drain_serves_completed_ticket;
          Alcotest.test_case "protocol errors answered" `Quick
            test_protocol_error_over_live_server;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "decode fault" `Quick test_chaos_decode_fault;
          Alcotest.test_case "read fault" `Quick test_chaos_read_fault;
          Alcotest.test_case "write fault" `Quick test_chaos_write_fault;
          Alcotest.test_case "accept fault" `Quick test_chaos_accept_fault;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "ephemeral port" `Quick test_tcp_ephemeral_port;
        ] );
      ( "router memo",
        [
          Alcotest.test_case "shed submit retried still runs" `Quick
            test_memo_shed_retry_runs;
          Alcotest.test_case "resubmit skips decode" `Quick
            test_memo_resubmit_skips_decode;
          Alcotest.test_case "memory bounded" `Quick test_memo_memory_bounded;
        ] );
      ( "wake pipe",
        [
          Alcotest.test_case "concurrent replies not parked" `Quick
            test_concurrent_replies_not_parked;
        ] );
    ]
