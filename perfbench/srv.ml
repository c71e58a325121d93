(* The server under test: a `tml serve` child process on a Unix socket,
   started as an operator would start it plus the two flags below, and
   the raw-socket plumbing the windowed warm_rpc generator needs. *)

type t = { pid : int; sock : string; out : Unix.file_descr }

let workers = 2
let loops = 1

(* A fault plan that never fires.  An installed plan keeps every NLP
   solve's starts and fallback rungs on its job's worker, in order (the
   library's chaos-replay mode).  Run concurrently on the pool, the starts
   and rungs of one solve share its compiled constraint evaluators, and a
   served repair can then differ from the same job run in-process, which
   the oracle would count as a failure. *)
let dormant_fault = "solve:delay:0:0"

(* The same plan for the in-process replay. *)
let dormant_plan = Fault.plan [ Fault.spec ~fires:0 Fault.Solve (Fault.Delay 0.0) ]

(* A 20 ms read deadline (for a peer that stops mid-frame) shortens the
   event loop's poll tick from 200 ms to 5 ms.  The loop drains its wake
   pipe after it has taken its mailbox, so a reply the executor posts in
   between waits for the next tick; at 200 ms these stalls, a few per
   second at random, swamped every timing. *)
let read_timeout = "0.02"

(* Read the child's stdout until a line starting with [prefix] arrives,
   or fail after [timeout_s]. *)
let await_line fd prefix ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec go () =
    let lines = String.split_on_char '\n' (Buffer.contents buf) in
    if List.exists (fun l -> String.starts_with ~prefix l) lines then ()
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then failwith ("server: no '" ^ prefix ^ "' line")
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> go ()
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> failwith "server exited before it was ready"
            | k ->
              Buffer.add_subbytes buf chunk 0 k;
              go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let spawn ~tml ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process tml
      [| tml; "serve"; "--socket"; sock; "--workers"; string_of_int workers;
         "--loops"; string_of_int loops; "--inject-fault"; dormant_fault;
         "--read-timeout"; read_timeout |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let t = { pid; sock; out = out_r } in
  (try await_line out_r "listening on" ~timeout_s:60.0
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     Unix.close out_r;
     raise e);
  t

(* SIGTERM is the server's graceful drain; a server that has not exited
   after [timeout_s] is killed.  Either way the child is reaped. *)
let stop ?(timeout_s = 60.0) t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
      end
      else begin
        (* keep the stdout pipe drained so the final "drained" line
           never blocks the child *)
        (match Unix.select [ t.out ] [] [] 0.02 with
         | [], _, _ -> ()
         | _ -> ignore (Unix.read t.out (Bytes.create 256) 0 256)
         | exception Unix.Unix_error _ -> ());
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  (try Unix.close t.out with Unix.Unix_error _ -> ());
  try Unix.unlink t.sock with Unix.Unix_error _ -> ()

(* The child's peak resident set ([VmHWM]), in MiB. *)
let peak_rss_mb t =
  match open_in (Printf.sprintf "/proc/%d/status" t.pid) with
  | exception Sys_error _ -> Float.nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> find ()
    in
    find ()

(* ----------------------- raw pipelined connection --------------------- *)

type conn = { fd : Unix.file_descr; dec : Wire.Decoder.t; rbuf : Bytes.t }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; dec = Wire.Decoder.create (); rbuf = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c frames = Wire.write_frames c.fd frames

(* Every complete frame currently readable, blocking for at least one. *)
let recv c =
  let rec drain acc =
    match Wire.Decoder.next c.dec with
    | `Frame j -> drain (j :: acc)
    | `Await -> List.rev acc
    | `Oversized n -> failwith (Printf.sprintf "oversized reply (%d bytes)" n)
  in
  let rec go () =
    match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
    | 0 -> raise (Wire.Peer_closed "server closed the connection")
    | k -> (
        Wire.Decoder.feed c.dec c.rbuf 0 k;
        match drain [] with [] -> go () | frames -> frames)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  match drain [] with [] -> go () | frames -> frames
