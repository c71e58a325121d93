(* Tests for the sharded repair fleet: the consistent-hash Ring, the
   Coordinator's routing / failover / replication / resubmission paths,
   node health ejection and re-admission, ring-aware drain, and raw
   protocol-1 frames against a live coordinator socket. *)

(* ------------------------------ fixtures ------------------------------ *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "tml-fleet-%d-%d.sock" (Unix.getpid ()) !sock_counter)

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

let digest_of jr = Job.digest (Wire.job_of_request jr)

(* A backend node: runtime + router + server on a fresh Unix socket,
   individually stoppable (and SIGKILL-equivalently "killable" by
   stopping server and runtime — the socket path vanishes, so the
   coordinator sees connection-refused). *)
type backend = {
  b_path : string;
  mutable b_rt : Runtime.t option;
  mutable b_server : Server.t option;
}

let start_backend ?(workers = 2) path =
  let rt = Runtime.create ~workers () in
  let router = Router.create rt in
  let server =
    Server.start ~read_timeout_s:0.2 ~write_timeout_s:2.0 ~drain_timeout_s:10.0
      ~handler:(Server.handler_of_router router) (`Unix path)
  in
  { b_path = path; b_rt = Some rt; b_server = Some server }

let stop_backend b =
  Option.iter Server.stop b.b_server;
  b.b_server <- None;
  Option.iter (fun rt -> Runtime.shutdown rt) b.b_rt;
  b.b_rt <- None

let restart_backend b =
  stop_backend b;
  let fresh = start_backend b.b_path in
  b.b_rt <- fresh.b_rt;
  b.b_server <- fresh.b_server

let with_fleet ?(nodes = 3) ?(probe_interval_s = 10.0) ?(eject_threshold = 2)
    ?(rpc_timeout_s = 5.0) f =
  let backends = List.init nodes (fun _ -> start_backend (fresh_sock ())) in
  let addrs = List.map (fun b -> `Unix b.b_path) backends in
  let coord =
    Coordinator.create ~probe_interval_s ~eject_threshold ~rpc_timeout_s
      ~drain_timeout_s:10.0 addrs
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown coord;
      List.iter stop_backend backends)
    (fun () -> f backends coord)

(* Drive the coordinator directly through its handler — the Server layer
   on top is exercised by [test_live_coordinator_socket]. *)
let submit_ok coord jr =
  match Coordinator.handle coord ~client:0 (Wire.Submit jr) with
  | Wire.Annotated (_, Wire.Accepted { job; _ }) | Wire.Accepted { job; _ } ->
    job
  | resp ->
    Alcotest.failf "submit: unexpected response %s"
      (Wire.render (Wire.response_to_json ~id:0 resp))

let wait_ok coord digest =
  match Coordinator.handle coord ~client:0 (Wire.Wait (digest, Some 30.0)) with
  | Wire.Annotated (_, Wire.Status { state = Wire.Job_done report; _ })
  | Wire.Status { state = Wire.Job_done report; _ } ->
    report
  | resp ->
    Alcotest.failf "wait: unexpected response %s"
      (Wire.render (Wire.response_to_json ~id:0 resp))

(* A check_req whose digest lands on the given ring member, found by
   scanning thresholds — deterministic for a fixed ring. *)
let req_owned_by coord name =
  let rec scan i =
    if i > 400 then Alcotest.fail "no digest found for node"
    else
      let jr = check_req (0.001 *. float_of_int i) in
      if Ring.owner (Coordinator.ring coord) (digest_of jr) = Some name then jr
      else scan (i + 1)
  in
  scan 1

let node_state coord name =
  match Coordinator.handle coord ~client:0 Wire.Fleet_status with
  | Wire.Fleet_reply json ->
    let nodes =
      match Wire.member "nodes" json with Some (Wire.Arr l) -> l | _ -> []
    in
    List.find_map
      (fun n ->
         match (Wire.member "name" n, Wire.member "state" n) with
         | Some (Wire.Str n'), Some (Wire.Str s) when n' = name -> Some s
         | _ -> None)
      nodes
  | _ -> None

(* A scripted backend: a Server whose handler emulates a job taking a
   fixed wall-clock [duration_s], honouring each wait's own timeout —
   the controllable slow job the real runtime cannot produce.  Used to
   pin down the coordinator's handling of jobs that outlive the per-RPC
   socket deadline. *)
type scripted = { sc_path : string; mutable sc_server : Server.t option }

let start_scripted ?(duration_s = 1.0) path =
  let jobs : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let m = Mutex.create () in
  let locked f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  let not_found digest =
    Wire.Error_reply
      { Wire.kind = "not-found"; message = digest; transient = false }
  in
  let status digest t_done =
    if Unix.gettimeofday () >= t_done then
      Wire.Status { job = digest; state = Wire.Job_done ("slow:" ^ digest) }
    else Wire.Status { job = digest; state = Wire.Job_pending }
  in
  let on_request ~client:_ = function
    | Wire.Ping -> Wire.Pong
    | Wire.Submit jr ->
      let digest = digest_of jr in
      locked (fun () ->
          if not (Hashtbl.mem jobs digest) then
            Hashtbl.replace jobs digest (Unix.gettimeofday () +. duration_s));
      Wire.Accepted { job = digest; cached = false }
    | Wire.Poll digest -> (
        match locked (fun () -> Hashtbl.find_opt jobs digest) with
        | None -> not_found digest
        | Some t_done -> status digest t_done)
    | Wire.Wait (digest, timeout_s) -> (
        match locked (fun () -> Hashtbl.find_opt jobs digest) with
        | None -> not_found digest
        | Some t_done ->
          let until =
            match timeout_s with
            | None -> t_done
            | Some s -> Float.min t_done (Unix.gettimeofday () +. s)
          in
          let dt = until -. Unix.gettimeofday () in
          if dt > 0. then Thread.delay dt;
          status digest t_done)
    | Wire.Cancel digest -> Wire.Cancelled { job = digest; cancelled = false }
    | Wire.Put_report { job; _ } -> Wire.Stored { job }
    | _ ->
      Wire.Error_reply
        { Wire.kind = "bad-request"; message = "scripted"; transient = false }
  in
  let handler =
    {
      Server.on_request;
      (* scripted backends may simulate slowness: keep them off the loop *)
      classify = (fun _ -> `Slow);
      on_stop = (fun () -> ());
      on_drain = (fun ~timeout_s:_ -> ());
      pending = (fun () -> 0);
      on_disconnect = (fun ~client:_ -> ());
    }
  in
  let server =
    Server.start ~read_timeout_s:0.2 ~write_timeout_s:2.0 ~handler (`Unix path)
  in
  { sc_path = path; sc_server = Some server }

let stop_scripted b =
  Option.iter Server.stop b.sc_server;
  b.sc_server <- None

let with_scripted_fleet ?(nodes = 1) ?(duration_s = 1.0) ?(rpc_timeout_s = 0.3)
    ?(drain_timeout_s = 5.0) f =
  let backends =
    List.init nodes (fun _ -> start_scripted ~duration_s (fresh_sock ()))
  in
  let addrs = List.map (fun b -> `Unix b.sc_path) backends in
  let coord =
    Coordinator.create ~probe_interval_s:10.0 ~eject_threshold:2 ~rpc_timeout_s
      ~drain_timeout_s addrs
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown coord;
      List.iter stop_scripted backends)
    (fun () -> f backends coord)

let counter name = Metrics.counter_value (Metrics.counter name)

(* -------------------------------- ring -------------------------------- *)

let keys = List.init 300 (fun i -> Printf.sprintf "digest-%d" i)

let test_ring_deterministic () =
  let names = [ "n0"; "n1"; "n2"; "n3" ] in
  let r1 = Ring.make names and r2 = Ring.make (List.rev names) in
  List.iter
    (fun k ->
       Alcotest.(check (option string))
         "owner independent of insertion order" (Ring.owner r1 k)
         (Ring.owner r2 k))
    keys;
  Alcotest.(check (list string)) "members sorted" names (Ring.nodes r1)

let test_ring_coverage () =
  let r = Ring.make [ "n0"; "n1"; "n2"; "n3" ] in
  let owned name = List.exists (fun k -> Ring.owner r k = Some name) keys in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " owns some keys") true (owned n))
    (Ring.nodes r);
  List.iter
    (fun k ->
       let succ = Ring.successors r k in
       Alcotest.(check int) "successors are all distinct members" 4
         (List.length (List.sort_uniq compare succ));
       Alcotest.(check (option string))
         "successors head is the owner" (Ring.owner r k)
         (match succ with s :: _ -> Some s | [] -> None))
    keys

(* The deterministic-rendezvous property the failover logic leans on:
   removing a node moves exactly the keys it owned, each to its ring
   successor; every other key keeps its owner. *)
let test_ring_minimal_disruption () =
  let r = Ring.make [ "n0"; "n1"; "n2"; "n3" ] in
  let r' = Ring.without r "n2" in
  List.iter
    (fun k ->
       match Ring.owner r k with
       | Some "n2" ->
         let expected =
           match Ring.successors r k with
           | _owner :: next :: _ -> Some next
           | _ -> None
         in
         Alcotest.(check (option string))
           "orphaned key moves to its successor" expected (Ring.owner r' k)
       | owner ->
         Alcotest.(check (option string)) "other keys keep their owner" owner
           (Ring.owner r' k))
    keys;
  (* re-adding restores the original ownership exactly *)
  let r'' = Ring.with_node r' "n2" in
  List.iter
    (fun k ->
       Alcotest.(check (option string))
         "re-add restores ownership" (Ring.owner r k) (Ring.owner r'' k))
    keys

(* ---------------------------- coordinator ----------------------------- *)

let test_fleet_basic () =
  with_fleet ~nodes:3 @@ fun _backends coord ->
  (* jobs complete through the ring, identical jobs share a digest *)
  let d1 = submit_ok coord (check_req 0.25) in
  let report = wait_ok coord d1 in
  Alcotest.(check bool) "report non-empty" true (String.length report > 0);
  let d1' = submit_ok coord (check_req 0.25) in
  Alcotest.(check string) "same job, same digest" d1 d1';
  (* fleet status lists every node healthy *)
  match Coordinator.handle coord ~client:0 Wire.Fleet_status with
  | Wire.Fleet_reply json ->
    (match Wire.member "ring" json with
     | Some (Wire.Arr members) ->
       Alcotest.(check int) "all nodes in the ring" 3 (List.length members)
     | _ -> Alcotest.fail "fleet status must list the ring")
  | _ -> Alcotest.fail "expected Fleet_reply"

let test_reroute_on_dead_node () =
  with_fleet ~nodes:3 @@ fun backends coord ->
  let victim = List.nth backends 0 in
  let victim_name = "unix:" ^ victim.b_path in
  let jr = req_owned_by coord victim_name in
  let reroutes_before =
    Metrics.counter_value
      (Metrics.counter "tml_fleet_reroutes_total")
  in
  stop_backend victim;
  (* the digest's owner is dead: the submit must transparently land on
     the next ring successor, and the job must still complete *)
  let digest = submit_ok coord jr in
  let report = wait_ok coord digest in
  Alcotest.(check bool) "job completed despite dead owner" true
    (String.length report > 0);
  let reroutes_after =
    Metrics.counter_value (Metrics.counter "tml_fleet_reroutes_total")
  in
  Alcotest.(check bool) "reroutes counted" true
    (reroutes_after > reroutes_before)

(* Kill a job's owner after completion: the coordinator must still
   produce the byte-identical report, from the successor's replica or by
   resubmitting from its registry. *)
let test_zero_loss_after_owner_death () =
  with_fleet ~nodes:3 @@ fun backends coord ->
  let victim = List.nth backends 1 in
  let victim_name = "unix:" ^ victim.b_path in
  let jr = req_owned_by coord victim_name in
  let digest = submit_ok coord jr in
  let report1 = wait_ok coord digest in
  stop_backend victim;
  let report2 = wait_ok coord digest in
  Alcotest.(check string) "byte-identical report after owner death" report1
    report2

let test_eject_and_readmit () =
  with_fleet ~nodes:3 ~probe_interval_s:0.1 ~eject_threshold:2
    ~rpc_timeout_s:1.0
  @@ fun backends coord ->
  let victim = List.nth backends 2 in
  let victim_name = "unix:" ^ victim.b_path in
  stop_backend victim;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec await_state want =
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "node never became %s (stuck at %s)" want
        (Option.value ~default:"?" (node_state coord victim_name))
    else if node_state coord victim_name <> Some want then begin
      Thread.delay 0.05;
      await_state want
    end
  in
  await_state "ejected";
  Alcotest.(check bool) "ejected node left the ring" false
    (Ring.mem (Coordinator.ring coord) victim_name);
  (* the fleet still serves while a node is down *)
  let d = submit_ok coord (check_req 0.33) in
  ignore (wait_ok coord d : string);
  (* bring it back: probation on the first successful probe, healthy and
     re-admitted on the second *)
  restart_backend victim;
  await_state "healthy";
  Alcotest.(check bool) "re-admitted to the ring" true
    (Ring.mem (Coordinator.ring coord) victim_name)

let test_drain_node () =
  with_fleet ~nodes:3 @@ fun backends coord ->
  let victim = List.nth backends 0 in
  let victim_name = "unix:" ^ victim.b_path in
  (* park some completed work on the victim so the drain has something
     to account for *)
  let jr = req_owned_by coord victim_name in
  let digest = submit_ok coord jr in
  let report1 = wait_ok coord digest in
  (match Coordinator.handle coord ~client:0 (Wire.Drain_node victim_name) with
   | Wire.Drained { node; pending } ->
     Alcotest.(check string) "drained the right node" victim_name node;
     Alcotest.(check int) "zero jobs lost to the drain" 0 pending
   | resp ->
     Alcotest.failf "drain: unexpected response %s"
       (Wire.render (Wire.response_to_json ~id:0 resp)));
  Alcotest.(check bool) "drained node left the ring" false
    (Ring.mem (Coordinator.ring coord) victim_name);
  Alcotest.(check (option string)) "state is drained" (Some "drained")
    (node_state coord victim_name);
  (* the drained node's report is still reachable through the ring *)
  stop_backend victim;
  let report2 = wait_ok coord digest in
  Alcotest.(check string) "report survives the drain" report1 report2;
  (* and new work routes around it *)
  let d = submit_ok coord (check_req 0.41) in
  ignore (wait_ok coord d : string);
  match Coordinator.handle coord ~client:0 (Wire.Drain_node "unix:/nope") with
  | Wire.Error_reply e ->
    Alcotest.(check string) "unknown node is not-found" "not-found" e.Wire.kind
  | _ -> Alcotest.fail "draining an unknown node must fail"

(* A job running longer than the per-RPC socket deadline must not read
   as a node failure: the proxied wait chunks below the deadline instead
   of striking the (alive) node's health, re-routing, or failing the
   wait with "no fleet node available". *)
let test_long_wait_not_a_node_failure () =
  with_scripted_fleet ~nodes:1 ~duration_s:1.0 ~rpc_timeout_s:0.3
  @@ fun backends coord ->
  let node_name = "unix:" ^ (List.hd backends).sc_path in
  let reroutes = counter "tml_fleet_reroutes_total" in
  let ejections = counter "tml_fleet_ejections_total" in
  let digest = submit_ok coord (check_req 0.25) in
  (* a wait whose own timeout expires mid-job returns pending, exactly
     like a single node would *)
  (match Coordinator.handle coord ~client:0 (Wire.Wait (digest, Some 0.2)) with
   | Wire.Annotated (_, Wire.Status { state = Wire.Job_pending; _ })
   | Wire.Status { state = Wire.Job_pending; _ } -> ()
   | resp ->
     Alcotest.failf "short wait: unexpected response %s"
       (Wire.render (Wire.response_to_json ~id:0 resp)));
  (* a wait outliving rpc_timeout_s settles Job_done *)
  (match Coordinator.handle coord ~client:0 (Wire.Wait (digest, Some 10.0)) with
   | Wire.Annotated (_, Wire.Status { state = Wire.Job_done _; _ })
   | Wire.Status { state = Wire.Job_done _; _ } -> ()
   | resp ->
     Alcotest.failf "long wait: unexpected response %s"
       (Wire.render (Wire.response_to_json ~id:0 resp)));
  Alcotest.(check bool) "no reroute for a long-running job" true
    (counter "tml_fleet_reroutes_total" = reroutes);
  Alcotest.(check bool) "no ejection for a long-running job" true
    (counter "tml_fleet_ejections_total" = ejections);
  Alcotest.(check (option string)) "node stays healthy" (Some "healthy")
    (node_state coord node_name)

(* The configured drain bound must be reachable even when it exceeds the
   per-RPC socket deadline: an in-flight job taking longer than
   rpc_timeout_s (but within drain_timeout_s) drains with zero pending. *)
let test_drain_waits_past_rpc_deadline () =
  with_scripted_fleet ~nodes:1 ~duration_s:1.0 ~rpc_timeout_s:0.3
    ~drain_timeout_s:5.0
  @@ fun backends coord ->
  let node_name = "unix:" ^ (List.hd backends).sc_path in
  ignore (submit_ok coord (check_req 0.3) : string);
  match Coordinator.handle coord ~client:0 (Wire.Drain_node node_name) with
  | Wire.Drained { pending; _ } ->
    Alcotest.(check int) "slow in-flight job drains clean" 0 pending
  | resp ->
    Alcotest.failf "drain: unexpected response %s"
      (Wire.render (Wire.response_to_json ~id:0 resp))

(* A digest first seen via poll (registered with no payload) and then
   genuinely submitted: the submit must attach the payload, so the job
   is still recoverable by resubmission when its owner dies before
   completing. *)
let test_submit_upgrades_foreign_entry () =
  with_scripted_fleet ~nodes:2 ~duration_s:1.0 ~rpc_timeout_s:0.5
  @@ fun backends coord ->
  let jr = check_req 0.25 in
  let digest = digest_of jr in
  (match Coordinator.handle coord ~client:0 (Wire.Poll digest) with
   | Wire.Annotated (_, Wire.Error_reply e) | Wire.Error_reply e ->
     Alcotest.(check string) "unsubmitted digest polls not-found" "not-found"
       e.Wire.kind
   | _ -> Alcotest.fail "poll of an unknown digest must be not-found");
  let d = submit_ok coord jr in
  Alcotest.(check string) "submit digest" digest d;
  (* kill the owner before the job can complete *)
  let owner =
    match Ring.owner (Coordinator.ring coord) digest with
    | Some n -> n
    | None -> Alcotest.fail "digest has no ring owner"
  in
  let victim = List.find (fun b -> "unix:" ^ b.sc_path = owner) backends in
  stop_scripted victim;
  let resubmits = counter "tml_fleet_resubmits_total" in
  let report = wait_ok coord digest in
  Alcotest.(check bool) "report recovered on the survivor" true
    (String.length report > 0);
  Alcotest.(check bool) "recovered by resubmission" true
    (counter "tml_fleet_resubmits_total" > resubmits)

(* A finished job the only backend has since lost (restarted with an
   empty job table; nothing is replicated on a one-node fleet): a poll
   through the coordinator resubmits it from the registry's payload, and
   the wait that follows answers the byte-identical report. *)
let test_resubmit_after_backend_lost_report () =
  with_fleet ~nodes:1 @@ fun backends coord ->
  let digest = submit_ok coord (check_req 0.35) in
  let report = wait_ok coord digest in
  restart_backend (List.hd backends);
  let resubmits = counter "tml_fleet_resubmits_total" in
  (match Coordinator.handle coord ~client:0 (Wire.Poll digest) with
   | Wire.Annotated (_, Wire.Status _) | Wire.Status _ -> ()
   | resp ->
     Alcotest.failf "poll: unexpected response %s"
       (Wire.render (Wire.response_to_json ~id:0 resp)));
  Alcotest.(check string) "byte-identical report after the restart" report
    (wait_ok coord digest);
  Alcotest.(check int) "resubmitted once" (resubmits + 1)
    (counter "tml_fleet_resubmits_total")

(* The registry must not grow with every job ever accepted: completed
   entries are evicted FIFO past max_completed. *)
let test_completed_registry_bounded () =
  let backends = List.init 2 (fun _ -> start_backend (fresh_sock ())) in
  let addrs = List.map (fun b -> `Unix b.b_path) backends in
  let coord =
    Coordinator.create ~probe_interval_s:10.0 ~rpc_timeout_s:5.0
      ~drain_timeout_s:10.0 ~max_completed:2 addrs
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown coord;
      List.iter stop_backend backends)
  @@ fun () ->
  List.iter
    (fun b ->
       let d = submit_ok coord (check_req b) in
       ignore (wait_ok coord d : string))
    [ 0.11; 0.22; 0.33; 0.44 ];
  match Coordinator.handle coord ~client:0 Wire.Fleet_status with
  | Wire.Fleet_reply json ->
    (match
       Option.bind (Wire.member "jobs" json) (fun j -> Wire.member "tracked" j)
     with
     | Some (Wire.Num n) ->
       Alcotest.(check bool)
         (Printf.sprintf "tracked (%g) bounded by max_completed" n)
         true (n <= 2.)
     | _ -> Alcotest.fail "fleet status must report tracked jobs")
  | _ -> Alcotest.fail "expected Fleet_reply"

(* --------------------------- address parsing --------------------------- *)

let test_addr_parsing () =
  let check_addr s expected =
    Alcotest.(check bool) s true (Client.addr_of_string s = expected)
  in
  check_addr "unix:/tmp/x.sock" (`Unix "/tmp/x.sock");
  check_addr "127.0.0.1:7000" (`Tcp ("127.0.0.1", 7000));
  check_addr "::1:7000" (`Tcp ("::1", 7000));
  check_addr "[::1]:7000" (`Tcp ("::1", 7000));
  check_addr "[2001:db8::1]:8080" (`Tcp ("2001:db8::1", 8080));
  check_addr "[unix]:7000" (`Tcp ("unix", 7000));
  Alcotest.(check string) "v6 renders bracketed" "[::1]:7000"
    (Client.addr_to_string (`Tcp ("::1", 7000)));
  Alcotest.(check string) "v6 round-trips" "[::1]:7000"
    (Client.addr_to_string (Client.addr_of_string "[::1]:7000"));
  Alcotest.(check string) "unix round-trips" "unix:/tmp/x.sock"
    (Client.addr_to_string (`Unix "/tmp/x.sock"));
  (match Client.addr_of_string "nonsense" with
   | _ -> Alcotest.fail "bare host must be rejected"
   | exception Wire.Protocol_error _ -> ());
  (match Client.addr_of_string "host:99999" with
   | _ -> Alcotest.fail "bad port must be rejected"
   | exception Wire.Protocol_error _ -> ());
  match Client.addr_of_string "[::1]7000" with
  | _ -> Alcotest.fail "missing colon after bracket must be rejected"
  | exception Wire.Protocol_error _ -> ()

(* ------------------------- live coordinator --------------------------- *)

(* Raw protocol-1 frames — no fleet-aware code at all on the client side
   — against a full coordinator: Server + Coordinator.handler.  Proves an
   unmodified v1 client works unchanged against a fleet. *)
let test_live_coordinator_socket () =
  with_fleet ~nodes:2 @@ fun _backends coord ->
  let path = fresh_sock () in
  let server =
    Server.start ~read_timeout_s:0.2 ~write_timeout_s:2.0
      ~handler:(Coordinator.handler coord) (`Unix path)
  in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* a hand-built v1 ping envelope *)
  Wire.write_frame fd
    (Wire.Obj
       [ ("v", Wire.Num 1.0); ("id", Wire.Num 1.0); ("op", Wire.Str "ping") ]);
  (match Wire.read_frame fd with
   | `Frame j ->
     (match Wire.response_of_json j with
      | 1, Wire.Pong -> ()
      | _ -> Alcotest.fail "v1 ping must get a pong")
   | _ -> Alcotest.fail "expected a pong frame");
  (* a v1 submit + wait: the coordinator's extra "node" annotation must
     not confuse the v1 decoder *)
  Wire.write_frame fd (Wire.request_to_json ~id:2 (Wire.Submit (check_req 0.25)));
  let digest =
    match Wire.read_frame fd with
    | `Frame j -> (
        match Wire.response_of_json j with
        | 2, Wire.Accepted { job; _ } ->
          (match Wire.member "node" j with
           | Some (Wire.Str _) -> job
           | _ -> Alcotest.fail "coordinator responses carry a node field")
        | _ -> Alcotest.fail "v1 submit must be accepted")
    | _ -> Alcotest.fail "expected an accept frame"
  in
  Wire.write_frame fd (Wire.request_to_json ~id:3 (Wire.Wait (digest, Some 30.0)));
  (* the per-socket read deadline is short; drain idle ticks manually *)
  let rec read_reply () =
    match Wire.read_frame fd with
    | `Frame j -> j
    | `Idle -> read_reply ()
    | `Eof -> Alcotest.fail "server closed before replying"
  in
  match Wire.response_of_json (read_reply ()) with
  | 3, Wire.Status { state = Wire.Job_done report; _ } ->
    Alcotest.(check bool) "v1 wait returns the report" true
      (String.length report > 0)
  | _ -> Alcotest.fail "v1 wait must settle Job_done"

(* -------------------------------- main -------------------------------- *)

let () =
  Alcotest.run "fleet"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "coverage" `Quick test_ring_coverage;
          Alcotest.test_case "minimal disruption" `Quick
            test_ring_minimal_disruption;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "basic routing" `Quick test_fleet_basic;
          Alcotest.test_case "reroute on dead node" `Quick
            test_reroute_on_dead_node;
          Alcotest.test_case "zero loss after owner death" `Quick
            test_zero_loss_after_owner_death;
          Alcotest.test_case "eject and readmit" `Quick test_eject_and_readmit;
          Alcotest.test_case "drain node" `Quick test_drain_node;
          Alcotest.test_case "long wait is not a node failure" `Quick
            test_long_wait_not_a_node_failure;
          Alcotest.test_case "drain waits past the rpc deadline" `Quick
            test_drain_waits_past_rpc_deadline;
          Alcotest.test_case "submit upgrades a foreign entry" `Quick
            test_submit_upgrades_foreign_entry;
          Alcotest.test_case "completed registry is bounded" `Quick
            test_completed_registry_bounded;
          Alcotest.test_case "resubmit after the backend lost a report"
            `Quick test_resubmit_after_backend_lost_report;
        ] );
      ( "address",
        [ Alcotest.test_case "parsing" `Quick test_addr_parsing ] );
      ( "protocol",
        [
          Alcotest.test_case "v1 client vs live coordinator" `Quick
            test_live_coordinator_socket;
        ] );
    ]
