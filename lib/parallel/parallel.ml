type runner = (unit -> unit) array -> unit

let hook : runner option Atomic.t = Atomic.make None
let set_runner r = Atomic.set hook r
let enabled () = Atomic.get hook <> None

(* Sequential fallback with the same contract as a pool runner: every
   task runs (a failure doesn't skip the rest — later tasks may be
   observed by the caller through shared state), and the lowest-indexed
   exception is re-raised after the batch settles. *)
let run_seq tasks =
  let first_err = ref None in
  Array.iteri
    (fun i task ->
       match task () with
       | () -> ()
       | exception e ->
         if !first_err = None then first_err := Some (i, e))
    tasks;
  match !first_err with None -> () | Some (_, e) -> raise e

let run tasks =
  if Array.length tasks = 0 then ()
  else if Array.length tasks = 1 then tasks.(0) ()
  else
    match Atomic.get hook with
    | None -> run_seq tasks
    | Some runner -> runner tasks
