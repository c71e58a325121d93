(* Process-wide variable interning.

   Polynomial variables are dense int ids; this table is the single
   authority mapping names to ids and back.  Ids are assigned in first-
   intern order and never recycled, so a monomial key built in one domain
   is meaningful in every other.

   Concurrency: the shards exist for concurrent jobs.  id->name lookups
   sit on the printing/eval paths of every worker domain running a job,
   so they are LOCK-FREE — [name] reads an immutable snapshot array
   published through an Atomic.  Name->id lookups go through a table
   sharded on the string hash (one mutex per shard, single hashtable
   probe per critical section), and only the rare first-intern of a new
   name takes the global writer lock that assigns the next dense id and
   republishes the snapshot. *)

type shard = { lock : Mutex.t; tbl : (string, int) Hashtbl.t }

let shard_count = 16  (* power of two *)

let shards =
  Array.init shard_count (fun _ ->
      { lock = Mutex.create (); tbl = Hashtbl.create 16 })

let shard_of v = shards.(Hashtbl.hash v land (shard_count - 1))

(* Published id->name snapshot: grown by copy under [writer], installed
   with a single Atomic.set BEFORE the new id escapes, so any id a reader
   can legitimately hold is within the snapshot it loads. *)
let names : string array Atomic.t = Atomic.make [||]
let count : int Atomic.t = Atomic.make 0
let writer = Mutex.create ()

let intern v =
  let s = shard_of v in
  Mutex.lock s.lock;
  match Hashtbl.find_opt s.tbl v with
  | Some id ->
    Mutex.unlock s.lock;
    id
  | None ->
    (* Lock order is always shard -> writer (and [writer] never takes a
       shard lock), so the two-level locking cannot cycle; double-intern
       races are impossible because equal names map to the same shard,
       whose lock we still hold. *)
    Mutex.lock writer;
    let id = Atomic.get count in
    let old = Atomic.get names in
    let grown =
      if id < Array.length old then old
      else begin
        let cap = max 16 (2 * Array.length old) in
        let g = Array.make cap "" in
        Array.blit old 0 g 0 (Array.length old);
        g
      end
    in
    grown.(id) <- v;
    Atomic.set names grown;
    Atomic.set count (id + 1);
    Mutex.unlock writer;
    Hashtbl.add s.tbl v id;
    Mutex.unlock s.lock;
    id

let find_opt v =
  let s = shard_of v in
  Mutex.lock s.lock;
  let r = Hashtbl.find_opt s.tbl v in
  Mutex.unlock s.lock;
  r

let name id =
  if id < 0 || id >= Atomic.get count then
    invalid_arg (Printf.sprintf "Symtab.name: unknown id %d" id)
  else (Atomic.get names).(id)

let size () = Atomic.get count
