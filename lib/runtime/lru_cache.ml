type 'a entry = Done of { value : 'a; mutable tick : int } | In_flight

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

type 'a t = {
  mutex : Mutex.t;
  landed : Condition.t;  (** broadcast whenever an in-flight entry settles *)
  table : (string, 'a entry) Hashtbl.t;
  capacity : int;
  name : string option;
  hit_counter : Metrics.counter option;
  miss_counter : Metrics.counter option;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?name ~capacity () =
  if capacity < 1 then invalid_arg "Lru_cache.create: capacity must be >= 1";
  let metric which =
    Option.map
      (fun n ->
         Metrics.counter
           (Printf.sprintf "tml_cache_%s_total" which)
           ~help:(Printf.sprintf "LRU cache %s" which)
           ~label:("cache", n))
      name
  in
  {
    mutex = Mutex.create ();
    landed = Condition.create ();
    table = Hashtbl.create (min capacity 64);
    capacity;
    name;
    hit_counter = metric "hits";
    miss_counter = metric "misses";
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let completed_size t =
  Hashtbl.fold
    (fun _ e acc -> match e with Done _ -> acc + 1 | In_flight -> acc)
    t.table 0

(* Evict the least-recently-used completed entries until a new one fits.
   Called with the mutex held. *)
let make_room t =
  while completed_size t >= t.capacity do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
           match (e, acc) with
           | In_flight, _ -> acc
           | Done d, Some (_, best) when best <= d.tick -> acc
           | Done d, _ -> Some (k, d.tick))
        t.table None
    in
    match victim with
    | None -> raise Exit (* unreachable: completed_size > 0 *)
    | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1
  done

let key_attr key =
  (* digests are long; eight hex chars identify a key in a trace *)
  if String.length key <= 8 then key else String.sub key 0 8

let rec find_or_compute t ~key thunk =
  let action =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some (Done d) ->
          t.clock <- t.clock + 1;
          d.tick <- t.clock;
          t.hits <- t.hits + 1;
          `Hit d.value
        | Some In_flight ->
          Condition.wait t.landed t.mutex;
          `Retry
        | None ->
          Hashtbl.replace t.table key In_flight;
          t.misses <- t.misses + 1;
          `Compute)
  in
  match action with
  | `Hit v ->
    Option.iter Metrics.incr t.hit_counter;
    v
  | `Retry -> find_or_compute t ~key thunk
  | `Compute -> (
      Option.iter Metrics.incr t.miss_counter;
      match
        Trace_span.with_span "cache:fill"
          ~attrs:
            (("key", key_attr key)
             :: (match t.name with
                 | Some n -> [ ("cache", n) ]
                 | None -> []))
          (fun () ->
             Fault.at Fault.Cache;
             thunk ())
      with
      | v ->
        locked t (fun () ->
            Hashtbl.remove t.table key;
            make_room t;
            t.clock <- t.clock + 1;
            Hashtbl.replace t.table key (Done { value = v; tick = t.clock });
            Condition.broadcast t.landed);
        v
      | exception e ->
        locked t (fun () ->
            Hashtbl.remove t.table key;
            Condition.broadcast t.landed);
        raise e)

let counters t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = completed_size t;
        capacity = t.capacity;
      })
