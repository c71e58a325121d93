(** A bounded, thread-safe, memoizing LRU cache with request coalescing.

    [find_or_compute] returns the cached value for a key, or runs the
    supplied thunk and records its result.  Concurrent requests for the
    same missing key are {e coalesced}: one caller computes, the others
    block until the value lands (and count as hits) — so a burst of
    identical expensive queries (e.g. the same state elimination from
    several worker domains) costs one computation, not N.

    Eviction is least-recently-used with an O(size) scan — capacities here
    are small (hundreds of entries) and evictions rare, so constant-factor
    simplicity wins over a linked-list LRU. *)

type 'a t

type counters = {
  hits : int;  (** served from cache, including coalesced waiters *)
  misses : int;  (** entries actually computed *)
  evictions : int;
  size : int;
  capacity : int;
}

val create : ?name:string -> capacity:int -> unit -> 'a t
(** [name], when given, makes the cache observable: hits and misses are
    mirrored into the [tml_cache_hits_total] / [tml_cache_misses_total]
    {!Metrics} counters under a [cache=<name>] label, and every fill runs
    inside a [cache:fill] trace span carrying the cache name and an
    8-hex-char key prefix.  Anonymous caches keep only their local
    {!counters}.
    @raise Invalid_argument when [capacity < 1]. *)

val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a
(** If the thunk raises, the exception propagates to its caller; coalesced
    waiters retry (one of them becomes the new computer). *)

val counters : 'a t -> counters
