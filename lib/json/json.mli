(** The repo's one JSON codec: an AST, a compact renderer, a hardened
    parser and field accessors.

    Every JSON surface shares it — wire frames ({!Wire}), trace dumps
    ([Trace_export]), runtime stats ([Runtime_stats]) and bench result
    files — so hostile input meets one reader with one failure mode:
    every malformed input raises {!Error}, and nothing else escapes
    {!parse}.  Dependency-free. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string
(** Malformed input ({!parse}, with a byte offset) or a missing or
    mistyped field (the accessors).  [Wire.Protocol_error] is this same
    exception. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Error} with the formatted message. *)

val max_depth : int
(** Deepest array/object nesting {!parse} accepts (512).  The repo's
    own documents nest at most a handful of levels deep; the bound keeps
    a frame of nested brackets from stalling the thread parsing it. *)

(** {1 Output buffering}

    A growable byte window with a consumable front: the server renders
    reply frames straight into a connection's [Obuf] and writes straight
    out of it, so a reply body never exists as an intermediate frame
    string (the zero-copy reply path). *)

module Obuf : sig
  type t

  val create : ?initial:int -> unit -> t
  (** An empty buffer; [initial] (default 4096) is the starting
      capacity. *)

  val length : t -> int
  (** Bytes currently buffered (appended and not yet consumed). *)

  val add_char : t -> char -> unit
  val add_string : t -> string -> unit

  val add_substring : t -> string -> int -> int -> unit
  (** [add_substring t s off n] appends [s.[off..off+n)]. *)

  val reserve_u32 : t -> int
  (** Append a 4-byte placeholder and return a mark for {!patch_u32}.
      The mark is a window-relative offset: it stays valid across
      further appends (which may move the underlying storage), but only
      until the next {!consume} or {!clear}. *)

  val patch_u32 : t -> int -> int -> unit
  (** [patch_u32 t mark v] overwrites the placeholder at [mark] with [v]
      as big-endian.  @raise Invalid_argument on an out-of-window mark. *)

  val contents : t -> string
  (** Copy of the buffered window (does not consume). *)

  val peek : t -> Bytes.t * int * int
  (** [(buf, off, len)]: the live window, for handing directly to
      [Unix.write].  Invalidated by any append. *)

  val consume : t -> int -> unit
  (** Discard [n] bytes from the front (they were written out). *)

  val clear : t -> unit
  (** Drop everything buffered. *)
end

(** {1 Rendering} *)

val escape_into : Obuf.t -> string -> unit
(** Append [s] escaped as the body of a JSON string (no surrounding
    quotes): double quote, backslash, newline, carriage return and tab
    by name, other control bytes as a six-character [\u] escape, every
    other byte (UTF-8 included) verbatim. *)

val render_into : Obuf.t -> t -> unit
(** {!render}, appending to an [Obuf] instead of allocating a string. *)

val render : t -> string
(** Compact single-line rendering.  Integral numbers below 1e15 print
    as integers, other finite numbers with 17 significant digits (so
    every finite float round-trips), non-finite numbers as [null]. *)

(** {1 Parsing} *)

val parse : string -> t
(** Parse one JSON document (surrounding whitespace allowed).  [\u]
    escapes decode to UTF-8, a surrogate pair to one 4-byte sequence.
    @raise Error with a byte offset on malformed input, a lone UTF-16
    surrogate, trailing garbage, or nesting deeper than {!max_depth}. *)

(** {1 Field accessors}

    All raise {!Error} naming the field on a missing or mistyped
    value. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing fields or non-objects. *)

val get : string -> t -> t
val opt : string -> t -> t option
(** [None] for a missing field and for an explicit [null]. *)

val to_str : string -> t -> string
val to_num : string -> t -> float

val to_int : string -> t -> int
(** A number with no fractional part. *)

val to_bool : string -> t -> bool
val to_arr : string -> t -> t list
val str_list : string -> t -> string list
val num_list : string -> t -> float list
