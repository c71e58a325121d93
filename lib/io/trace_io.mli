(** Textual format for trace datasets, optionally partitioned into named
    groups (the unit Data Repair drops by).

    {v
    # a comment
    group clean
    0 1 2
    0,go 1,stop 2          # state,action pairs; the last token is the
                           # final state
    group field
    0 2
    tally 14 8:5:3 8:8:11  # 14 more traces, with 3 steps 8->5 and
                           # 11 steps 8->8
    v}

    Lines before any [group] directive land in the default group [""].
    A bare state sequence is an action-less path; mixing the two styles on
    one line is allowed (missing actions default to [""]).

    A [tally N SRC:DST:COUNT ...] line stands for [N] traces with the
    given transition counts — the sufficient statistics of closed-form
    MLE ({!Tally}).  It is additive: a group's tally is the sum of its
    trace lines and its tally lines, in any order.  Every number on a
    tally line is a plain decimal integer; transition counts are positive,
    [N = 0] carries no transitions, and no sum may pass 2{^53}. *)

exception Parse_error of string
(** Messages start with ["line N: "], the line that failed. *)

(** {1 Tallies: the form Data Repair and Pipeline consume} *)

val parse_tallies : n:int -> string -> (string * Tally.t) list
(** Fold every line into its group's tally.  Groups come in order of first
    appearance; an unused default group (no traces) is dropped, named
    empty groups are kept.
    @raise Parse_error on a malformed line, a state outside [0 .. n-1]
    (on a trace or a tally line) or a count overflow.  A sum past 2{^53}
    names the last line that added data to the group that overflowed. *)

val fold_tallies :
  n:int ->
  first_line:int ->
  group:string ->
  string list ->
  (string * Tally.t * int) list * string
(** The fold {!parse_tallies} is built on, for a stream consumed in
    chunks ({!Inc_learn}): fold complete [lines] (no newlines; the first
    is line [first_line]) starting in group [group].  Returns every group
    the lines touched — [group] first, then in order of first appearance,
    none dropped — each with its tally and the last line that added data
    to it ([first_line] when none did), and the group in effect after the
    last line.  Raises as {!parse_tallies}. *)

val of_file : n:int -> string -> (string * Tally.t) list
(** {!parse_tallies} on a file's contents. *)

val tallies_to_string : (string * Tally.t) list -> string
(** One [group] line per named group and one [tally] line per group with
    traces.  [parse_tallies (tallies_to_string g) = g] for every [g]
    that {!parse_tallies} returns. *)

(** {1 Traces} *)

val parse : ?first_line:int -> string -> (string * Trace.t list) list
(** Groups in order of first appearance; each group's traces in file
    order; an unused default group dropped.
    @raise Parse_error on malformed lines, and on tally lines, which
    have no trace form. *)

val to_string : (string * Trace.t list) list -> string
(** [parse (to_string groups)] reconstructs the groups. *)
