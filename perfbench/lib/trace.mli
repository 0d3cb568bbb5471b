(** Outside-in span recording for the traced benchmark run.

    The benchmark wraps each public call it makes into a program layer in
    a span: name, start, end, parent span, the operation the span belongs
    to, and the GC words allocated while it ran ({!Gc.quick_stat} deltas).
    Spans stay in memory until {!write} at the end of the run. A disabled
    recorder calls straight through without reading the clock. *)

type span = {
  id : int;
  parent : int;  (** [-1] for an operation's root span. *)
  op : int;  (** Shared by every span of one operation. *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
  minor_words : float;
  major_words : float;
}

type t

val create : ?namespace:int -> bool -> t
(** [create on] records when [on]. Recorders used from different domains
    need distinct [namespace]s (default 0) so their span and operation
    ids stay unique when {!merge}d. *)

val enabled : t -> bool

val op : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk as a new operation whose root span has this name
    (["op"] for a measured operation, ["setup"] for set-up). *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk in a span nested under the innermost open span.
    Exception-safe. Outside any operation it opens one named after the
    span. *)

val spans : t -> span list
(** Recorded spans, in start order. *)

val merge : t list -> span list

val layer_seconds : span list -> string -> float list
(** Per operation containing at least one span of that name, the summed
    self time of those spans (duration minus the time their direct
    children cover), in seconds. *)

val layer_words : span list -> string -> [ `Minor | `Major ] -> float list
(** Per operation, the GC words allocated inside spans of that name. *)

val roots : span list -> string -> span list
(** Root spans with that name. *)

val uncovered_fraction : span list -> string -> float
(** Over the root spans with that name, the share of their wall time
    that no child span covers. *)

val write : string -> span list -> unit
(** Write the spans as JSON lines (with self time) to the file. *)
