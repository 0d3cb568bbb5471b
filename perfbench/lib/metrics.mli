(** The benchmark's metric declarations and its one-line JSON result.

    The two lists below are the single source of the metric names and
    units; [BENCHMARK.json] declares the same ones and the benchmark's
    tests check that the two agree. *)

type decl = { name : string; unit : string }

val end_to_end : decl list
(** Reported by an untraced run ([--trace 0]). *)

val per_layer : decl list
(** Reported by a traced run ([--trace 1]). *)

type value = { metric : string; v : float }

val result_line :
  traced:bool -> correct:bool -> attempted:int -> failed:int -> value list -> string
(** The final stdout line. Raises [Invalid_argument] unless the values
    name every metric of the run's list exactly once and nothing else, or
    when a value is not finite. *)

val unit_of : string -> string
(** Unit of a declared metric; raises [Not_found] otherwise. *)
