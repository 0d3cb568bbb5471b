(** Correctness gates: every measured operation's output is checked, and
    a failed gate counts that operation as failed. Gates are pure
    functions of the program's outputs so the benchmark's tests can show
    each one rejects a broken output. *)

type outcome = (unit, string) result

val plan_clean : Mcss_core.Verifier.report -> outcome
(** The plan's {!Mcss_core.Verifier.verify} report has no violations. *)

val same_digest : what:string -> expected:string -> string -> outcome

val sim_check : Mcss_sim.Simulator.check -> outcome
(** [Simulator.check ~tolerance:0.] found nothing. *)

val totals_agree :
  sim:Mcss_report.Delivery.totals -> fleet:Mcss_report.Delivery.totals -> outcome
(** The simulator's delivery totals equal the broker fleet's. *)

val update_reply : sent_head:string -> Mcss_serve.Json.t -> (string, string) result
(** The reply to an [update] sent against [sent_head] is ok and names
    [sent_head] as its [previous_digest]; [Ok] carries the new head. *)

val read_reply : head:string -> Mcss_serve.Json.t -> outcome
(** The reply to a [solve] of [head] is ok, for [head], and a cache hit. *)

(** Operation counts and the first few failure messages. *)
module Tally : sig
  type t

  val create : unit -> t
  val record : t -> outcome -> unit
  val attempted : t -> int
  val failed : t -> int
  val messages : t -> string list
  val add : t -> t -> t
end
