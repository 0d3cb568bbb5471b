(** The publication schedule: the one place publications are generated.

    The counting {!Simulator}, the message-level broker fleet and the
    live dataplane's publisher all replay the stream this kernel emits,
    so under the same arrivals they publish the same events at the same
    times — that is what lets their measurements be compared exactly.

    The stream is a k-way merge of one sequence per topic: a flat
    min-heap of topic ids keyed by each topic's pending time (a float
    array), ties broken by topic id. Events come out in ascending
    [(time, topic)] order and nothing is materialised. Time is
    normalised as in {!Simulator}: [duration = 1.0] is one rate
    horizon. *)

type arrivals =
  | Deterministic
      (** Topic [t] publishes exactly [n = round(ev_t · duration)]
          events, the [k]-th at
          [phase_of_topic t · interval + k · interval] for
          [interval = duration / n]: evenly spaced with a topic-specific
          phase, and no RNG. Measured totals then match the analytical
          model exactly for integral rates and [duration = 1]. *)
  | Poisson of int
      (** Poisson process with rate [ev_t], seeded: measured totals
          fluctuate around the analytical model. *)
  | Diurnal of { seed : int; amplitude : float }
      (** Inhomogeneous Poisson with intensity
          [ev_t · (1 + amplitude · sin(2π · time))], by thinning
          candidates drawn at the peak rate: the mean rate still matches
          the model the optimiser used, but traffic peaks
          [1 + amplitude] above it. Requires [0 <= amplitude < 1]. *)

val phase_of_topic : int -> float
(** A deterministic per-topic phase, [0 <= phase < 1], from a multiplicative
    hash of the topic id: decorrelates the evenly spaced streams without
    any RNG state. *)

type t
(** A schedule being drained. *)

val create :
  context:string -> Mcss_workload.Workload.t -> arrivals -> duration:float -> t
(** Arm every topic's first event before [duration]. The stochastic
    arrivals draw each topic's first gap here, in topic order; later
    draws happen as events are popped (for [Diurnal]: the acceptance
    draw, then the next gap), so a seed fixes the whole stream. Raises
    [Invalid_argument] (prefixed with [context]) for a [Diurnal]
    amplitude outside [0 <= amplitude < 1]. *)

val iter : t -> (float -> Mcss_workload.Workload.topic -> unit) -> unit
(** [iter s f] drains the schedule, calling [f time topic] for every
    publication in ascending [(time, topic)] order. A schedule can be
    drained once. *)

val pops : t -> int
(** Heap pops so far: one per publication, plus one per rejected
    [Diurnal] candidate. *)

val to_array : t -> (float * Mcss_workload.Workload.topic) array
(** Drain into an array, for consumers that need the whole stream up
    front (the live publisher paces and batches over it). *)
