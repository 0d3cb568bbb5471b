(** A parametric churn model for dynamic-provisioning experiments: one
    {!tick} produces the batch of deltas a social pub/sub service might
    accumulate between re-provisioning runs (the paper suggests hourly
    runs in §IV-F) — sign-ups, follows, unfollows, and activity bursts or
    lulls. *)

type params = {
  new_subscribers : int;  (** Sign-ups per tick. *)
  new_subscriber_max_interests : int;  (** Interests a sign-up starts with. *)
  new_topics : int;  (** Fresh publishers per tick. *)
  new_topic_max_rate : float;
  subscribes : int;  (** Follow attempts per tick (skipped if already following). *)
  unsubscribes : int;  (** Unfollow attempts (skipped below 2 interests). *)
  rate_changes : int;  (** Topics whose activity level shifts. *)
  rate_burst_min : float;
  rate_burst_max : float;
      (** Rate multiplier drawn uniformly from
          [rate_burst_min, rate_burst_max]; the result is rounded and
          floored at 1 event. *)
}

val default : params
(** A mild tick: 20 sign-ups, 5 new topics, 100 follows, 50 unfollows,
    30 rate shifts in [0.5, 2.5]x. *)

val scaled : float -> params
(** Multiply all the count fields of {!default} (minimum 1 each). *)

val tick :
  Mcss_prng.Rng.t -> params -> Mcss_workload.Workload.t -> Mcss_engine.Delta.t list
(** Generate one tick's deltas against the given workload. The list is
    valid for {!Mcss_engine.Delta.apply} on exactly that workload.
    Deterministic for a given generator state. *)

val run :
  Mcss_prng.Rng.t -> params -> ticks:int -> Mcss_workload.Workload.t ->
  (Mcss_workload.Workload.t -> Mcss_engine.Delta.t list -> unit) ->
  Mcss_workload.Workload.t
(** [run rng params ~ticks w f] folds {!tick} +
    {!Mcss_engine.Delta.apply} [ticks] times, calling
    [f workload_before deltas] at each step; returns the final
    workload. *)
