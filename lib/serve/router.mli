(** A thin, fault-tolerant router in front of a sharded planning
    cluster ([mcss route]).

    Requests arrive on the same line protocol the daemon speaks
    ({!Protocol}); the router maps each digest-bearing request to the
    owning shard through a consistent-hash {!Ring} over workload
    digests (a [load] is parsed router-side so its content digest — and
    therefore its owner — is known before forwarding), and proxies it to
    a shard member:

    - {e idempotent} verbs go to the leader first and fail over to the
      followers on a transport failure, using {!Client.call}'s pluggable
      per-attempt routing;
    - [update] goes to the leader only — replaying a journal append
      against a second member could fork history;
    - when every member of the owning shard is unreachable, the reply is
      a parseable [no_quorum] error ([mcss query] exits 3), never a
      hang;
    - [health]/[stats]/[metrics]/[shutdown] are answered by the router
      itself.

    A background probe loop health-checks every member each
    [health_period_s]; probe results only order the candidate list
    (down-marked members are still tried last, because probes go stale
    in both directions), except for [no_quorum], which is only declared
    after live transport failures against every member.

    {b Automatic fenced failover.} With [auto_promote] on, the probe
    loop also records each member's reported role, fencing epoch, and
    [last_index]. When the shard's leader has failed [promote_after]
    consecutive probes (or a live [update] hits it dead), the router
    promotes the most caught-up live follower — highest
    [(epoch, last_index)] — with an explicit epoch one above anything
    the shard has reported, so the old leader is fenced if it revives.
    If two live members ever claim leadership (a revived stale leader),
    the router keeps the higher [(epoch, last_index)] one and sends the
    other a fenced [demote]. [update]s that draw a [not_leader] refusal
    re-resolve the member order and retry instead of surfacing the
    error. *)

module Json := Mcss_json

type member = { name : string; address : Server.address }

type shard = { shard_name : string; members : member list }
(** [members] is ordered: the first is the leader, the rest followers.
    Without [auto_promote] the order is static — after promoting a
    follower by hand, restart the router (or pass the new order). With
    [auto_promote] the router rewrites the order itself as it promotes
    followers and discovers role changes. *)

type config = {
  vnodes : int;  (** Ring points per shard (default 64). *)
  health_period_s : float;  (** Probe cadence (default 1 s). *)
  policy : Retry.policy;  (** Per-request forwarding retries. *)
  auto_promote : bool;
      (** Drive fenced promotion/demotion from the probe loop (default
          [false]: the operator promotes by hand, as before). *)
  promote_after : int;
      (** Consecutive failed probes before a leader is declared dead and
          a follower is promoted (default 2). *)
  log : string -> unit;
}

val default_config : config

type t

val create : ?obs:Mcss_obs.Registry.t -> ?config:config -> ?seed:int -> shard list -> t
(** Raises [Invalid_argument] on an empty shard list, a shard without
    members, or duplicate shard names. [seed] (default 0) drives the
    retry jitter. *)

val handle : t -> Protocol.envelope -> Json.t
(** Route one decoded request (tests drive this directly). Never
    raises. *)

val handle_line : t -> string -> Json.t
(** Decode and route one request line. Never raises. *)

val run : ?server_config:Server.config -> t -> Server.address -> unit
(** Serve on [address] (accept loop, line framing, and drain semantics
    shared with the daemon via {!Server.run_handler}), with the health
    probe loop running alongside; returns after a [shutdown] request
    drains the listener. *)

val probe_all : t -> unit
(** Probe every member once, synchronously (tests use this instead of
    waiting out the probe cadence). *)

val failover_all : t -> unit
(** Run one failover pass over every shard — promote for dead leaders,
    fence duplicate ones — exactly as the probe loop would. No-op unless
    [auto_promote]; tests use this instead of waiting out the cadence. *)

val draining : t -> bool
val obs : t -> Mcss_obs.Registry.t
