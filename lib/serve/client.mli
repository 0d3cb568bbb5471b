(** A blocking client for the planning daemon — one connection, one
    request/reply at a time. Backs [mcss query] and the [serve] bench
    driver. *)

module Json := Mcss_json

type t

val connect : Server.address -> (t, string) result
(** Errors are human-readable connection failures ("connection refused",
    missing socket, unresolvable host). *)

val request : t -> Json.t -> (Json.t, string) result
(** Send one request object, wait for the reply line. [Error] means the
    transport failed (closed connection, unparseable reply) — protocol-
    level failures come back as [Ok] error replies
    ({!Protocol.response_error}). *)

val request_envelope : t -> Protocol.envelope -> (Json.t, string) result
(** {!Protocol.encode} then {!request}. *)

val close : t -> unit
(** Idempotent. *)

val with_connection :
  Server.address -> (t -> ('a, string) result) -> ('a, string) result
(** Connect, run, always close. *)

val call :
  ?obs:Mcss_obs.Registry.t ->
  ?sleep:(float -> unit) ->
  ?rng:Mcss_prng.Rng.t ->
  ?policy:Retry.policy ->
  ?route:(attempt:int -> Server.address) ->
  Server.address ->
  Protocol.envelope ->
  Json.t Retry.outcome
(** One request with {!Retry} semantics: each attempt connects fresh
    (reconnect-and-replay), applies [policy.attempt_timeout_ms] as both
    the socket receive timeout and the request's [deadline_ms] (unless
    the envelope carries its own), and retries transport failures and
    [overloaded]/[timeout] replies — but only when the request is
    {!Protocol.idempotent}; otherwise the first failure gives up.
    Other error replies (bad request, infeasible, degraded, ...) are
    final answers, returned [Ok] for the caller to inspect. [rng]
    (default seed 0) drives the jittered backoff.

    [route] re-resolves the target before {e every} attempt (it also
    decides attempt 1's address; the positional address is only the
    default when [route] is absent). The router uses it to redirect a
    retry at a shard's follower after the leader dies mid-reply instead
    of hammering the dead address.

    A [not_leader] reply is retried (re-resolving [route]) even for
    non-idempotent verbs: the refusal proves the member did nothing, so
    replaying it elsewhere cannot double-apply. The last attempt's
    [not_leader] reply is returned as the final answer rather than
    flattened into a transport error, so its exit-code mapping
    survives. *)
