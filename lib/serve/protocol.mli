(** The planning daemon's wire protocol: one JSON object per line, in
    both directions.

    A request names its verb in a ["req"] field and may carry:

    - ["id"] — any JSON value, echoed verbatim in the response so
      clients can match replies when pipelining;
    - ["deadline_ms"] — per-request deadline budget; when the server
      cannot complete the work inside it, the reply is an [`Timeout]
      error and the connection stays usable.

    Verbs:

    {v
    {"req":"health"}
    {"req":"load","workload":"<mcss-workload text>"}   (or "path":"FILE")
    {"req":"solve","digest":D,"tau":100,"instance":"c3.large",
     "bc_events":F?,"config":"(e) +cost-decision"?}
    {"req":"update","digest":D,"deltas":"<mcss-deltas text>",...solve params...}
    {"req":"whatif","digest":D,"taus":[10,100,1000],...solve params...}
    {"req":"chaos","digest":D,"seed":1,"epochs":8,"zones":3,
     "faults":["crash:0@0.6",...]?,...solve params...}
    {"req":"stats"}
    {"req":"metrics"}
    {"req":"promote","epoch":E?}
    {"req":"demote","epoch":E}
    {"req":"shutdown"}
    {"req":"drain"}                                    (dataplane broker)
    {"req":"rehome","add":[[T,S],...],"remove":[[T,S],...]}   (broker)
    {"req":"ledger"}                                   (dataplane broker)
    v}

    The last three are {e dataplane control verbs}: they share this
    envelope and reply shape but are answered by the per-VM broker
    processes of {!Mcss_dataplane} (a planning server replies
    [bad_request] and points at the broker socket). [drain] stops a
    broker's publisher intake so in-flight fan-out can quiesce; [rehome]
    adds/removes (topic, subscriber) pairs on the live subscription
    table — set semantics, so replays are safe; [ledger] reads the
    broker's delivery ledger (see {!Mcss_dataplane.Ledger}). All three
    are idempotent, so {!Client.call} may reconnect-and-replay them.

    Responses are [{"ok":true,...}] or
    [{"ok":false,"error":CODE,"message":TEXT}].

    {b Degraded replies.} When the solver's circuit breaker is open, a
    [solve] (or [whatif] point) that misses the plan cache is answered
    from the last journaled plan for that digest instead of erroring:
    the reply is [ok:true] with ["degraded":true], a
    ["degraded_reason"], the ["requested_tau"], and the {e served}
    plan's own parameters in the usual fields — the client gets a stale
    but feasible plan rather than nothing. When no plan for the digest
    has ever been solved, the reply is an [ok:false] error with code
    [degraded]. [mcss query] exits with status 2 (not 1) on both shapes
    so scripts can tell "shed, retry later" from a hard error. *)

module Json := Mcss_json

type solve_params = {
  tau : float;  (** Satisfaction threshold (default 100). *)
  instance : string;  (** EC2 instance type name (default ["c3.large"]). *)
  bc_events : float option;  (** Per-VM capacity override, events/horizon. *)
  config : string;  (** Solver ladder configuration name. *)
}

val default_params : solve_params

type request =
  | Health
  | Load of [ `Inline of string | `Path of string ]
  | Solve of { digest : string; params : solve_params }
  | Update of { digest : string; params : solve_params; deltas : string }
      (** Apply a {!Mcss_engine.Delta_io} batch to the plan cached under
          [(digest, params)] through the incremental engine; the evolved
          workload is registered under its own content digest and the
          evolved plan cached under it. The reply carries both digests
          and the engine's change stats. *)
  | Whatif of { digest : string; params : solve_params; taus : float list }
  | Chaos of {
      digest : string;
      params : solve_params;
      seed : int;
      epochs : int;
      zones : int;
      faults : string list;  (** {!Mcss_resilience.Failure_model} specs; empty = random campaign. *)
    }
  | Stats
  | Metrics
  | Promote of { epoch : int option }
      (** Ask a follower to become leader: it stops pulling the
          replication stream, bumps its fencing epoch, and starts
          accepting [update]s. With [epoch = Some e] the new leader
          adopts [max (own + 1) e] — the router passes the highest epoch
          it has observed cluster-wide plus one, so a promotion always
          fences every earlier leader. A no-op on a server that is
          already leading (its epoch still rises to cover [e]). *)
  | Demote of { epoch : int }
      (** Fence a (possibly stale) leader: step down to follower iff
          [epoch] is strictly greater than the server's own epoch, and
          adopt it. Refused (as [bad_request]) when [epoch] is not
          ahead — a genuinely newer leader can never be demoted by a
          laggard's view of the world. A no-op beyond epoch adoption on
          a server already following. *)
  | Shutdown
  | Drain
      (** Dataplane: stop accepting publications; in-flight fan-out
          drains. Answered by broker processes, not planning servers. *)
  | Rehome of { add : (int * int) list; remove : (int * int) list }
      (** Dataplane: mutate a live broker's (topic, subscriber) table.
          Set semantics — already-present adds / already-absent removes
          are counted in the reply, not errors — so replay is safe. *)
  | Ledger
      (** Dataplane: read the broker's delivery ledger snapshot. *)

type envelope = {
  id : Json.t option;
  deadline_ms : float option;  (** Must be positive when present. *)
  request : request;
}

val decode : Json.t -> (envelope, string) result
(** Decode a request line; [Error] is a human-readable reason suited to
    a [`Bad_request] reply. *)

val encode : envelope -> Json.t
(** The inverse of {!decode} (used by clients and the bench driver). *)

(** {2 Replies} *)

type error_code =
  | Bad_request  (** Malformed JSON or missing/ill-typed fields. *)
  | Too_large  (** Request line exceeded the server's byte limit. *)
  | Unknown_digest  (** No workload registered under that digest. *)
  | Timeout  (** Deadline exceeded before the reply could be produced. *)
  | Overloaded  (** Admission control refused: too many in-flight solves. *)
  | Draining  (** Server is shutting down and no longer takes work. *)
  | Infeasible  (** The MCSS instance cannot be solved at these params. *)
  | Degraded
      (** The solver circuit is open and no previously solved plan
          exists for this digest to degrade to. *)
  | Not_leader
      (** The mutating verb ([update]) was sent to a follower; retry
          against the shard's leader (or promote the follower first). *)
  | No_quorum
      (** Router-side shed: every member of the owning shard is
          unreachable. [mcss query] exits 3 on this code so scripts can
          tell a whole-shard outage from a degraded reply (2) or a hard
          error (1). *)
  | Internal  (** Unexpected server-side failure. *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

val ok_response : ?id:Json.t option -> (string * Json.t) list -> Json.t
(** [{"ok":true,"id":...?,...fields}]. *)

val error_response :
  ?id:Json.t option -> code:error_code -> message:string -> unit -> Json.t
(** [{"ok":false,"id":...?,"error":CODE,"message":TEXT}]. *)

val response_ok : Json.t -> bool
(** Whether a reply has ["ok"] = [true]. *)

val response_degraded : Json.t -> bool
(** Whether a reply is an ok reply carrying ["degraded"] = [true] (a
    stale plan served because the solver circuit is open). *)

val response_error : Json.t -> (error_code option * string) option
(** [(code, message)] of an error reply; [None] for an ok reply. *)

val idempotent : request -> bool
(** Whether replaying the request on a fresh connection is safe after a
    transport failure mid-exchange ([Promote]/[Demote] are fenced by
    epoch, so a replay is absorbed). True for every verb except [Update],
    which appends to the server's write-ahead log; retry layers gate
    reconnect-and-replay on it. The dataplane verbs ([Drain], [Rehome],
    [Ledger]) are all true: reads, flag sets, and set-semantics table
    mutations replay cleanly. *)
