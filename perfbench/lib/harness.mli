(** What every workload shares: the run context, timing, the set-up
    repetitions behind [setup_s], the operation loop, peak memory, and
    the cross-run plan-digest gate. *)

type ctx = {
  seed : int;  (** The trace seed; every other seed derives from it. *)
  seconds : float;  (** How long the operation loop runs. *)
  trace : Trace.t;  (** Enabled in a traced run. *)
  out_dir : string;  (** Scratch and output files (spans, digests, journals). *)
  mcss : string;  (** The [mcss] executable, for workloads with a server. *)
  scale : float option;  (** Trace-scale override (tests only). *)
}

val traced : ctx -> bool

type report = {
  tally : Gates.Tally.t;
  values : Metrics.value list;
  lines : string list;  (** Human-readable lines printed before the result. *)
  spans : Trace.span list;  (** A traced run's spans. *)
}

val tau : float
val instance : Mcss_pricing.Instance.t

val now_s : unit -> float
(** Monotonic seconds. *)

val mean : float array -> float
val timed : (unit -> 'a) -> 'a * float

val setups : ctx -> traces:int -> (next_seed:(unit -> int) -> int -> 'a) -> 'a array * float
(** Every run sets up [traces] traces of its workload's family and scale,
    and its operations cycle through them, so a run's figures average
    over several inputs rather than hang on one.

    Set up trace [k] for each [k < traces], compacting the heap after
    each; return the results with the median set-up time in seconds at
    reference speed (each set-up a {!timeline} part).
    [next_seed] hands out the run's candidate trace seeds in order:
    SEED, SEED + 1000003, SEED + 2000006, ... *)

val feasible_trace :
  ctx ->
  next_seed:(unit -> int) ->
  Mcss_front.Front.trace ->
  scale:float ->
  bc_events:float option ->
  int * Mcss_core.Problem.t
(** Generate the trace of the next candidate seed (in a
    [traces.generate] span) and its problem at τ, c3.large and
    [bc_events] (default: the implied capacity), skipping candidates in
    which a followed topic cannot fit an empty VM: on those the instance
    may be infeasible, and no operation may fail for want of capacity.
    Returns the seed used and the problem. *)

val skipped_line : unit -> string
(** A result line with the number of candidate traces skipped. *)

val calib_line : unit -> string
(** A result line with the median reference-kernel time of the run,
    against {!Calib.nominal_s}. *)

(** {2 Timing at reference speed}

    A timeline interleaves {!Calib} kernel passes with the timed parts of
    operations: every part is recorded between two passes, and its time
    is scaled to reference speed by the geometric mean of the pass just
    before it and the pass just after it. Splitting a long operation into
    parts with passes between them follows the machine's speed through
    the operation more closely. *)

type 'a timeline

val timeline : unit -> 'a timeline
val kernel : ?ref_s:float -> 'a timeline -> unit
(** Take a kernel pass ({!Calib.sample}) and record its time, or record
    [ref_s] instead (tests). *)

val record : 'a timeline -> 'a -> float -> unit
(** [record tl key wall] records a part of operation [key] that took
    [wall] seconds. A part must follow a kernel pass and be followed by
    one before {!at_reference}. *)

val at_reference : 'a timeline -> ('a * float) list
(** Each operation's time at reference speed, the sum of its parts, in
    the order the operations started. *)

type part = { part : 'a. (unit -> 'a) -> 'a }
(** Runs and times one part of an operation; a kernel pass separates it
    from the operation's previous part. *)

val op_rounds :
  traces:int ->
  seconds:float ->
  min_rounds:int ->
  (round:int -> part:part -> int -> unit) ->
  ((int * int) * float) list
(** Run rounds of operations, one per trace: [f ~round ~part k] runs
    trace [k]'s operation, timing the work that counts through [part]
    (once, or once per stage of a long operation). Each operation is
    preceded by a heap compaction, so every one starts from the same
    heap state, and by a kernel pass. After [min_rounds], another round
    starts only if it would, at the last round's pace, end within
    [seconds] of the first. Returns [((round, trace), time at reference
    speed)] in run order. *)

val per_trace : float -> (int * float) list -> float
(** [per_trace q samples]: the [q]-quantile of each trace's
    [(trace, value)] samples, averaged over the run's traces. *)

val overhead : traced:(int * float) list -> untraced:(int * float) list -> float
(** Tracing overhead from [(trace, time)] samples of traced and
    untraced operations: over traces, the median ratio of their median
    traced and untraced times, minus one. *)

val own_peak_rss_mb : unit -> float
val peak_rss_mb_of_pid : int -> float

val stable_digest : ctx -> workload:string -> seed:int -> string -> Gates.outcome
(** The plan digest a workload produced for the trace of this seed
    equals the one every earlier run in the same output directory
    recorded for it (the first run records it). *)

val medians : (string * float) list -> (string * float) list
(** Group samples by name and take each name's median. *)

val pairs_per_s : Trace.span list -> float
(** Trace-generation throughput: the pairs of every generated trace over
    the total time of the [traces.generate] spans. *)

val value : string -> float -> Metrics.value
val line : string -> float -> string -> string
(** [line label x unit] renders a human-readable result line. *)

type planned = {
  selection : Mcss_core.Selection.t;
  allocation : Mcss_core.Allocation.t;
  report : Mcss_core.Verifier.report;
  cost : float;
}

val plan_layers : Trace.t -> Mcss_obs.Registry.t -> Mcss_core.Problem.t -> planned
(** A cold plan as [Solver.solve] builds it with the default
    configuration on one domain, split at its layer boundaries (Stage-1
    GSP, Stage-2 CBP(e)) with each call in its own span and reporting to
    [obs], followed by the verifier in its own span. *)

val plan_counts : Mcss_obs.Registry.t -> planned -> (string * float) list
(** The Stage-1/Stage-2 work counts of a {!plan_layers} run. *)

val per_layer_values :
  Trace.span list -> (string * float) list -> Metrics.value list
(** The traced run's per-layer values: for every [*_s] metric named after
    a span, the median over operations of that span's self time; the
    [selection]/[cbp] major words from span GC deltas; [op.wall_s] and
    [op.uncovered_frac] over the ["op"] roots; then [extra] (counts,
    ratios). Declared metrics with no source are reported as [0.]: the
    workload does not exercise that layer. *)
