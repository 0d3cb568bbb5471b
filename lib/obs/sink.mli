(** Pluggable exporters for a registry snapshot.

    Three sinks cover the three consumers the reproduction has today:

    - {!jsonl} / {!write_jsonl} — one self-describing JSON object per
      line (machines; the [--metrics-out] CLI flag);
    - {!prometheus} — Prometheus/OpenMetrics text exposition (scrapers);
    - {!console} — an aligned {!Mcss_report.Table} of metrics plus the
      rendered span tree (humans; the [mcss profile] subcommand).

    All sinks are read-only over the registry: exporting never clears or
    perturbs the metrics, so a run can export to several sinks. *)

val jsonl : Registry.t -> string
(** The registry as JSON lines, in registration order, spans last. Lines
    look like:

    {v
    {"type":"counter","name":"stage1.pairs_selected","value":59}
    {"type":"gauge","name":"solve.cost_usd","value":1234.5}
    {"type":"histogram","name":"fleet.vm_utilisation","count":12,"sum":9.1,
     "min":0.31,"max":1.0,"mean":0.76,"p50":0.81,"p95":0.99,"p99":1.0,
     "buckets":[0.1,...],"counts":[0,...]}
    {"type":"span","path":"solve/stage1","name":"stage1","count":1,"seconds":0.18}
    v}

    Each line is a {!Mcss_json.t} printed by {!Mcss_json.to_string}, so
    names are escaped per RFC 8259, floats print as [%.12g] and
    non-finite ones as [null]: every line stays strict JSON. *)

val write_jsonl : Registry.t -> path:string -> unit
(** {!jsonl} to a file (truncates). *)

val prometheus : Registry.t -> string
(** Prometheus text exposition: [# HELP]/[# TYPE] headers, names
    sanitised to [[a-zA-Z0-9_:]] and prefixed with [mcss_], histograms
    as cumulative [_bucket{le="..."}]/[_sum]/[_count] series, spans as
    [mcss_span_seconds{path="..."}] plus [mcss_span_count{path="..."}].
    Help strings escape backslash and newline; label values (span
    paths) additionally escape the double quote, per the exposition
    format — so a help string or span name containing any of those
    cannot split a line or truncate a label. *)

val console : Registry.t -> string
(** A human-readable report: one aligned table of metrics (histograms
    summarised as count/mean/p50/p95/p99/max) followed by the span tree.
    Newline-terminated. *)
