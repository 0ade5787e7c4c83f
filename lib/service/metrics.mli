(** The service's observability bundle: one {!Dvbp_obs.Registry} plus the
    journal- and server-side instruments, wired for the [METRICS] command.

    Layering: [lib/obs] knows nothing about the service; this module owns
    the metric {e names} (documented one by one in [OPERATIONS.md]) and
    the instruments behind them. The engine keeps plain counters
    ({!Dvbp_engine.Session.placements} and friends) that are registered
    here as pull metrics — sampled at render time, costing the hot path
    nothing — while the journal and server, where a syscall or a request
    dwarfs a histogram update, use push instruments.

    A {!noop} bundle (built on {!Dvbp_obs.Registry.noop}) never reads the
    clock and renders nothing; the sim sweeps and batch experiments pass
    it so instrumentation is compiled in but entirely inert. *)

type t

val create : ?clock:(unit -> float) -> unit -> t
(** A live bundle. [clock] defaults to [Unix.gettimeofday]; tests pass a
    fake clock for deterministic latencies and spans. *)

val noop : unit -> t
(** Records nothing, renders [""] (plus the [# EOF] terminator). *)

val is_noop : t -> bool

val registry : t -> Dvbp_obs.Registry.t
(** For registering additional pull metrics (the server adds its own
    request-level families). *)

val now : t -> float
(** The bundle clock; [0.] on noop (clock never called). *)

(** {1 Request kinds} *)

type kind = Arrive | Depart | Stats | Snapshot | Metrics | Other

val kind_name : kind -> string

(** {1 Journal-side hooks} *)

val on_append : t -> bytes:int -> unit
(** One record appended ([bytes] includes the newline). *)

val on_append_batch : t -> records:int -> bytes:int -> unit
(** One group-commit batch appended as a single buffered write: bumps the
    append/byte counters by the whole batch and records [records] into the
    [dvbp_journal_batch_size] histogram. The batch's single fsync is
    reported separately through {!time_fsync}. *)

val set_group_commit_waiters : t -> int -> unit
(** Gauge [dvbp_journal_group_commit_waiters]: replies currently staged
    behind the in-flight group commit (set just before the batch fsync,
    reset to [0] once the replies are released). *)

val time_fsync : t -> (unit -> unit) -> unit
(** Runs an fsync, counting it and timing it into the fsync-latency
    histogram. *)

val on_truncate : t -> unit
val on_heal : t -> unit
(** A torn or unterminated journal tail was rewritten on open. *)

val on_seal : t -> unit
(** One active segment sealed (footer + fsync + rename). *)

val on_retire : t -> segments:int -> bytes:int -> unit
(** Sealed segments unlinked by compaction: bumps
    [dvbp_journal_segments_retired_total] and
    [dvbp_journal_retired_bytes_total]. *)

val set_journal_live : t -> segments:int -> bytes:int -> unit
(** Gauges [dvbp_journal_segments] / [dvbp_journal_live_bytes]: live
    segment files (active included) and their total size, refreshed by the
    writer after every seal/retire/truncate/open. *)

(** {1 Compaction hooks} *)

val on_compaction : t -> seconds:float -> unit
(** One compaction pass completed (snapshot written, eligible sealed
    segments retired): counts it and observes the pass's wall time. *)

val set_compaction_lag : t -> int -> unit
(** Gauge [dvbp_server_compaction_lag_events]: events applied since the
    last durable snapshot frontier. *)

(** {1 Recovery} *)

val set_recovery : t -> seconds:float -> from_snapshot:int -> from_journal:int -> unit
(** Gauges [dvbp_recovery_seconds] (wall time of the last resume: files
    read, state replayed, journal writer reopened) and
    [dvbp_recovery_events{source="snapshot"|"journal"}] (the events it
    restored from each). *)

(** {1 Server-side hooks} *)

val on_request : t -> kind -> unit
(** One request line handled (counted even when the reply is ERR). *)

val observe_request : t -> kind -> seconds:float -> unit
(** End-to-end handling latency of one request (measured by the serve
    loop; in-process [handle_line] drivers don't produce latencies). *)

val observe_request_n : t -> kind -> seconds:float -> int -> unit
(** [observe_request_n t kind ~seconds k]: [k] requests of [kind] that all
    shared one latency — the group-commit batch path records a whole run
    with one bucket update instead of [k]. *)

val time_journal_append : t -> (unit -> 'a) -> 'a
(** Times the journal-before-reply write of one applied event. *)

val time_snapshot : t -> (unit -> 'a) -> 'a
(** Times a snapshot (manual or auto), also recording a ["snapshot"]
    span. *)

val observe_tenant_request : t -> tenant:string -> seconds:float -> unit
(** One event request for [tenant]: bumps
    [dvbp_server_tenant_requests_total{tenant=...}] and observes the
    latency into [dvbp_server_tenant_request_seconds{tenant=...}].
    Instruments are registered on the tenant's first event and memoized;
    cardinality is bounded by the number of live tenants. *)

val observe_tenant_request_n : t -> tenant:string -> seconds:float -> int -> unit
(** Bulk form of {!observe_tenant_request}: [k] event requests for
    [tenant] that shared one batch latency. *)

val request_summary : t -> Dvbp_obs.Histogram.snapshot
(** All per-kind request latency histograms merged — the source of the
    [STATS] line's backward-compatible [latency_mean_us]/[latency_max_us]
    fields. *)

val attach_session : t -> ?tenant:string -> policy:string -> Dvbp_engine.Session.t -> unit
(** Registers the engine pull family ([dvbp_engine_*], labelled
    [policy="..."] and, when [tenant] names a non-default tenant,
    [tenant="..."]) reading the session's counters at render time. *)

val observe_migration : t -> seconds:float -> unit
(** Wall time of one committed live migration, observed into the
    [dvbp_repack_migration_seconds] histogram (pass
    [observe_migration t] and the bundle clock to
    {!Dvbp_engine.Repack.create}). *)

val attach_repack : t -> policy:string -> Dvbp_engine.Repack.t -> unit
(** Registers the repacking pull family ([dvbp_repack_*], labelled
    [policy="..."]) reading the session's {!Dvbp_engine.Repack.stats}
    at render time: migrations, migration events, bins emptied,
    consolidations and budget-exhausted declines. *)

val render_text : t -> string
(** The full Prometheus-style exposition including spans, terminated by
    a final [# EOF] line (no trailing newline) — the [METRICS] reply and
    the [--metrics-dump] payload. *)
