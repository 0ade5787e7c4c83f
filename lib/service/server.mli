(** Multi-tenant line-protocol request handling around
    {!Dvbp_engine.Session} — one isolated packing session per tenant.

    Requests, one per line (fields space-separated, sizes comma-separated).
    Event commands take an optional leading tenant name (from
    [A-Za-z0-9_.-], see {!Tenant}); the un-prefixed form is the
    {!Tenant.default} tenant, so pre-tenant clients and scripts keep
    working unchanged (the two grammars are told apart by token count):

    {v
    ARRIVE [tenant] <t> <id> <s1,...,sd>
                                  ->  PLACED <bin> <1|0>   (1 = opened new bin)
                                  |   REJECT <reason>      (session refused it)
    DEPART [tenant] <t> <id>      ->  OK
    STATS                         ->  STATS k=v k=v ...    (aggregated over tenants)
    METRICS                       ->  Prometheus-style text, final line "# EOF"
    SNAPSHOT                      ->  OK snapshot <path> events=<n>
    QUIT                          ->  BYE
    anything else                 ->  ERR <msg>
    v}

    [METRICS] is the only multi-line reply; clients read until the
    [# EOF] terminator line. The metric families it carries are
    documented name-by-name in [OPERATIONS.md].

    Both entry points ({!handle_line}, {!handle_batch}) parse with the
    same scanner, so a line gets the same answer through either. Fields
    are separated by one or more blanks; leading and trailing blanks and
    one trailing CR are ignored. Commands are case-sensitive, and control
    words take no arguments ([STATS now] is an unknown command). [<id>]
    and each size entry are decimal ints or anything else [int_of_string]
    accepts ([+7], [0x10], [1_000]; a negative id or size is refused);
    [<t>] is anything [float_of_string] accepts that is finite ([1e1],
    [0x1p3]; [nan] and [inf] answer [ERR bad timestamp]).

    Per-request error isolation: a malformed request answers [ERR] and the
    loop keeps serving; an arrival the session refuses (oversized item,
    duplicate id, non-monotonic time, ...) answers [REJECT] and the loop
    keeps serving. Only IO failures escape. Tenants are isolated: each has
    its own bins, clock, and policy rng ({!Tenant.rng}), and item ids /
    time monotonicity are per-tenant.

    Durability comes in two strengths:
    - {!handle_line} (the blocking {!serve} loop): applied events are
      journaled and the fsync follows the [fsync_every] cadence, so an
      acked event can be lost to a power cut within the cadence window;
    - {!handle_batch} (the {!Event_loop} path): {b group commit} — every
      applied event in the batch is journaled and fsynced {e before} the
      replies are released, so an acked event is always durable. One fsync
      covers up to [fsync_every] records (the per-batch ceiling), which is
      what makes the multi-client path both stronger {e and} faster.

    When [snapshot_every = Some n], a snapshot is taken (and the journal
    truncated) every [n] applied events — exactly at the event on the
    streaming path, at the next run boundary on the batch path. *)

type config = {
  policy : string;  (** short name for [Policy.of_name] *)
  seed : int;  (** root rng seed; each tenant derives its own ({!Tenant.rng}) *)
  capacity : Dvbp_vec.Vec.t;
  journal : string option;  (** no journaling when [None] *)
  snapshot : string option;  (** required for [SNAPSHOT] / [snapshot_every] *)
  snapshot_every : int option;  (** auto-snapshot every [n] applied events *)
  fsync_every : int;
      (** streaming path: journal fsync cadence; batch path: per-batch
          ceiling — one group commit never spans more records than this *)
  jobs : int;  (** tenant shards for {!handle_batch} (1 = no domains) *)
  segment_bytes : int option;
      (** journal segment roll threshold in bytes (default 1 MiB); an
          append that carries the active segment past it seals the segment
          and opens the next *)
  retain_segments : int option;
      (** online compaction trigger: when more than this many {e sealed}
          segments are on disk, the event loop snapshots and retires the
          covered ones ({!compaction_step}). [None] disables compaction.
          Requires journal and snapshot paths. *)
}

type t

type metrics = {
  requests : int;  (** lines handled, including malformed ones *)
  placements : int;
  rejections : int;
  departures : int;
  errors : int;  (** [ERR] replies *)
  snapshots : int;
  events : int;  (** applied events (placements + departures) since genesis *)
}

val create : ?io:Io.t -> ?metrics:Metrics.t -> config -> (t, string) result
(** Fresh server: a {!Tenant.default} session, fresh journal (truncates an
    existing file — use {!resume} to continue one). Other tenant sessions
    are created on first contact. [io] (default {!Real_io.v}) is the
    backend journal and snapshot writes go through. [metrics] (default a
    fresh {!Metrics.create}) receives all instrumentation; pass
    {!Metrics.noop} to disable it (the sim sweeps do).
    Errors on an unknown policy or an invalid
    [snapshot_every]/[fsync_every]/[jobs] combination. *)

val resume : ?io:Io.t -> ?metrics:Metrics.t -> config -> Recovery.state -> (t, string) result
(** Continue serving from a recovered state (all tenant sessions). The
    config must agree with the recovered policy/seed/capacity; the journal
    is re-opened for appending (validating its header) rather than
    truncated. Metric counters restart from zero except [events], which
    counts from genesis (the engine pull family reflects the recovered
    sessions, so replayed events are counted once, not twice). *)

val restart : ?io:Io.t -> ?metrics:Metrics.t -> config -> (t option, string) result
(** [dvbp serve --resume]: {!Recovery.load} of [config]'s journal and
    snapshot, then {!resume} from that state — each file is read once.
    [Ok None] when the journal holds nothing durable (the caller starts
    fresh with {!create}). Sets the recovery gauges of [metrics]: the
    sequence's wall time and the events restored from each source.
    Errors when [config] names no journal. *)

val handle_line : t -> string -> string * bool
(** [handle_line t line] is [(reply, quit)]; [quit] is true only for QUIT.
    Exposed for in-process drivers ({!Loadgen}) and tests. The same
    answer, counters and packing as a one-line {!handle_batch}; only the
    durability differs: streaming (fsync cadence), like {!serve}. *)

val handle_batch : t -> string array -> (string * bool) array
(** Group commit: handles every line (arrival order across connections —
    slot [i] answers line [i]) and returns only after all applied events
    are journaled {e and fsynced}, in chunks of at most [fsync_every]
    records each. ARRIVE/DEPART lines, malformed ones included, are
    answered in runs whose events are applied sharded by tenant over
    [config.jobs] domains; per-tenant results are bit-identical for any
    [jobs]. Every other line (STATS, SNAPSHOT, QUIT, unknown commands) is
    handled between commits on the calling domain. *)

val max_line : int
(** The longest request line either transport accepts: 65,536 bytes,
    newline excluded. *)

val overlong_reply : string
(** The reply to a longer line: [ERR request line exceeds 65536 bytes].
    Nothing more is read from that input afterwards. *)

val serve : t -> in_channel -> out_channel -> unit
(** Read-eval-reply until QUIT, EOF or a line over {!max_line} bytes
    (answered {!overlong_reply}), then {!close}. Replies are flushed per
    request, byte-identical to {!Event_loop}'s for the same
    input. Per-request handling latency is recorded into the per-kind
    request histograms (see {!latency_summary}). *)

val metrics : t -> metrics
val stats_line : t -> string
(** The [STATS] reply. Its field list and order are frozen for backward
    compatibility; the engine fields aggregate across tenants (sums;
    [clock] is the max). Richer telemetry lives in the [METRICS] reply. *)

val latency_summary : t -> Dvbp_obs.Histogram.snapshot
(** Request-handling latency in seconds, all request kinds merged
    (populated by {!serve} and {!handle_batch}; empty for in-process
    {!handle_line} drivers). *)

val observability : t -> Metrics.t
(** The metrics bundle this server reports into (the one passed to
    {!create}/{!resume}, or the default it built). *)

val session : t -> Dvbp_engine.Session.t
(** The {!Tenant.default} tenant's session (always present). Read-only
    access for tests and reporting. *)

val sessions : t -> (string * Dvbp_engine.Session.t) list
(** All tenant sessions in first-appearance order ({!Tenant.default}
    first). Read-only access for tests and reporting. *)

val take_snapshot : t -> (string, string) result
(** What the [SNAPSHOT] command runs: write a {!Snapshot} of every tenant
    and truncate the journal. Exposed for drivers. *)

(** {1 Online compaction}

    A compaction pass bounds journal disk usage without stopping the
    world: snapshot the current frontier (making every record at or below
    it redundant), then unlink the sealed segments the snapshot covers, a
    few files per step. The active segment is never touched, so appends
    and group commits proceed throughout. *)

val compaction_pending : t -> bool
(** Whether {!compaction_step} has work: a pass is mid-flight, or the
    sealed-segment count exceeds [retain_segments]. The event loop polls
    this to keep its select timeout at zero while compacting. *)

val compaction_step : t -> unit
(** One bounded unit of compaction: either start a pass (write the
    snapshot, remember the frontier) or retire up to a handful of covered
    sealed segments. No-op when nothing is pending. Called by
    {!Event_loop} once per tick, between request batches. *)

val compact : t -> (string * int, string) result
(** Synchronous whole pass (the [dvbp compact] command and the sim's
    [Compact] action): snapshot, then retire {e all} covered sealed
    segments at once. Returns the snapshot path and the number of segments
    retired. Unlike {!take_snapshot} this never truncates the active
    segment — the journal keeps its tail. Errors when no snapshot or no
    journal path is configured. *)

val close : t -> unit
(** Syncs and closes the journal. Idempotent. *)
