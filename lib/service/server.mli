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

    Lines are answered by {!handle_batch} ({!handle_line} is a one-line
    batch), and {!quits} asks the same scanner whether a line is QUIT.
    Fields
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

    Durability has one contract, {b acked ⇒ durable}: every applied
    event is group-committed — journaled and fsynced — {e before} the
    reply that acks it is released, so no crash loses an acked event. One
    write and one fsync cover each event run, however long.

    The journal is trimmed only by a {!checkpoint}, whatever asks for it:
    [SNAPSHOT], [dvbp compact], and the two triggers checked at the end of
    each event run's commit — [snapshot_every = Some n] ([n] applied
    events since the last snapshot; a run is cut at the line that would
    make [n], so the checkpoint lands exactly at the [n]th event when
    every line applies) and [retain_segments = Some k] (more than [k]
    sealed segments). The replies of the run that fires a trigger wait
    for its checkpoint. *)

type config = {
  policy : string;  (** short name for [Policy.of_name] *)
  seed : int;  (** root rng seed; each tenant derives its own ({!Tenant.rng}) *)
  capacity : Dvbp_vec.Vec.t;
  journal : string option;  (** no journaling when [None] *)
  snapshot : string option;  (** required for [SNAPSHOT] / [snapshot_every] *)
  snapshot_every : int option;  (** auto-snapshot every [n] applied events *)
  fsync_every : int;
      (** not read: every event run is committed with one fsync. See
          "Names kept for the benchmark harness". *)
  jobs : int;  (** tenant shards for {!handle_batch} (1 = no domains) *)
  segment_bytes : int option;
      (** journal segment roll threshold in bytes (default 1 MiB); an
          append that carries the active segment past it seals the segment
          and opens the next *)
  retain_segments : int option;
      (** checkpoint trigger: when more than this many {e sealed} segments
          are on disk after a commit, the server checkpoints, which
          retires them. Requires journal and snapshot paths. *)
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
(** Fresh server: a {!Tenant.default} session, fresh journal (a durable
    journal there is refused — use {!resume} to continue one). Other tenant sessions
    are created on first contact. [io] (default {!Real_io.v}) is the
    backend journal and snapshot writes go through. [metrics] (default a
    fresh {!Metrics.create}) receives all instrumentation; pass
    {!Metrics.noop} to disable it (the sim sweeps do).
    Errors on an unknown policy or an invalid
    [snapshot_every]/[segment_bytes]/[retain_segments]/[jobs] combination. *)

val resume : ?io:Io.t -> ?metrics:Metrics.t -> config -> Recovery.state -> (t, string) result
(** Continue serving from a recovered state (all tenant sessions). The
    config must agree with the recovered policy/seed/capacity; the journal
    is re-opened for appending (validating its header). A snapshot ahead
    of the journal (written by an earlier version, see DESIGN.md §9.3) is
    repaired by one {!checkpoint} before any append. Metric counters restart from zero except [events], which
    counts from genesis (the engine pull family reflects the recovered
    sessions, so replayed events are counted once, not twice). *)

val restart : ?io:Io.t -> ?metrics:Metrics.t -> config -> (t option, string) result
(** [dvbp serve --resume]: {!Recovery.load} of [config]'s journal and
    snapshot, then {!resume} from that state — each file is read once.
    [Ok None] when the journal holds nothing durable (the caller starts
    fresh with {!create}). Sets the recovery gauges of [metrics]: the
    sequence's wall time and the events restored from each source.
    Errors when [config] names no journal. *)

val handle_batch : t -> string array -> (string * bool) array
(** Group commit: handles every line (arrival order across connections —
    slot [i] answers line [i]) and returns only after all applied events
    are journaled {e and fsynced}: one {!Journal.append_batch} (one write,
    one fsync) per event run. ARRIVE/DEPART lines, malformed ones included, are
    answered in runs whose events are applied sharded by tenant over
    [config.jobs] domains; per-tenant results are bit-identical for any
    [jobs]. Every other line (STATS, SNAPSHOT, QUIT, unknown commands) is
    handled between commits on the calling domain. Each line's handling
    latency goes to the per-kind request histograms ({!latency_summary}). *)

val handle_line : t -> string -> string * bool
(** [handle_line t line] is [(handle_batch t [| line |]).(0)]:
    [(reply, quit)], where [quit] is true only for QUIT. For in-process
    drivers and tests. *)

val quits : string -> bool
(** [quits line]: the line is a QUIT request, as the request scanner
    reads it (blanks around it and one trailing CR are ignored). The
    {!Event_loop} takes no more lines from a connection once it has
    batched one. *)

val max_line : int
(** The longest request line {!Event_loop} accepts: 65,536 bytes,
    newline excluded. *)

val overlong_reply : string
(** The reply to a longer line: [ERR request line exceeds 65536 bytes].
    {!Event_loop} reads nothing more from that input afterwards. *)

val metrics : t -> metrics
val stats_line : t -> string
(** The [STATS] reply. Its field list and order are frozen for backward
    compatibility; the engine fields aggregate across tenants (sums;
    [clock] is the max). Richer telemetry lives in the [METRICS] reply. *)

val latency_summary : t -> Dvbp_obs.Histogram.snapshot
(** Request-handling latency in seconds, all request kinds merged, as
    {!handle_batch} (and so {!handle_line}) records it. Empty with
    {!Metrics.noop}. *)

val observability : t -> Metrics.t
(** The metrics bundle this server reports into (the one passed to
    {!create}/{!resume}, or the default it built). *)

val session : t -> Dvbp_engine.Session.t
(** The {!Tenant.default} tenant's session (always present). Read-only
    access for tests and reporting. *)

val sessions : t -> (string * Dvbp_engine.Session.t) list
(** All tenant sessions in first-appearance order ({!Tenant.default}
    first). Read-only access for tests and reporting. *)

val checkpoint : t -> (string * int, string) result
(** Bounds the journal by the live state, in one call, in this order:
    + if the active journal segment holds records, seal it ({!Journal.roll})
      and open the next one at the server's event count, so every record
      at or below that frontier is durable first;
    + write a {!Snapshot} of every tenant at that frontier;
    + retire every sealed segment whose records all fall at or below it
      ({!Journal.retire_sealed}).

    A crash at any point leaves a snapshot no further ahead than its
    journal and a journal chain the snapshot covers. Returns the snapshot
    path and the number of segments retired. [SNAPSHOT], [dvbp compact],
    both triggers and a {!resume} that finds the snapshot ahead of the
    journal all call it; each call counts once under
    [dvbp_server_compactions_total] and [dvbp_server_snapshots_total].
    Without a journal it only writes the snapshot. Errors when no snapshot
    path is configured. *)

(** {2 Names kept for the benchmark harness}

    [perfbench/layers.ml] drives the staged compaction of earlier versions
    by these names: [compact] is {!checkpoint}, [compaction_pending] is
    always [false] and [compaction_step] does nothing, since a checkpoint
    completes within the call that triggers it. The harness also builds
    {!config} with its [fsync_every] field, which the server no longer
    reads. *)

val compact : t -> (string * int, string) result
val compaction_pending : t -> bool
val compaction_step : t -> unit

val close : t -> unit
(** Syncs and closes the journal. Idempotent. *)
