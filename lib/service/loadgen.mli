(** Replay a workload against a live {!Server}, verify every reply and
    measure it.

    The instance's arrivals and departures are turned into a time-ordered
    protocol script (departures before arrivals at equal timestamps — the
    half-open interval semantics the engine uses), and every reply is
    checked against a deterministic shadow session.

    Two drivers:
    - {!run}: one closed-loop client over two OS pipes into the blocking
      {!Server.serve} loop, in its own domain. It is the measured path of
      the [service_loadgen] bench line that CI gates, so it stays as it is
      until that gate moves to perfbench; the blocking loop goes with it.
    - {!drive}: one thread, [select(2)] over [N] nonblocking connections,
      each with one window of requests in flight, against an in-process
      {!Event_loop} server or an external [dvbp serve --listen]. Windows
      pipeline, the server batches across clients, and one fsync covers
      many events. *)

type client_report = {
  tenant : string;
  client_events : int;  (** replies verified *)
  client_attempted : int;  (** requests in the client's script *)
  client_latency_us : Dvbp_obs.Histogram.snapshot;
}

type trace_stats = {
  blocks : int;
  resident_bytes_max : int;
      (** the trace reader's resident window (block buffer + index) *)
}

type report = {
  events : int;  (** replies verified, all clients *)
  wall_seconds : float;
  events_per_sec : float;
  latency_us : Dvbp_obs.Histogram.snapshot;
      (** client-observed round trip, µs; a pipelined window's replies all
          share the window's time *)
  clients : client_report list;  (** one per connection, in client order *)
  trace : trace_stats option;  (** for the {!Trace} source *)
  server_stats : string;
      (** the server's final [STATS] reply; ["(external server)"] under
          {!Connect} *)
  server_metrics : string;
      (** the server's final [METRICS] reply (Prometheus-style text,
          without the [# EOF] terminator); empty under {!Connect} *)
}

val script : Dvbp_core.Instance.t -> string list
(** The protocol request lines, in event-time order, without a trailing
    [QUIT]. *)

val expected_replies :
  ?tenant:string ->
  policy:string ->
  seed:int ->
  Dvbp_core.Instance.t ->
  ((string * string) list, string) result
(** The (request, expected reply) pairs a correct server must produce for
    this instance — [tenant] (default {!Tenant.default}) selects the
    request grammar and the shadow session's rng ({!Tenant.rng}). *)

val run :
  policy:string ->
  seed:int ->
  ?journal:string ->
  ?snapshot:string ->
  ?snapshot_every:int ->
  ?fsync_every:int ->
  ?segment_bytes:int ->
  ?retain_segments:int ->
  Dvbp_core.Instance.t ->
  (report, string) result
(** Starts a fresh server (journaling to [journal] if given), replays the
    instance one request at a time, verifies every reply against the
    shadow session, then [STATS], [METRICS] and [QUIT]. Any unexpected
    reply is an error naming the request. *)

type source =
  | Instances of Dvbp_core.Instance.t list
      (** client [i] is tenant [t<i>]; all instances share a capacity.
          Every window is built before the clock starts. *)
  | Trace of string
      (** a compiled binary trace: one default-tenant client, one window
          per trace block. The shadow session advances block by block, so
          memory stays O(block) however long the trace is. *)

type server_opts = {
  journal : string option;
  snapshot : string option;
  snapshot_every : int option;
  fsync_every : int;  (** the per-batch commit ceiling *)
  jobs : int;  (** tenant shards *)
  segment_bytes : int option;
  retain_segments : int option;
}

val server_defaults : server_opts
(** No journal, [fsync_every = 1024], [jobs = 1]. *)

type transport =
  | In_process of server_opts
      (** a fresh server under {!Event_loop.serve} in its own domain, on
          socketpairs, plus a control connection for the epilogue. A server
          that hangs up is an error. *)
  | Connect of string
      (** an external server listening on this unix socket. A server dying
          mid-run ends the run normally, each client reporting what it
          completed. *)

val drive :
  policy:string ->
  seed:int ->
  transport:transport ->
  ?window:int ->
  source ->
  (report, string) result
(** Replays [source] with one window of at most [window] (default [256])
    requests in flight per connection, verifying every reply. A wrong
    reply is an error naming the client and the request. Ignores
    [SIGPIPE], as {!Event_loop.serve} does. *)

val render : report -> string
(** Operator-facing summary: throughput and latency, one line per client
    when there are several, the trace's block count for {!Trace}. *)
