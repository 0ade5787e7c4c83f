(** CLI glue for the durable placement service: [dvbp serve] / [dvbp
    recover] / [dvbp loadgen].

    Kept in the library (rather than the binary) so that every error path —
    malformed capacity strings, bad flag values, missing journals — is unit
    testable: each action returns [Error msg] instead of printing and
    exiting, and the binary maps that to a one-line stderr message and a
    non-zero exit. *)

val parse_capacity : string -> (Dvbp_vec.Vec.t, string) result
(** Parses ["100,100"]-style capacity vectors: one or more comma-separated
    strictly positive integers. *)

type serve_opts = {
  policy : string;
  seed : int;
  capacity : string;  (** unparsed, e.g. ["100,100"] *)
  journal : string option;
  snapshot : string option;
  snapshot_every : int option;
  fsync_every : int;
  jobs : int;  (** tenant shards for the batch path (domains) *)
  segment_bytes : int option;
      (** journal segment roll threshold (bytes, default 1 MiB) *)
  retain_segments : int option;
      (** arm online compaction: snapshot + retire once more than this
          many sealed segments accumulate *)
  listen : string option;
      (** unix socket path: serve many concurrent clients through the
          {!Dvbp_service.Event_loop} instead of stdin/stdout *)
  resume : bool;  (** recover from the journal first, then keep serving *)
  metrics_dump : string option;
      (** write the final [METRICS] exposition here on exit *)
}

val serve : serve_opts -> in_channel -> out_channel -> (unit, string) result
(** Runs the blocking request loop until QUIT/EOF. With [resume], an
    existing journal (plus snapshot, if present) is recovered and served
    from; without it the journal is started fresh. With [metrics_dump],
    the final metrics snapshot is written to that file when the loop
    ends (readable back with [dvbp metrics]).

    With [listen], the channels are ignored: a unix-domain listener is
    bound at that path and the multi-client event loop serves group-commit
    batches until the process is killed (each client may QUIT its own
    connection; the listener itself stays up). *)

val recover : journal:string -> snapshot:string option -> (string, string) result
(** Recovers and verifies (placement-by-placement — see {!Dvbp_service.Recovery});
    returns the rendered state summary. *)

val compact :
  ?io:Dvbp_service.Io.t ->
  journal:string ->
  snapshot:string ->
  ?segment_bytes:int ->
  unit ->
  (string, string) result
(** [dvbp compact]: offline whole-pass compaction. Recovers the state,
    writes a fresh snapshot at the recovered frontier, and retires every
    sealed segment the snapshot covers; the active segment keeps its tail.
    Returns a one-line summary (events covered, segments retired). Each
    journal file and the snapshot are read once; [io] (default
    {!Dvbp_service.Real_io.v}) is the backend every file goes through. *)

type loadgen_opts = {
  source : Workload_select.source;  (** what to replay *)
  lg_policy : string;
  lg_seed : int;  (** policy rng seed (workload generation uses [source.seed]) *)
  lg_journal : string option;
  lg_snapshot : string option;
  lg_snapshot_every : int option;
  lg_fsync_every : int option;  (** [None] = library default *)
  lg_clients : int;
      (** [0] = classic single-client pipe driver; [n > 0] = [n] concurrent
          clients (tenants [t0..t{n-1}]) against one event-loop server *)
  lg_jobs : int;  (** server-side tenant shards (multi-client mode) *)
  lg_window : int;  (** per-client pipelining depth (multi-client mode) *)
  lg_connect : string option;
      (** drive an external [dvbp serve --listen] server at this socket
          path instead of an in-process one; server death mid-run is
          tolerated (kill-smoke mode) *)
  emit : bool;  (** print the protocol script instead of driving a server *)
}

val loadgen : loadgen_opts -> (string, string) result
(** Either the protocol script ([emit]) or the throughput/latency report of
    a live run against an in-process or external server. *)
