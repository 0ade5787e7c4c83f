(** Streaming replay: drive a {!Dvbp_engine.Session} straight from a
    binary trace, one event at a time, never materialising the instance.

    Replay memory is the reader's resident window (one block buffer plus
    the index) — independent of the number of events — plus whatever the
    session itself keeps for active items. A {!probe} exposes progress and
    the resident window through [lib/obs] pull instruments
    ([dvbp_trace_replay_events_total], [dvbp_trace_replay_blocks_total],
    [dvbp_trace_resident_bytes{,_max}],
    [dvbp_trace_replay_events_per_sec]). *)

type stats = {
  events : int;
  arrivals : int;
  departures : int;
  blocks : int;
  wall_seconds : float;
  events_per_sec : float;
  resident_bytes_max : int;
}

type probe

val probe : ?registry:Dvbp_obs.Registry.t -> unit -> probe
(** A progress probe; when [registry] is given, the replay gauges and
    counters are registered against it as pull instruments. *)

val touch : probe -> ?events:int -> ?blocks:int -> Trace_reader.t -> unit
(** For external drivers (the service loadgen) that stream a reader
    themselves: bump the event/block counters and refresh the resident
    window from [reader]. *)

val set_throughput : probe -> float -> unit
(** Record the throughput of a completed replay and zero the resident
    window (the reader is done). *)

val into_session :
  ?probe:probe ->
  ?clock:(unit -> float) ->
  Trace_reader.t ->
  Dvbp_engine.Session.t ->
  (stats, string) result
(** Streams every event into the session via {!Dvbp_engine.Session.apply}.
    The caller opens the reader (positioned at the start) and, for the
    final packing, creates the session with [~history:true] and calls
    {!Dvbp_engine.Session.finish} afterwards. [clock]
    (default [Sys.time]) times the replay for the throughput figure —
    pass a wall clock for end-to-end numbers. Fails on a corrupt block,
    a dimension mismatch, or a session error (non-monotone events,
    duplicate ids). *)
