(** Rebuild live tenant sessions from snapshot + journal, verifying as it
    goes.

    The recovery invariant: the recovered sessions are {e exactly} the
    ones the original server held after the same events — same
    {!Dvbp_engine.Session.fingerprint}, and the same placements for every
    later event. Sessions are deterministic (the golden tests pin this)
    and tenant shard/rng assignment is a pure function of the tenant name
    ({!Tenant}), so any deviation means the files are corrupt, were
    produced by a different policy/seed/capacity, or the library's
    behaviour changed; all three must be a hard error, never silent
    divergence.

    Order of operations:
    + load the snapshot if one exists (its absence is fine: the journal then
      must start at event 0);
    + skip the journal records below the snapshot's frontier [N]; the
      journal's record [N - 1], if it holds one, must equal the snapshot's
      last covered event;
    + restore each tenant's session from the snapshot's saved state
      ({!Dvbp_engine.Session.restore}) and check it against the recorded
      fingerprint;
    + replay the journal suffix through the same {!replay}-style
      verification of each recorded placement.

    The returned sessions are live: a server can resume serving from them. *)

type state = {
  sessions : (string * Dvbp_engine.Session.t) list;
      (** tenant sessions in first-appearance order; the {!Tenant.default}
          session always exists and comes first *)
  policy : string;
  seed : int;
  capacity : Dvbp_vec.Vec.t;
  events : int;  (** applied events since genesis: the recovered frontier *)
  last : Journal.event option;
      (** event [events - 1] (what the next snapshot records as its last
          covered event); [None] iff [events = 0] *)
  from_snapshot : int;  (** events the snapshot covers *)
  from_journal : int;  (** events replayed from the journal suffix *)
  dropped_torn : bool;  (** the journal's torn final record was dropped *)
  journal : Journal.source;
      (** the journal as recovery read it: {!Server.resume} reopens the
          writer from it instead of reading the files again, unless the
          files have changed since ({!Journal.append_to}) *)
}

val session : state -> Dvbp_engine.Session.t
(** The {!Tenant.default} tenant's session (always present). *)

val replay :
  policy:string ->
  seed:int ->
  capacity:Dvbp_vec.Vec.t ->
  Journal.event list ->
  ((string * Dvbp_engine.Session.t) list, string) result
(** Fresh sessions, events applied in order (routed by tenant), each
    recorded placement checked against the recomputed one. Also the
    building block of the loadgen's shadow check. *)

val load :
  ?io:Io.t ->
  ?snapshot:string ->
  journal:string ->
  unit ->
  (state option, string) result
(** Reads every journal file and the snapshot once ({!Journal.load},
    {!Snapshot.load}) and recovers from them. [Ok None] when the journal
    holds nothing durable ({!Journal.exists} would say [false]): nothing
    to recover, and the snapshot is not read. [snapshot] names where
    snapshots are written; a missing snapshot file is not an error
    (recovery then replays the whole journal), a corrupt one is. A corrupt
    journal is an error, and so is a file in a retired format (a v1/v2
    snapshot, a single-file journal at [journal]): it is refused with
    {!Journal.retired} and nothing is written. [io] (default
    {!Real_io.v}) is the backend both files are read through. *)

val recover :
  ?io:Io.t -> ?snapshot:string -> journal:string -> unit -> (state, string) result
(** {!load}, with a missing journal an error. *)

val render : state -> string
(** Operator-facing multi-line summary of the recovered state. *)
