(** Rebuild live tenant sessions from snapshot + journal, verifying as it
    goes.

    The recovery invariant: replaying the recorded event history through
    fresh deterministic sessions must reproduce {e exactly} the placements
    the original server recorded — same bin id, same opened-new-bin flag,
    event by event. Sessions are deterministic (the golden tests pin this)
    and tenant shard/rng assignment is a pure function of the tenant name
    ({!Tenant}), so any deviation means the files are corrupt, were produced
    by a different policy/seed/capacity, or the library's behaviour changed;
    all three must be a hard error, never silent divergence.

    Order of operations:
    + load the snapshot if one exists (its absence is fine: the journal then
      must start at event 0);
    + replay the snapshot's history (arrival order across tenants, each
      event routed to its tenant's session, sessions created on first
      touch), verifying each recorded placement;
    + cross-check every rebuilt session against the snapshot's per-tenant
      state digests (clock, cost, bins opened, open bins with occupants) —
      both directions: a digest without a matching session is checked
      against a fresh zero-state one, a touched tenant without a digest is
      an error;
    + replay the journal suffix (records the snapshot has already absorbed
      are skipped after checking they match the snapshot history), verifying
      each recorded placement.

    The returned sessions are live: a server can resume serving from them. *)

type state = {
  sessions : (string * Dvbp_engine.Session.t) list;
      (** tenant sessions in first-appearance order; the {!Tenant.default}
          session always exists and comes first *)
  policy : string;
  seed : int;
  capacity : Dvbp_vec.Vec.t;
  history : Journal.event list;
      (** every applied event since genesis, in order — what the next
          snapshot must record *)
  from_snapshot : int;  (** events restored via the snapshot's history *)
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
    journal is an error. [io] (default {!Real_io.v}) is the backend both
    files are read through. *)

val recover :
  ?io:Io.t -> ?snapshot:string -> journal:string -> unit -> (state, string) result
(** {!load}, with a missing journal an error. *)

val render : state -> string
(** Operator-facing multi-line summary of the recovered state. *)
