(** Checkpoint of the live service state.

    A snapshot lets recovery keep the journal short: after a successful
    snapshot the journal is truncated ({!Journal.truncate}) or its covered
    sealed segments retired ({!Journal.retire_sealed}), and only events
    after the snapshot's frontier need replaying.

    Format v3 holds, per tenant, the session's saved state
    ({!Dvbp_engine.Session.Saved}): what the tenant's future placements
    depend on — clock, counters, cost accumulator, the ids ever accepted,
    the policy's private state, and every open bin with its live items —
    and nothing of the departed past, so its size follows the live state,
    not the history — with one exception: the ids ever accepted, kept so
    a reused departed id stays refused. They are written as ranges (one
    range when a tenant's ids arrive in order) or, when shorter, as a
    bitmap of one bit per id between the least and the greatest. Each section ends with the session's
    {!Dvbp_engine.Session.fingerprint}, which recovery checks the restored
    session against. The file records its frontier (the number of events
    it covers) and the last covered event, which recovery matches against
    the journal, and ends with a CRC-32 row over every byte before it.

    {v
    # dvbp-snapshot v3
    policy,<name>
    seed,<int>
    capacity,<c1>,...,<cd>
    events,<N>
    last,<journal record of event N-1>        (absent when N = 0)
    tenant,<name>                              (one section per tenant,
    clock,<hex float>,<started 0|1>             in registration order)
    next,<next item>,<next bin>,<touch>,<max open>
    stats,<placements>,<departures>,<rejects>
    cost,<hex sum>,<hex compensation>
    ids[,<lo>-<hi>]...  or  idbits,<lo>,<hex bitmap>
    policy_state[,<int>]...
    bin,<id>,<opened_at hex>,<last_used>       (open bins, id order)
    item,<id>,<arrival hex>,<departure hex>,<s1>,...,<sd>
    fingerprint,<Session.fingerprint>
    crc,<8 hex digits>
    v}

    The v1 and v2 formats (a state digest per tenant plus the whole event
    history since genesis) are retired: {!of_string} refuses them with an
    error naming the format and the upgrade step ({!Journal.retired}).

    Snapshots are written atomically (temp file, fsync, rename), so unlike
    the journal a torn snapshot cannot exist; any parse failure on load is
    reported as corruption. *)

type section = {
  tenant : string;
  state : Dvbp_engine.Session.Saved.t;
  fingerprint : string;  (** {!Dvbp_engine.Session.fingerprint} at the write *)
}

type t = {
  policy : string;
  seed : int;
  capacity : Dvbp_vec.Vec.t;
  events : int;  (** the frontier: events since genesis the snapshot covers *)
  last : Journal.event option;  (** event [events - 1]; [None] iff [events = 0] *)
  sections : section list;  (** in the server's registration order *)
}

val of_sessions :
  policy:string ->
  seed:int ->
  capacity:Dvbp_vec.Vec.t ->
  events:int ->
  last:Journal.event option ->
  (string * Dvbp_engine.Session.t) list ->
  t
(** A v3 snapshot of the given tenant sessions, in the given order. *)

val to_string : t -> string
(** The v3 text. *)

val of_string : string -> (t, string) result
(** Reads v3. Fully validated; reports the offending line. A text whose
    CRC row does not match is refused whole. A v1 or v2 text is refused
    with {!Journal.retired}. *)

val write : ?io:Io.t -> path:string -> t -> unit
(** Atomic: temp file, fsync, rename, directory fsync (see
    {!Io.atomic_replace}). @raise Sys_error on IO failure (default backend). *)

val load : ?io:Io.t -> path:string -> unit -> (t, string) result
