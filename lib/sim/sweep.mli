(** Exhaustive crash-point sweep over the serve → journal → snapshot path.

    One uninterrupted run of a canonical workload over {!Sim_fs} fixes the
    number of I/O boundaries [B], the event count, and the reference final
    state ({!Dvbp_engine.Session.fingerprint}); a journal-less reference
    server fed the same lines records the fingerprints after every event. Then, for
    {e every} boundary [k < B] and every blanket crash mode (lose-unsynced,
    keep-unsynced, torn), the same run is repeated with a crash planted at
    [k]; after the power cut the surviving files are recovered, the
    remainder of the workload is replayed through a resumed server, and the
    final fingerprint must equal the reference bit for bit. Along the way
    a recovery of [m] events must keep every event acked before the crash
    and reproduce, tenant by tenant, the reference fingerprints after [m]
    events, and every replayed request must be accepted.

    A rolled-back journal creation (nothing durable ever existed) is
    handled the way an operator would: start a fresh server and replay the
    whole workload.

    Failures are collected, not thrown — the callers assert [failures = []]
    (or, for the sensitivity smoke with a sabotaged backend, that failures
    are present). *)

type failure = { boundary : int; mode : string; message : string }

type outcome = {
  boundaries : int;  (** I/O boundaries in the uninterrupted run *)
  scenarios : int;  (** boundaries x crash modes *)
  events : int;  (** events the uninterrupted run applied *)
  failures : failure list;
}

val run :
  ?policy:string ->
  ?seed:int ->
  ?n:int ->
  ?snapshot_every:int option ->
  ?snapshot:bool ->
  ?segment_bytes:int ->
  ?retain_segments:int ->
  ?wrap:(Dvbp_service.Io.t -> Dvbp_service.Io.t) ->
  ?batch:int ->
  ?tenants:int ->
  ?jobs:int ->
  unit ->
  outcome
(** Defaults: [policy = "mtf"], [seed = 11], [n = 12] items,
    [snapshot_every = Some 5] (so checkpoints land inside the sweep;
    [None] leaves only the [retain_segments] trigger), [batch = 1].
    [wrap] decorates the simulated
    backend — the sensitivity smoke uses it to sabotage the torn-record
    guard and prove the sweep notices.

    [segment_bytes] shrinks the journal's segment roll threshold so seals
    land inside the sweep; [retain_segments] arms the sealed-segment
    checkpoint trigger, which the server fires inside the commit of the
    line (or event run) that crossed it — every segment
    open/seal/rename/retire/dir-sync boundary becomes a swept crash point. [snapshot = false] strips the
    snapshot path entirely (and [snapshot_every] with it): recovery then
    leans on the journal chain alone, which the seal-sensitivity smoke
    uses to prove a defeated seal check is caught.

    Lines go through {!Dvbp_service.Server.handle_batch}, [batch] per
    call, so every crash boundary inside
    {!Dvbp_service.Journal.append_batch}'s write+fsync is swept — a crash
    may lose only un-acked events. [tenants > 1]
    round-robins the workload across that many tenants with the
    tenant-prefixed grammar (each tenant an isolated session); [jobs]
    shards the batch path over domains — final states must stay
    bit-identical to [jobs = 1]. *)

val render : outcome -> string
(** One-line summary plus the first few failures. *)
