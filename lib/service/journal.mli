(** Append-only write-ahead log of session events, stored as a sequence of
    fixed-size {e segments}.

    The journal is the service's source of truth: every applied arrival and
    departure — together with the placement decision the policy made — is
    appended as one text record before the client sees the reply, so a
    crashed server can be rebuilt exactly (see {!Recovery}).

    {b On-disk layout.} A journal configured at [path] is the family of
    sibling files [path.NNNNNN.seg] (sealed) and [path.NNNNNN.seg.open]
    (active), each a {!Segment}: a header naming the policy/seed/capacity
    and the {e base} — the global index of the segment's first record —
    followed by record lines. Records stream into the single active
    segment; when it reaches [segment_bytes] it is {e sealed}: a
    [seal,<count>,<crc32>] footer is written, the content fsynced, the file
    renamed [.open] → [.seg], and a fresh active segment opened. Because
    the fsync precedes the rename, a sealed segment is complete by
    construction — any torn tail or CRC mismatch inside one is corruption
    and reading fails hard; only the active segment's unterminated final
    line is healed (dropped) after a crash.

    Recovery reads the {e chain}: the longest event-contiguous suffix of
    segments (each segment's base equals its predecessor's base + count).
    Files below a contiguity gap are stale leftovers of a crashed
    {!retire_sealed} or of a {!roll} that skipped ahead, and are deleted on
    the next {!append_to}; whether the snapshot actually covers the chain's
    base is {!Recovery}'s existing missing-records check.

    Sealing is what a checkpoint ({!Server.checkpoint}) trims by: it
    {!roll}s the active segment, writes the snapshot, then unlinks every
    sealed segment the snapshot covers ({!retire_sealed}). Every record at
    or below the snapshot's frontier is durable in a sealed segment before
    the snapshot exists, so the snapshot is never ahead of its journal.

    Record layout (see {!Record}):
    - [arrive,<tenant>,<t>,<item>,<bin>,<new01>,<s1>,...,<sd>,~<sum>]
    - [depart,<tenant>,<t>,<item>,~<sum>]

    [~<sum>] is a 16-bit checksum of the record body, so a torn final
    record in the {e active} segment is detected and dropped rather than
    misparsed.

    {b Retired formats.} The single-file journal that preceded segments
    ([# dvbp-journal v1]/[v2] magic, stored at [path] itself) is not
    read: any regular file at [path] makes {!load} fail ({!retired}), so
    a resume stops instead of starting fresh over it, and {!create}
    refuses it rather than wiping it. To upgrade such a
    journal, run [dvbp compact] with a build from commit [3660be8] or
    earlier, which rewrites it as segments.

    Durability: the server commits through {!append_batch} alone — one
    write and one [fsync(2)] per call, whatever its length, before any
    reply it covers is released — so no crash loses an acked record.
    The streaming {!append} (fsync every [fsync_every] records, plus on
    seal/{!sync}/{!close}) is kept for the benchmark harness's journal
    layer, which times single appends.

    All file access goes through an injectable {!Io} backend (default
    {!Real_io.v}); the deterministic simulation tests swap in a simulated
    filesystem that crashes at every I/O boundary — including every seal,
    rename, retire and directory fsync of this module. *)

type header = Record.header = {
  policy : string;  (** policy short name, as accepted by [Policy.of_name] *)
  seed : int;  (** root seed of the policy's rng (used by ["rf"]) *)
  capacity : Dvbp_vec.Vec.t;
  base : int;  (** events preceding this file (snapshotted prefix length) *)
}

type event = Record.event =
  | Arrive of {
      tenant : string;
      time : float;
      item_id : int;
      size : Dvbp_vec.Vec.t;
      bin_id : int;  (** the placement the live policy chose *)
      opened_new_bin : bool;
    }
  | Depart of { tenant : string; time : float; item_id : int }

val event_time : event -> float
val event_item : event -> int
val event_tenant : event -> string
val equal_event : event -> event -> bool
val pp_event : Format.formatter -> event -> unit

(** {1 Record codec} *)

val encode_event : event -> string
(** One v2 record line, checksum included, no trailing newline. *)

val decode_event : string -> (event, string) result
(** Inverse of {!encode_event}; validates syntax and checksum. The whole
    string is one record ({!Record.decode} reads one inside a larger
    text). *)

(** {1 Reading} *)

type read = {
  header : header;  (** [base] = index of the first event below *)
  events : event list;  (** journal order (oldest first) *)
  dropped_torn : bool;  (** the active segment's torn tail was dropped *)
}

val retired : string -> string
(** [retired format] is the error for a file in a retired on-disk
    format: it names [format] and the upgrade step, [dvbp compact] run
    with a build from commit [3660be8] or earlier. *)

type source
(** One read of the journal configured at a path: everything {!read_file}
    returns, plus what {!append_to} needs to reopen the writer without
    reading the files again. *)

val load : ?io:Io.t -> string -> (source option, string) result
(** Reads and parses every segment of the journal at [path] once. [Ok
    None] when there is nothing durable there — no segment whose header
    completed (exactly when {!exists} is [false]). Fails on corruption,
    including any damage inside a sealed segment, and on any regular file
    at [path] itself: a retired single-file journal is refused with
    {!retired}, never read, skipped or wiped. *)

val source_read : source -> read

val read_file : ?io:Io.t -> string -> (read, string) result
(** {!load}, failing with {!absent} when no segment is present. *)

val absent : string -> string
(** The error {!read_file} reports for a path holding no journal. *)

val exists : ?io:Io.t -> string -> bool
(** Whether [path] holds durable journal state a resume must consult: at
    least one readable segment. Unreadable segments and a file at [path]
    itself count as existing — corruption must surface as a resume error, not be
    shadowed by a fresh start. A {!load} that keeps only its outcome; the
    resume path calls {!load} directly. *)

(** {1 Writing} *)

type writer

val create :
  ?io:Io.t ->
  ?metrics:Metrics.t ->
  ?fsync_every:int ->
  ?segment_bytes:int ->
  path:string ->
  header ->
  writer
(** Starts a fresh journal at [path] and opens active segment [000000].
    A segment chain there that holds durable state — whenever {!exists}
    is [true], corrupt chains included — is refused, not removed: the
    error names [path] and [--resume], and nothing is written. Segment
    files whose header never completed (a crashed genesis) are removed. A
    regular file at [path] itself is refused too: it is a retired
    single-file journal (the error is {!retired}, as {!load} gives) or
    something that is not a journal at all. [fsync_every]
    (default [64]) batches the fsyncs of streaming {!append}s; [1] syncs
    every record. [segment_bytes]
    (default 1 MiB) is the roll threshold: an append that carries the
    active segment past it triggers a seal. [metrics] (default
    {!Metrics.noop}) receives append/fsync/seal/retire/heal tallies.
    @raise Sys_error on IO failure (with the default backend), on a
    durable chain and on a file at [path].
    @raise Invalid_argument if [fsync_every < 1], [segment_bytes < 64] or
    [header.base < 0]. *)

val append_to :
  ?io:Io.t ->
  ?metrics:Metrics.t ->
  ?segment_bytes:int ->
  ?source:source ->
  path:string ->
  header ->
  (writer * read, string) result
(** Re-opens an existing journal for appending after validating that its
    header equals [header] (a policy/capacity/seed mismatch is an error, not
    a silent divergence); returns the already-present records too. With
    [source] — a {!load} of [path] — the files are not read again as long
    as they are as the load found them: the same journal files, each of
    the same size. A source from another path, or one whose files have
    changed since (a write, or an earlier [append_to]), is ignored and the
    files are read here. Performs
    all resume-time maintenance: heals the active segment's torn tail
    (never a sealed segment's — that is corruption), completes seal renames
    a crash rolled back and deletes stale below-chain files. A missing
    journal is created fresh; a file at [path] is refused as by {!load}. *)

val append : writer -> event -> unit
(** Streaming append: one record, flushed to the OS; fsyncs per the
    [fsync_every] cadence, so a power cut may lose up to the last cadence
    window. The server never calls it; the benchmark harness's journal
    layer does. May seal the active segment and open the next one. *)

val append_batch : writer -> event list -> unit
(** Group commit: appends the whole batch as one buffered write and
    issues exactly {e one} fsync — after which every record in the batch
    (and any earlier unsynced streaming append; fsync covers the file) is
    durable. An empty batch is a no-op (no write, no fsync). Callers
    release replies only after this returns, so a power cut can never
    lose a batch-acked record. [fsync_every] does not apply: the batch is
    whatever the caller commits at once — one event run for
    {!Server.handle_batch}, at most one {!Event_loop} tick ([max_batch]
    lines). The roll check runs once per batch, so a segment may overshoot
    [segment_bytes] by at most one batch; a batch that fills the segment
    is made durable by the seal's own fsync ({!roll}), which covers the
    footer too, so a call costs one fsync either way. Refreshes the
    [dvbp_journal_live_bytes] and [dvbp_journal_segments] gauges. The
    batch is encoded through the writer's reused buffer, each record
    folded into the segment CRC as it is encoded, and the buffer is
    written as it is ({!Io.out.write_buffer}), so a call makes no string
    of its records. *)

val sync : writer -> unit
(** Forces an fsync now. *)

val roll : writer -> base:int -> unit
(** Seals the active segment — footer, fsync, rename [.open] → [.seg] —
    and opens the next active segment with its first record at [base],
    one directory fsync covering both. Appends call it with the frontier
    when a segment fills; a checkpoint calls it with the server's event
    count, which a resume may find above the journal's frontier (a
    snapshot ahead of its journal), so the next segment starts above a gap.
    A no-op when the active segment holds no records and is already based
    at [base].
    @raise Invalid_argument if [base] is below {!frontier}. *)

val retire_sealed : writer -> upto:int -> int
(** Unlinks sealed segments whose records all fall at or below event
    frontier [upto] (which a durable snapshot must cover), oldest first,
    then fsyncs the directory once. Returns the number retired; [0] when
    none qualify (never an error). *)

val close : writer -> unit
(** {!sync} then close. The writer is unusable afterwards. *)

val path : writer -> string

val appended : writer -> int
(** Records appended through this writer (excludes pre-existing ones). *)

val frontier : writer -> int
(** Global index one past the newest record ([base +] records written). *)

val sealed_segments : writer -> int
(** Sealed segments currently on disk (retire candidates). *)

val live_bytes : writer -> int
(** Total bytes across all live segment files, active included. *)
