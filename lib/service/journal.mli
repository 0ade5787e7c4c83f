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
    {!truncate}/{!retire_sealed} and are deleted on the next {!append_to};
    whether the snapshot actually covers the chain's base is {!Recovery}'s
    existing missing-records check.

    Sealing enables {e online compaction} ({!Server.compaction_step}):
    once a snapshot's durable frontier covers a sealed segment entirely,
    the segment is unlinked ({!retire_sealed}) without touching the active
    write path — disk stays bounded while the server keeps serving.

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

    Durability: the writer flushes every record to the OS ([write(2)]) as it
    is appended — a [SIGKILL] loses nothing already appended — and batches
    the much more expensive [fsync(2)] every [fsync_every] records (plus on
    seal/{!sync}/{!close}), so a power failure can lose at most the last
    batch.

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
    (default [64]) batches fsyncs; [1] syncs every record. [segment_bytes]
    (default 1 MiB) is the roll threshold: an append that carries the
    active segment past it triggers a seal. [metrics] (default
    {!Metrics.noop}) receives append/fsync/seal/retire/truncate/heal
    tallies.
    @raise Sys_error on IO failure (with the default backend), on a
    durable chain and on a file at [path].
    @raise Invalid_argument if [fsync_every < 1], [segment_bytes < 64] or
    [header.base < 0]. *)

val append_to :
  ?io:Io.t ->
  ?metrics:Metrics.t ->
  ?fsync_every:int ->
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
    [fsync_every] cadence (a power cut may lose up to the last cadence
    window of {e acked} records — the blocking server's contract). May
    seal the active segment and open the next one. *)

val append_batch : writer -> event list -> unit
(** Group commit: appends the whole batch as one buffered write and
    issues exactly {e one} fsync — after which every record in the batch
    (and any earlier unsynced streaming append; fsync covers the file) is
    durable. An empty batch is a no-op (no write, no fsync). Callers
    release replies only after this returns, so a power cut can never
    lose a batch-acked record. Batch sizing (the [fsync_every] per-batch
    ceiling) is the caller's job — see {!Server.handle_batch}. The roll
    check runs once per batch (after the fsync), so a segment may
    overshoot [segment_bytes] by at most one batch. The batch is encoded
    through the writer's reused buffer, so a call allocates only the
    string it writes. *)

val sync : writer -> unit
(** Forces an fsync now. *)

val truncate : writer -> new_base:int -> unit
(** Drops every segment: a snapshot absorbed the whole prefix. A fresh
    active segment with [base = new_base] is created and made durable
    {e before} the old files are unlinked, so a crash at any boundary
    leaves a readable chain. *)

val retire_sealed : ?max_segments:int -> writer -> upto:int -> int
(** Unlinks sealed segments whose records all fall at or below event
    frontier [upto] (which a durable snapshot must cover), oldest first,
    at most [max_segments] (default: all eligible) per call — the bounded
    unit of online compaction. Returns the number retired; [0] when none
    qualify (never an error). *)

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
