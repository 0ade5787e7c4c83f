(** The one serve loop: a [select(2)]-based event loop feeding
    {!Server.handle_batch}, for unix-socket clients and for stdin/stdout
    alike.

    One loop tick = read every readable connection, drain the complete
    lines round-robin across connections into a single batch (per-
    connection FIFO is preserved; at most [max_batch] lines per tick),
    hand the batch to {!Server.handle_batch} — which journals all applied
    events and issues the group-commit fsync {e before} returning — and
    only then queue the replies onto their connections. An acked event is
    therefore always durable, and the fsync cost is shared by the whole
    batch: the busier the server, the cheaper each event's durability.

    Backpressure: a connection with more than 1 MiB of unsent replies is
    not read until its peer takes them.

    Isolation: a malformed line or a rejected arrival answers on its own
    connection and affects nothing else; a client that disconnects
    mid-batch loses only its own replies. QUIT (or EOF) closes just that
    connection after its pending replies flush: once a QUIT line is
    batched, the lines behind it on that connection are neither applied
    nor answered ({!Server.quits}).

    Determinism: the loop itself only moves bytes; all packing and
    journaling happen in {!Server.handle_batch}, whose per-tenant results
    are bit-identical for any shard count and which the deterministic
    simulation tests drive directly (no sockets). File I/O stays behind
    the server's injectable {!Io} backend. *)

val serve :
  ?max_batch:int ->
  ?listen:Unix.file_descr ->
  ?conns:Unix.file_descr list ->
  ?stdio:Unix.file_descr * Unix.file_descr ->
  ?stop_when_drained:bool ->
  Server.t ->
  unit
(** Runs the loop on the calling domain until it stops; closes the server
    (journal sync) on the way out.

    - [max_batch] (default [16384]): cap on lines per
      {!Server.handle_batch} call; excess stays queued for the next tick.
    - [listen]: a bound, listening socket to accept new connections from.
    - [conns]: already-connected bidirectional fds (socketpairs in the
      loadgen, accepted sockets otherwise). All fds are set nonblocking
      and closed when their connection ends.
    - [stdio]: one more connection that reads requests from the first fd
      and writes replies to the second — [(Unix.stdin, Unix.stdout)] for
      [dvbp serve] without [--listen]. Both are set nonblocking while it
      is served and put back in blocking mode, not closed, when it ends:
      the open file description is shared with the parent shell. Regular
      files work too: they are always ready, and a read at the end of one
      is EOF.
    - [stop_when_drained] (default [true]): return once at least one
      connection has existed and all are gone — the termination condition
      of the stdio server and of the in-process loadgen, with or without
      a [listen] socket. With [false] the loop serves until it is
      signalled, as [dvbp serve --listen] does.

    SIGPIPE is ignored (peer death must surface as an [EPIPE] on that one
    connection, not kill the server). On the main domain, SIGTERM and
    SIGINT make the loop return at its next tick, closing every
    connection and the server, so the journal is synced; the previous
    handlers are put back on return. *)

(** {2 Request framing}

    One connection's input side as {!serve} drives it, exposed so tests
    can check the input bound directly. *)

type conn

val make_conn : Unix.file_descr -> conn
(** Sets the fd nonblocking. *)

val read_chunk : conn -> unit
(** One nonblocking read into the connection's input buffer, then queue
    every complete line. A line over {!Server.max_line} bytes refuses the
    connection: nothing more is read from it. *)

val input_capacity : conn -> int
(** Bytes allocated for the connection's input; never over
    [2 * Server.max_line]. *)

val refused : conn -> bool
(** A line over {!Server.max_line} bytes arrived and its ERR is not yet
    queued. *)
