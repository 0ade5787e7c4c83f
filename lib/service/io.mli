(** Injectable file-I/O backend for the service layer.

    Everything {!Journal}, {!Snapshot} and {!Recovery} do to the filesystem
    goes through one of these records, so the same code runs against the
    real filesystem ({!Real_io}) and against the deterministic simulated
    filesystem used for crash testing ([Dvbp_sim.Sim_fs]), which can tear
    writes, lose unsynced data and roll back renames at any I/O boundary.

    The contract distinguishes three durability levels, mirroring POSIX:
    - {!out.write} (and {!out.write_buffer}) buffers in the process —
      lost on any crash;
    - {!out.flush} hands the bytes to the OS ([write(2)]) — they survive a
      process kill ([SIGKILL]) but not a power cut;
    - {!out.fsync} makes them durable ([fsync(2)]).

    File {e contents} and directory {e entries} are durable independently: a
    rename (or creation) is only guaranteed to survive a power cut after
    {!t.fsync_dir} on the containing directory. {!atomic_replace} sequences
    all of this correctly and is the one way service code replaces a file. *)

type out = {
  write : string -> unit;  (** buffer bytes in the process *)
  write_buffer : Buffer.t -> unit;
      (** {!out.write} of the buffer's contents, read in place: no string of
          them is made. One I/O boundary, like {!out.write}. *)
  flush : unit -> unit;  (** push buffered bytes to the OS *)
  fsync : unit -> unit;  (** flush, then make the contents durable *)
  close : unit -> unit;  (** flushes; does {e not} fsync *)
}
(** An open file handle (write side). *)

type t = {
  read_file : string -> (string, string) result;
      (** whole contents; [Error] for a missing or unreadable file *)
  file_exists : string -> bool;
  file_size : string -> int option;
      (** the size {!read_file} would return the contents at; [None] for a
          missing file *)
  open_out : append:bool -> string -> out;
      (** creates if missing; truncates unless [append] *)
  rename : src:string -> dst:string -> unit;
  fsync_dir : string -> unit;
      (** make the directory's entries (creations, renames) durable *)
  remove : string -> unit;
  list_dir : string -> string list;
      (** entry basenames, sorted; [[]] for a missing directory. The
          segmented journal scans its directory through this, so the
          simulated backend can expose crash-resolved entry states. *)
}

val close_noerr : out -> unit

val atomic_replace : t -> path:string -> string -> unit
(** [atomic_replace io ~path content]: write [content] to [path ^ ".tmp"],
    fsync it, close, rename over [path], fsync the parent directory. After a
    crash at any point the reader sees either the old file or the new one,
    never a mixture; once this returns, the new contents are durable. *)
