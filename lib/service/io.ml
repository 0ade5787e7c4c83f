type out = {
  write : string -> unit;
  flush : unit -> unit;
  fsync : unit -> unit;
  close : unit -> unit;
}

type t = {
  read_file : string -> (string, string) result;
  file_exists : string -> bool;
  file_size : string -> int option;
  open_out : append:bool -> string -> out;
  rename : src:string -> dst:string -> unit;
  fsync_dir : string -> unit;
  remove : string -> unit;
  list_dir : string -> string list;
}

let close_noerr o = try o.close () with _ -> ()

(* write content to a temp file, fsync, rename over [path], fsync the
   parent directory — the file is never observable in a half-written state,
   and the rename itself is durable (a rename without a directory fsync may
   be rolled back by a power cut) *)
let atomic_replace io ~path content =
  let tmp = path ^ ".tmp" in
  let o = io.open_out ~append:false tmp in
  (match
     o.write content;
     o.fsync ()
   with
  | () -> o.close ()
  | exception e ->
      close_noerr o;
      raise e);
  io.rename ~src:tmp ~dst:path;
  io.fsync_dir (Filename.dirname path)
