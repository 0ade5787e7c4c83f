let fsync_dir dir =
  (* Directory fds cannot be opened for writing; O_RDONLY + fsync is the
     portable recipe on Linux. Some filesystems refuse to fsync a directory
     (EINVAL) — that is a property of the mount, not a caller bug, so it is
     swallowed: durability then degrades to what the filesystem offers. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let open_out_handle ~append path =
  let flags =
    Open_wronly :: Open_creat :: (if append then [ Open_append ] else [ Open_trunc ])
  in
  let oc = open_out_gen flags 0o644 path in
  {
    Io.write = (fun s -> output_string oc s);
    flush = (fun () -> flush oc);
    fsync =
      (fun () ->
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    close = (fun () -> close_out oc);
  }

let v =
  {
    Io.read_file =
      (fun path ->
        match In_channel.with_open_bin path In_channel.input_all with
        | text -> Ok text
        | exception Sys_error msg -> Error msg);
    file_exists = Sys.file_exists;
    file_size =
      (fun path ->
        match Unix.stat path with
        | st -> Some st.Unix.st_size
        | exception Unix.Unix_error _ -> None);
    open_out = open_out_handle;
    rename = (fun ~src ~dst -> Sys.rename src dst);
    fsync_dir;
    remove = Sys.remove;
    list_dir =
      (fun dir ->
        match Sys.readdir dir with
        | entries ->
            let l = Array.to_list entries in
            List.sort String.compare l
        | exception Sys_error _ -> []);
  }
