module Rng = Dvbp_prelude.Rng
module Io = Dvbp_service.Io

exception Crash

type mode =
  | Lose_unsynced
  | Keep_unsynced
  | Torn
  | Directed of {
      keep_rename : dst:string -> bool;
      keep_create : path:string -> bool;
      keep_remove : path:string -> bool;
      tear : path:string -> synced:int -> length:int -> int;
    }

let mode_name = function
  | Lose_unsynced -> "lose"
  | Keep_unsynced -> "keep"
  | Torn -> "torn"
  | Directed _ -> "directed"

(* one inode: [data] is the OS-cache view (what a live process reads),
   [synced] the prefix length guaranteed to survive a power cut *)
type file = { mutable data : string; mutable synced : int }

(* a rename (or creation) is a directory-entry change: durable only after
   fsync_dir on the containing directory, else resolved by the crash mode *)
type pending_rename = {
  pr_src : string;
  pr_dst : string;
  pr_prev_dst : file option;
  pr_moved : file;
}

type handle = { h_path : string; h_file : file; h_buf : Buffer.t; mutable h_open : bool }

type t = {
  rng : Rng.t;
  live : (string, file) Hashtbl.t;
  mutable pending_renames : pending_rename list; (* newest first *)
  mutable pending_creates : (string * file) list;
  mutable pending_removes : (string * file) list; (* newest first *)
  mutable handles : handle list;
  mutable op_count : int;
  mutable planned : int option;
  mutable dead : bool;
}

let create ?(seed = 0) () =
  {
    rng = Rng.create ~seed;
    live = Hashtbl.create 16;
    pending_renames = [];
    pending_creates = [];
    pending_removes = [];
    handles = [];
    op_count = 0;
    planned = None;
    dead = false;
  }

let ops t = t.op_count
let plan_crash t ~at_op = t.planned <- Some at_op

let ensure_alive t = if t.dead then raise Crash

(* Every mutating operation is an I/O boundary: a planned crash fires
   *before* the operation takes effect, and once crashed every further
   operation raises too (the process is dead until [crash] reboots). Reads
   are not boundaries — crashing before a read is indistinguishable from
   crashing before the next write. *)
let boundary t =
  ensure_alive t;
  (match t.planned with
  | Some k when t.op_count >= k ->
      t.dead <- true;
      raise Crash
  | Some _ | None -> ());
  t.op_count <- t.op_count + 1

let dirname = Filename.dirname

let open_out_sim t ~append path =
  boundary t;
  let file =
    match Hashtbl.find_opt t.live path with
    | Some f ->
        if not append then begin
          (* truncation simplification: the old contents are gone even at a
             crash (service code only ever truncates fresh ".tmp" files,
             whose stale contents are never read back) *)
          f.data <- "";
          f.synced <- 0
        end;
        f
    | None ->
        let f = { data = ""; synced = 0 } in
        Hashtbl.replace t.live path f;
        t.pending_creates <- (path, f) :: t.pending_creates;
        f
  in
  let h = { h_path = path; h_file = file; h_buf = Buffer.create 256; h_open = true } in
  t.handles <- h :: t.handles;
  let check_h () =
    if not h.h_open then
      failwith (Printf.sprintf "sim_fs: handle on %s used after close or crash" h.h_path)
  in
  let do_flush () =
    file.data <- file.data ^ Buffer.contents h.h_buf;
    Buffer.clear h.h_buf
  in
  {
    Io.write =
      (fun s ->
        boundary t;
        check_h ();
        Buffer.add_string h.h_buf s);
    flush =
      (fun () ->
        boundary t;
        check_h ();
        do_flush ());
    fsync =
      (fun () ->
        boundary t;
        check_h ();
        do_flush ();
        file.synced <- String.length file.data);
    close =
      (fun () ->
        boundary t;
        check_h ();
        do_flush ();
        h.h_open <- false);
  }

let io t =
  {
    Io.read_file =
      (fun path ->
        ensure_alive t;
        match Hashtbl.find_opt t.live path with
        | Some f -> Ok f.data
        | None -> Error (Printf.sprintf "%s: no such file (simulated)" path));
    file_exists =
      (fun path ->
        ensure_alive t;
        Hashtbl.mem t.live path);
    file_size =
      (fun path ->
        ensure_alive t;
        Option.map (fun f -> String.length f.data) (Hashtbl.find_opt t.live path));
    open_out = (fun ~append path -> open_out_sim t ~append path);
    rename =
      (fun ~src ~dst ->
        boundary t;
        match Hashtbl.find_opt t.live src with
        | None -> failwith (Printf.sprintf "sim_fs: rename of missing file %s" src)
        | Some f ->
            let prev = Hashtbl.find_opt t.live dst in
            Hashtbl.remove t.live src;
            Hashtbl.replace t.live dst f;
            t.pending_renames <-
              { pr_src = src; pr_dst = dst; pr_prev_dst = prev; pr_moved = f }
              :: t.pending_renames);
    fsync_dir =
      (fun dir ->
        boundary t;
        t.pending_renames <-
          List.filter (fun pr -> dirname pr.pr_dst <> dir) t.pending_renames;
        t.pending_creates <-
          List.filter (fun (path, _) -> dirname path <> dir) t.pending_creates;
        t.pending_removes <-
          List.filter (fun (path, _) -> dirname path <> dir) t.pending_removes);
    remove =
      (fun path ->
        boundary t;
        (* an unlink is a directory-entry change like a rename: durable only
           after fsync_dir, else the crash mode decides whether the entry is
           really gone *)
        match Hashtbl.find_opt t.live path with
        | None -> ()
        | Some f ->
            Hashtbl.remove t.live path;
            t.pending_removes <- (path, f) :: t.pending_removes);
    list_dir =
      (fun dir ->
        ensure_alive t;
        Hashtbl.fold
          (fun path _ acc ->
            if dirname path = dir then Filename.basename path :: acc else acc)
          t.live []
        |> List.sort String.compare);
  }

let crash t ~mode =
  (* reboot: the dead process's buffers vanish, un-dirsynced directory
     entries and unsynced bytes are resolved by [mode] *)
  t.dead <- false;
  t.planned <- None;
  List.iter
    (fun h ->
      h.h_open <- false;
      Buffer.clear h.h_buf)
    t.handles;
  t.handles <- [];
  (* removes first: a rolled-back unlink resurrects the file — unless a
     newer entry occupies the path (crashed unlink-then-recreate leaves the
     old or the new entry, never both). Resurrection precedes the create
     pass so a file whose creation also rolls back is dropped again below. *)
  List.iter
    (fun (path, f) ->
      let keep =
        match mode with
        | Lose_unsynced -> false
        | Keep_unsynced -> true
        | Torn -> Rng.bool t.rng
        | Directed d -> d.keep_remove ~path
      in
      if (not keep) && not (Hashtbl.mem t.live path) then Hashtbl.replace t.live path f)
    t.pending_removes;
  t.pending_removes <- [];
  (* directory entries: renames newest first, so shadowed renames only roll
     back if their destination still points at the file they moved *)
  let kept_renames =
    List.filter
      (fun pr ->
        let keep =
          match mode with
          | Lose_unsynced -> false
          | Keep_unsynced -> true
          | Torn -> Rng.bool t.rng
          | Directed d -> d.keep_rename ~dst:pr.pr_dst
        in
        (if not keep then
           match Hashtbl.find_opt t.live pr.pr_dst with
           | Some f when f == pr.pr_moved ->
               (match pr.pr_prev_dst with
               | Some prev -> Hashtbl.replace t.live pr.pr_dst prev
               | None -> Hashtbl.remove t.live pr.pr_dst);
               Hashtbl.replace t.live pr.pr_src pr.pr_moved
           | Some _ | None -> ());
        keep)
      t.pending_renames
  in
  t.pending_renames <- [];
  List.iter
    (fun (path, f) ->
      let keep =
        match mode with
        | Lose_unsynced -> false
        | Keep_unsynced -> true
        | Torn -> Rng.bool t.rng
        | Directed d -> d.keep_create ~path
      in
      if not keep then
        (* the inode never became durable: drop its directory entries. An
           entry installed over an existing file by a kept rename falls back
           to the file it replaced — a crashed rename(2) leaves the old or
           the new entry, never a dangling one — so atomic replacement of a
           durable file surfaces old or new content, never neither. *)
        Hashtbl.fold (fun p f' acc -> if f' == f then p :: acc else acc) t.live []
        |> List.iter (fun p ->
               match
                 List.find_opt
                   (fun pr -> pr.pr_dst = p && pr.pr_moved == f)
                   kept_renames
               with
               | Some { pr_prev_dst = Some prev; _ } -> Hashtbl.replace t.live p prev
               | Some { pr_prev_dst = None; _ } | None -> Hashtbl.remove t.live p))
    t.pending_creates;
  t.pending_creates <- [];
  (* contents: the synced prefix survives; the unsynced suffix is torn at a
     byte offset chosen by the mode *)
  Hashtbl.iter
    (fun path f ->
      let len = String.length f.data in
      let durable =
        match mode with
        | Lose_unsynced -> f.synced
        | Keep_unsynced -> len
        | Torn -> f.synced + Rng.int t.rng (len - f.synced + 1)
        | Directed d -> d.tear ~path ~synced:f.synced ~length:len
      in
      let durable = if durable < f.synced then f.synced else if durable > len then len else durable in
      f.data <- String.sub f.data 0 durable;
      f.synced <- durable)
    t.live

let exists t path = Hashtbl.mem t.live path

let contents t path =
  match Hashtbl.find_opt t.live path with Some f -> Some f.data | None -> None

let dump t =
  Hashtbl.fold (fun path f acc -> (path, f.data) :: acc) t.live []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
