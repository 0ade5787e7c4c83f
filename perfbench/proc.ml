(* Child processes, /proc readings and scratch files. Every process
   started here is registered, and an exiting harness kills and reaps
   whatever is still running. *)

let live : int list ref = ref []

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let reap pid =
  let status =
    match wait pid with
    | status -> status
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 255
  in
  live := List.filter (( <> ) pid) !live;
  status

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !live)

(* stdin is /dev/null, stderr is shared with the harness, stdout is
   [stdout] (default /dev/null) *)
let spawn ?stdout prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out = Option.value stdout ~default:null in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null out Unix.stderr)
  in
  live := pid :: !live;
  pid

(* false once the child has exited (it is reaped then) *)
let running pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
      live := List.filter (( <> ) pid) !live;
      false
  | exception Unix.Unix_error _ -> false

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Runs a child to completion: what it printed, its exit status and the
   CPU seconds it used. *)
let run_capture prog args =
  let cpu0 = children_cpu () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Fun.protect ~finally:(fun () -> Unix.close w) (fun () -> spawn ~stdout:w prog args) in
  let ic = Unix.in_channel_of_descr r in
  let out = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic) in
  let status = reap pid in
  (out, status, children_cpu () -. cpu0)

(* SIGTERM and reap; the CPU seconds the child used *)
let stop pid =
  let cpu0 = children_cpu () in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (reap pid);
  children_cpu () -. cpu0

(* VmHWM of a live process ([pid] may be "self"), in KiB *)
let vm_hwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> (
                 match String.split_on_char ' ' (String.trim v) with
                 | kb :: _ -> int_of_string_opt kb
                 | [] -> None)
             | _ -> None)
      |> Option.value ~default:0

(* threads of this process: 1 means no domain or systhread is running *)
let own_threads () = Array.length (Sys.readdir "/proc/self/task")

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

let file_bytes path = (Unix.stat path).Unix.st_size

let dir_bytes path =
  Array.fold_left
    (fun acc e ->
      match Unix.stat (Filename.concat path e) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc
      | exception Unix.Unix_error _ -> acc)
    0 (Sys.readdir path)
