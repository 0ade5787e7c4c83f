module Vec = Dvbp_vec.Vec
module Service = Dvbp_service

let ( let* ) = Result.bind

let parse_capacity s =
  let fields = String.split_on_char ',' (String.trim s) in
  let rec go = function
    | [] -> Ok []
    | f :: rest -> (
        match int_of_string_opt (String.trim f) with
        | Some x when x > 0 ->
            let* xs = go rest in
            Ok (x :: xs)
        | Some x -> Error (Printf.sprintf "capacity entries must be positive, got %d" x)
        | None -> Error (Printf.sprintf "bad capacity entry %S" f))
  in
  match go fields with
  | Error _ as e -> e
  | Ok [] -> Error "empty capacity"
  | Ok cs -> Ok (Vec.of_list cs)

type serve_opts = {
  policy : string;
  seed : int;
  capacity : string;
  journal : string option;
  snapshot : string option;
  snapshot_every : int option;
  jobs : int;
  segment_bytes : int option;
  retain_segments : int option;
  listen : string option;
  resume : bool;
  metrics_dump : string option;
}

let server_config (o : serve_opts) =
  let* capacity =
    Result.map_error (fun e -> "--capacity: " ^ e) (parse_capacity o.capacity)
  in
  Ok
    {
      Service.Server.policy = o.policy;
      seed = o.seed;
      capacity;
      journal = o.journal;
      snapshot = o.snapshot;
      snapshot_every = o.snapshot_every;
      fsync_every = 64 (* not read by the server *);
      jobs = o.jobs;
      segment_bytes = o.segment_bytes;
      retain_segments = o.retain_segments;
    }

(* One event loop either way: over [input]/[output] (stdin/stdout), or
   with --listen over a unix-domain socket accepting many concurrent
   clients until SIGTERM/SIGINT. The metrics dump is written before the
   socket path is removed. *)
let serve (o : serve_opts) input output =
  let* config = server_config o in
  let metrics = Service.Metrics.create () in
  let* server =
    let* resumed =
      if not o.resume then Ok None
      else if o.journal = None then Error "--resume requires --journal"
      else Service.Server.restart ~metrics config
    in
    (* a journal that holds nothing durable resumes as a fresh start *)
    match resumed with
    | Some server -> Ok server
    | None -> Service.Server.create ~metrics config
  in
  let dump () =
    match o.metrics_dump with
    | None -> ()
    | Some path ->
        let out = open_out path in
        output_string out (Service.Metrics.render_text metrics);
        output_char out '\n';
        close_out out
  in
  match o.listen with
  | None ->
      Service.Event_loop.serve ~stdio:(input, output) server;
      dump ();
      Ok ()
  | Some path -> (
      match
        let () = if Sys.file_exists path then Sys.remove path in
        let fd = Unix.socket ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        fd
      with
      | exception Unix.Unix_error (e, fn, _) ->
          Service.Server.close server;
          Error
            (Printf.sprintf "--listen %s: %s: %s" path fn (Unix.error_message e))
      | listen_fd ->
          Fun.protect
            ~finally:(fun () ->
              (try Unix.close listen_fd with Unix.Unix_error _ -> ());
              if Sys.file_exists path then Sys.remove path)
            (fun () ->
              Service.Event_loop.serve ~listen:listen_fd ~stop_when_drained:false
                server;
              dump ());
          Ok ())

(* one read of the journal and the snapshot; a journal holding nothing
   durable is an error here *)
let recovered ?io ?snapshot journal =
  let* state = Service.Recovery.load ?io ?snapshot ~journal () in
  match state with
  | Some state -> Ok state
  | None -> Error (Printf.sprintf "journal %s does not exist" journal)

let recover ~journal ~snapshot =
  let* state = recovered ?snapshot journal in
  Ok (Service.Recovery.render state)

(* [dvbp compact]: an offline checkpoint — recover the state the journal
   (and any prior snapshot) describes, then {!Service.Server.checkpoint}:
   seal the active segment, write a fresh snapshot at the recovered
   frontier, retire every sealed segment it covers. A serve --resume
   afterwards appends to the fresh active segment. *)
let compact ?io ~journal ~snapshot ?segment_bytes () =
  let* state = recovered ?io ~snapshot journal in
  let config =
    {
      Service.Server.policy = state.Service.Recovery.policy;
      seed = state.Service.Recovery.seed;
      capacity = state.Service.Recovery.capacity;
      journal = Some journal;
      snapshot = Some snapshot;
      snapshot_every = None;
      fsync_every = 64 (* not read by the server *);
      jobs = 1;
      segment_bytes;
      retain_segments = None;
    }
  in
  let* server = Service.Server.resume ?io config state in
  let outcome = Service.Server.checkpoint server in
  Service.Server.close server;
  let* path, retired = outcome in
  Ok
    (Printf.sprintf "compacted: snapshot %s covers %d events, %d sealed segment%s retired"
       path
       state.Service.Recovery.events
       retired
       (if retired = 1 then "" else "s"))

type loadgen_opts = {
  source : Workload_select.source;
  lg_policy : string;
  lg_seed : int;
  lg_journal : string option;
  lg_snapshot : string option;
  lg_snapshot_every : int option;
  lg_clients : int;
  lg_jobs : int;
  lg_window : int;
  lg_connect : string option;  (* drive an external --listen server *)
  emit : bool;
}

(* A binary --trace streams block by block (bounded memory, any length);
   everything else materialises an instance first. [--emit] still
   materialises even a binary trace — it has to print the whole script
   anyway. *)
let loadgen (o : loadgen_opts) =
  let module L = Service.Loadgen in
  let drive source =
    let transport =
      match o.lg_connect with
      | Some path -> L.Connect path
      | None ->
          L.In_process
            {
              L.journal = o.lg_journal;
              snapshot = o.lg_snapshot;
              snapshot_every = o.lg_snapshot_every;
              jobs = o.lg_jobs;
              segment_bytes = None;
              retain_segments = None;
            }
    in
    let* report =
      L.drive ~policy:o.lg_policy ~seed:o.lg_seed ~transport ~window:o.lg_window source
    in
    Ok (L.render report)
  in
  match o.source.Workload_select.trace with
  | Some path when (not o.emit) && Dvbp_tracestore.Trace_reader.sniff_magic path ->
      if o.lg_clients > 1 then
        Error "--clients > 1 is not supported when streaming a binary trace"
      else drive (L.Trace path)
  | _ ->
      let* instance = Workload_select.build o.source in
      if o.emit then Ok (String.concat "\n" (L.script instance) ^ "\n")
      else if o.lg_clients < 1 then
        Error
          (Printf.sprintf "--clients must be >= 1, got %d (one client is --clients 1)"
             o.lg_clients)
      else drive (L.Instances (List.init o.lg_clients (fun _ -> instance)))
