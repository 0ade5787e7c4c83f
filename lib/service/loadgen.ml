module Vec = Dvbp_vec.Vec
module Rng = Dvbp_prelude.Rng
module Histogram = Dvbp_obs.Histogram
module Instance = Dvbp_core.Instance
module Item = Dvbp_core.Item
module Policy = Dvbp_core.Policy
module Session = Dvbp_engine.Session

type report = {
  events : int;
  wall_seconds : float;
  events_per_sec : float;
  latency_us : Histogram.snapshot;
  server_stats : string;
  server_metrics : string;
}

let ( let* ) = Result.bind

(* (time, kind, item): departures (kind 0) precede arrivals (kind 1) at the
   same instant — the engine's half-open interval convention *)
let events (instance : Instance.t) =
  List.concat_map
    (fun (r : Item.t) -> [ (r.Item.departure, 0, r); (r.Item.arrival, 1, r) ])
    instance.Instance.items
  |> List.sort (fun (ta, ka, (ra : Item.t)) (tb, kb, (rb : Item.t)) ->
         compare (ta, ka, ra.Item.id) (tb, kb, rb.Item.id))

let sizes_field size =
  String.concat "," (List.map string_of_int (Array.to_list (Vec.to_array size)))

(* [tenant = None] emits the un-prefixed (default tenant) grammar, pinning
   the compat contract alongside the tenant-prefixed form *)
let request_line ?tenant (time, kind, (r : Item.t)) =
  let prefix = match tenant with None -> "" | Some tn -> tn ^ " " in
  if kind = 1 then
    Printf.sprintf "ARRIVE %s%.17g %d %s" prefix time r.Item.id (sizes_field r.Item.size)
  else Printf.sprintf "DEPART %s%.17g %d" prefix time r.Item.id

let script instance = List.map (request_line ?tenant:None) (events instance)

(* the shadow session: the deterministic reference every reply is checked
   against — a server answering anything else is diverging *)
let expected_replies ?tenant ~policy ~seed (instance : Instance.t) =
  let tenant_name = Option.value tenant ~default:Tenant.default in
  let* p = Policy.of_name ~rng:(Tenant.rng ~seed tenant_name) policy in
  let session =
    Session.create ~capacity:instance.Instance.capacity ~policy:p ()
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | ((time, kind, (r : Item.t)) as ev) :: rest -> (
        let line = request_line ?tenant ev in
        match
          if kind = 1 then
            let pl = Session.arrive session ~at:time ~id:r.Item.id ~size:r.Item.size () in
            Printf.sprintf "PLACED %d %d" pl.Session.bin_id
              (if pl.Session.opened_new_bin then 1 else 0)
          else begin
            Session.depart session ~at:time ~item_id:r.Item.id;
            "OK"
          end
        with
        | reply -> go ((line, reply) :: acc) rest
        | exception Session.Session_error msg ->
            Error (Printf.sprintf "shadow session refused %S: %s" line msg))
  in
  go [] (events instance)

let run ~policy ~seed ?journal ?snapshot ?snapshot_every ?(fsync_every = 64)
    ?segment_bytes ?retain_segments (instance : Instance.t) =
  let* pairs = expected_replies ~policy ~seed instance in
  let* server =
    Server.create
      {
        Server.policy;
        seed;
        capacity = instance.Instance.capacity;
        journal;
        snapshot;
        snapshot_every;
        fsync_every;
        jobs = 1;
        segment_bytes;
        retain_segments;
      }
  in
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  let dom =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            close_out_noerr oc)
          (fun () -> Server.serve server ic oc))
  in
  let oc = Unix.out_channel_of_descr req_w in
  let ic = Unix.in_channel_of_descr resp_r in
  let request line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | reply -> Ok reply
    | exception End_of_file -> Error (Printf.sprintf "server died on %S" line)
  in
  (* read a METRICS reply: every line up to (excluding) the terminator *)
  let request_multiline line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    let buf = Buffer.create 4096 in
    let rec go () =
      match input_line ic with
      | "# EOF" -> Ok (Buffer.contents buf)
      | reply ->
          Buffer.add_string buf reply;
          Buffer.add_char buf '\n';
          go ()
      | exception End_of_file -> Error (Printf.sprintf "server died on %S" line)
    in
    go ()
  in
  let latency = Histogram.create () in
  let outcome =
    let rec drive = function
      | [] -> Ok ()
      | (line, expected) :: rest ->
          let t0 = Unix.gettimeofday () in
          let* reply = request line in
          Histogram.observe latency ((Unix.gettimeofday () -. t0) *. 1e6);
          if reply <> expected then
            Error
              (Printf.sprintf "divergence on %S: server said %S, shadow session says %S"
                 line reply expected)
          else drive rest
    in
    let t0 = Unix.gettimeofday () in
    let* () = drive pairs in
    let wall = Unix.gettimeofday () -. t0 in
    let* stats = request "STATS" in
    let* metrics_text = request_multiline "METRICS" in
    let* bye = request "QUIT" in
    let* () =
      if bye <> "BYE" then Error (Printf.sprintf "expected BYE, got %S" bye) else Ok ()
    in
    let n = List.length pairs in
    Ok
      {
        events = n;
        wall_seconds = wall;
        events_per_sec = (if wall > 0.0 then float_of_int n /. wall else 0.0);
        latency_us = Histogram.snapshot latency;
        server_stats = stats;
        server_metrics = metrics_text;
      }
  in
  close_out_noerr oc;
  close_in_noerr ic;
  Domain.join dom;
  outcome

(* {2 Multi-client driver} *)

type client_report = {
  tenant : string;
  client_events : int;
  client_latency_us : Histogram.snapshot;
}

type multi_report = {
  clients : int;
  jobs : int;
  total_events : int;
  mr_wall_seconds : float;
  mr_events_per_sec : float;
  mr_latency_us : Histogram.snapshot;
  per_client : client_report list;
  mr_server_stats : string;
  mr_server_metrics : string;
}

let client_tenant i = Printf.sprintf "t%d" i

exception Diverged of string

exception Died of string

(* Chunked pipelining over a blocking socket: write a window of requests
   in one syscall, bulk-read the window of replies, verify the whole
   window against the pre-joined shadow replies with a single string
   compare (the per-line path only runs on divergence or a dead server).
   Every reply in a window shares the window's wall time as its latency —
   each of them waited for the same group commit(s). Returns the number
   of verified replies; with [tolerate_death] a dead server ends the run
   normally at that count (the SIGKILL smoke drives a server that is
   killed mid-traffic on purpose). *)
(* Pre-joined pipelining windows: each is [(lo, hi, request_blob,
   expected_blob)] over [pairs.(lo..hi-1)]. Built by the callers *before*
   the throughput clock starts, so serialising the script is setup cost,
   not measured server time. *)
type prepped = { pc_pairs : (string * string) array; pc_windows : (int * int * string * string) list }

let prep_windows ~window pairs =
  let arr = Array.of_list pairs in
  let n = Array.length arr in
  let wins = ref [] in
  let i = ref 0 in
  let req = Buffer.create (window * 48) in
  let expected = Buffer.create (window * 12) in
  while !i < n do
    let hi = min n (!i + window) in
    Buffer.clear req;
    Buffer.clear expected;
    for k = !i to hi - 1 do
      Buffer.add_string req (fst arr.(k));
      Buffer.add_char req '\n';
      Buffer.add_string expected (snd arr.(k));
      Buffer.add_char expected '\n'
    done;
    wins := (!i, hi, Buffer.contents req, Buffer.contents expected) :: !wins;
    i := hi
  done;
  { pc_pairs = arr; pc_windows = List.rev !wins }

let drive_client ?(tolerate_death = false) fd prep hist =
  let arr = prep.pc_pairs in
  let n = Array.length arr in
  let completed = ref 0 in
  let inbuf = Bytes.create 65536 in
  let write_all s =
    let len = String.length s in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write_substring fd s !off (len - !off)
    done
  in
  (* slow path: line-by-line compare of whatever came back; a trailing
     torn line (server killed mid-reply) is not compared *)
  let verify_slow got lo hi =
    let lines =
      match List.rev (String.split_on_char '\n' got) with
      | _torn_or_empty :: rest -> List.rev rest
      | [] -> []
    in
    let k = ref lo in
    List.iter
      (fun line ->
        if !k < hi then begin
          if line <> snd arr.(!k) then
            raise
              (Diverged
                 (Printf.sprintf
                    "divergence on %S: server said %S, shadow session says %S"
                    (fst arr.(!k)) line (snd arr.(!k))));
          incr completed;
          incr k
        end)
      lines
  in
  let outcome =
    try
      List.iter
        (fun (lo, hi, req, expected) ->
          let want = hi - lo in
          let t0 = Unix.gettimeofday () in
          write_all req;
          let got = Buffer.create (String.length expected) in
          let seen = ref 0 in
          while !seen < want do
            match Unix.read fd inbuf 0 (Bytes.length inbuf) with
            | 0 ->
                verify_slow (Buffer.contents got) lo hi;
                raise
                  (Died
                     (Printf.sprintf "server died on %S"
                        (fst arr.(min !completed (n - 1)))))
            | r ->
                for j = 0 to r - 1 do
                  if Bytes.unsafe_get inbuf j = '\n' then incr seen
                done;
                Buffer.add_subbytes got inbuf 0 r
          done;
          let dt_us = (Unix.gettimeofday () -. t0) *. 1e6 in
          if
            String.length (Buffer.contents got) = String.length expected
            && String.equal (Buffer.contents got) expected
          then begin
            completed := !completed + want;
            Histogram.observe_n hist dt_us want
          end
          else verify_slow (Buffer.contents got) lo hi)
        prep.pc_windows;
      write_all "QUIT\n";
      let got = Buffer.create 8 in
      let eof = ref false in
      while (not !eof) && not (String.contains (Buffer.contents got) '\n') do
        match Unix.read fd inbuf 0 (Bytes.length inbuf) with
        | 0 -> eof := true
        | r -> Buffer.add_subbytes got inbuf 0 r
      done;
      (match String.split_on_char '\n' (Buffer.contents got) with
      | ("BYE" | "") :: _ | [] -> ()
      | reply :: _ ->
          raise (Diverged (Printf.sprintf "expected BYE, got %S" reply)));
      Ok !completed
    with
    | Diverged msg -> Error msg
    | Died msg -> if tolerate_death then Ok !completed else Error msg
    | Sys_error msg -> if tolerate_death then Ok !completed else Error msg
    | Unix.Unix_error (e, fn, _) ->
        if tolerate_death then Ok !completed
        else Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  outcome

(* Drive every client concurrently — one thread per (tenant, prepped
   windows, fd) triple — and return the per-client results in client
   order. Callers build the [prepped] values before starting the clock. *)
let run_clients ?tolerate_death clients =
  let arr = Array.of_list clients in
  let results =
    Array.map (fun ((tenant, _), _) -> (tenant, 0, Histogram.create (), Ok 0)) arr
  in
  let threads =
    Array.mapi
      (fun i ((tenant, prep), fd) ->
        Thread.create
          (fun () ->
            let hist = Histogram.create () in
            let outcome = drive_client ?tolerate_death fd prep hist in
            let n = match outcome with Ok c -> c | Error _ -> 0 in
            results.(i) <- (tenant, n, hist, outcome))
          ())
      arr
  in
  Array.iter Thread.join threads;
  Array.to_list results

let run_multi ~policy ~seed ?journal ?snapshot ?snapshot_every ?(fsync_every = 1024)
    ?segment_bytes ?retain_segments ?(jobs = 1) ?(window = 256)
    (instances : Instance.t list) =
  let* () = if instances = [] then Error "run_multi: no client instances" else Ok () in
  let capacity = (List.hd instances).Instance.capacity in
  let* () =
    if List.for_all (fun (i : Instance.t) -> Vec.equal i.Instance.capacity capacity) instances
    then Ok ()
    else Error "run_multi: client instances disagree on capacity"
  in
  let clients = List.length instances in
  let* scripts =
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | inst :: rest ->
          let tenant = client_tenant i in
          let* pairs = expected_replies ~tenant ~policy ~seed inst in
          go (i + 1) ((tenant, pairs) :: acc) rest
    in
    go 0 [] instances
  in
  let* server =
    Server.create
      {
        Server.policy;
        seed;
        capacity;
        journal;
        snapshot;
        snapshot_every;
        fsync_every;
        jobs;
        segment_bytes;
        retain_segments;
      }
  in
  (* one socketpair per client plus a control connection for the epilogue *)
  let endpoints =
    List.map
      (fun _ -> Unix.socketpair ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0)
      scripts
  in
  let ctl_client, ctl_server =
    Unix.socketpair ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let server_fds = List.map snd endpoints @ [ ctl_server ] in
  let server_dom =
    Domain.spawn (fun () -> Event_loop.serve ~conns:server_fds server)
  in
  (* one sys-thread per client, all in the calling domain: blocking socket
     I/O releases the runtime lock, so the clients still overlap with each
     other and with the server domain, without paying one OS-scheduled
     domain (plus its share of every stop-the-world pause) per client *)
  let preps =
    List.map (fun (tenant, pairs) -> (tenant, prep_windows ~window pairs)) scripts
  in
  let t0 = Unix.gettimeofday () in
  let finished = run_clients (List.combine preps (List.map fst endpoints)) in
  let wall = Unix.gettimeofday () -. t0 in
  (* epilogue on the control connection: stats + metrics, then release the
     loop (it stops once every connection is gone) *)
  let ctl_oc = Unix.out_channel_of_descr ctl_client in
  let ctl_ic = Unix.in_channel_of_descr ctl_client in
  let request line =
    output_string ctl_oc line;
    output_char ctl_oc '\n';
    flush ctl_oc;
    match input_line ctl_ic with
    | reply -> Ok reply
    | exception End_of_file -> Error (Printf.sprintf "server died on %S" line)
  in
  let request_multiline line =
    output_string ctl_oc line;
    output_char ctl_oc '\n';
    flush ctl_oc;
    let buf = Buffer.create 4096 in
    let rec go () =
      match input_line ctl_ic with
      | "# EOF" -> Ok (Buffer.contents buf)
      | reply ->
          Buffer.add_string buf reply;
          Buffer.add_char buf '\n';
          go ()
      | exception End_of_file -> Error (Printf.sprintf "server died on %S" line)
    in
    go ()
  in
  let epilogue =
    let* stats = request "STATS" in
    let* metrics_text = request_multiline "METRICS" in
    let* bye = request "QUIT" in
    let* () =
      if bye <> "BYE" then Error (Printf.sprintf "expected BYE, got %S" bye) else Ok ()
    in
    Ok (stats, metrics_text)
  in
  close_out_noerr ctl_oc;
  Domain.join server_dom;
  let* () =
    List.fold_left
      (fun acc (tenant, _, _, outcome) ->
        let* () = acc in
        match outcome with
        | Ok _ -> Ok ()
        | Error e -> Error (Printf.sprintf "client %s: %s" tenant e))
      (Ok ()) finished
  in
  let* stats, metrics_text = epilogue in
  let merged =
    List.fold_left
      (fun acc (_, _, hist, _) -> Histogram.merge acc hist)
      (Histogram.create ()) finished
  in
  let total = List.fold_left (fun acc (_, n, _, _) -> acc + n) 0 finished in
  Ok
    {
      clients;
      jobs;
      total_events = total;
      mr_wall_seconds = wall;
      mr_events_per_sec = (if wall > 0.0 then float_of_int total /. wall else 0.0);
      mr_latency_us = Histogram.snapshot merged;
      per_client =
        List.map
          (fun (tenant, n, hist, _) ->
            { tenant; client_events = n; client_latency_us = Histogram.snapshot hist })
          finished;
      mr_server_stats = stats;
      mr_server_metrics = metrics_text;
    }

(* External-server mode: connect [clients] sockets to a unix socket path
   served by an already-running [dvbp serve --listen]. Used by the CI kill
   smoke, so a server death mid-traffic is a normal outcome (clients report
   how far they got); a wrong reply is still an error. *)
let run_connect ~policy ~seed ~path ?(window = 256) (instances : Instance.t list) =
  let* () = if instances = [] then Error "run_connect: no client instances" else Ok () in
  let clients = List.length instances in
  let* scripts =
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | inst :: rest ->
          let tenant = client_tenant i in
          let* pairs = expected_replies ~tenant ~policy ~seed inst in
          go (i + 1) ((tenant, pairs) :: acc) rest
    in
    go 0 [] instances
  in
  let* fds =
    try
      Ok
        (List.map
           (fun _ ->
             let fd = Unix.socket ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
             Unix.connect fd (Unix.ADDR_UNIX path);
             fd)
           scripts)
    with Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "connect %s: %s: %s" path fn (Unix.error_message e))
  in
  let preps =
    List.map (fun (tenant, pairs) -> (tenant, prep_windows ~window pairs)) scripts
  in
  let t0 = Unix.gettimeofday () in
  let finished = run_clients ~tolerate_death:true (List.combine preps fds) in
  let wall = Unix.gettimeofday () -. t0 in
  let* () =
    List.fold_left
      (fun acc (tenant, _, _, outcome) ->
        let* () = acc in
        match outcome with
        | Ok _ -> Ok ()
        | Error e -> Error (Printf.sprintf "client %s: %s" tenant e))
      (Ok ()) finished
  in
  let merged =
    List.fold_left
      (fun acc (_, _, hist, _) -> Histogram.merge acc hist)
      (Histogram.create ()) finished
  in
  let total = List.fold_left (fun acc (_, n, _, _) -> acc + n) 0 finished in
  Ok
    {
      clients;
      jobs = 0;
      total_events = total;
      mr_wall_seconds = wall;
      mr_events_per_sec = (if wall > 0.0 then float_of_int total /. wall else 0.0);
      mr_latency_us = Histogram.snapshot merged;
      per_client =
        List.map
          (fun (tenant, n, hist, _) ->
            { tenant; client_events = n; client_latency_us = Histogram.snapshot hist })
          finished;
      mr_server_stats = "(external server)";
      mr_server_metrics = "";
    }

(* {2 Streaming trace driver} *)

module Trace_reader = Dvbp_tracestore.Trace_reader
module Binfmt = Dvbp_tracestore.Binfmt
module Replay = Dvbp_tracestore.Replay

type stream_report = {
  st_report : report;
  st_blocks : int;
  st_resident_bytes_max : int;
}

let stream_request_line (ev : Binfmt.event) =
  match ev.Binfmt.ev_kind with
  | `Arrive ->
      Printf.sprintf "ARRIVE %.17g %d %s" ev.Binfmt.ev_time ev.Binfmt.ev_id
        (String.concat ","
           (List.map string_of_int (Array.to_list ev.Binfmt.ev_size)))
  | `Depart -> Printf.sprintf "DEPART %.17g %d" ev.Binfmt.ev_time ev.Binfmt.ev_id

(* the incremental shadow: expected reply for one streamed event *)
let stream_expected shadow (ev : Binfmt.event) =
  match ev.Binfmt.ev_kind with
  | `Arrive ->
      let pl =
        Session.arrive shadow ~at:ev.Binfmt.ev_time ~id:ev.Binfmt.ev_id
          ~size:(Vec.of_array ev.Binfmt.ev_size) ()
      in
      Printf.sprintf "PLACED %d %d" pl.Session.bin_id
        (if pl.Session.opened_new_bin then 1 else 0)
  | `Depart ->
      Session.depart shadow ~at:ev.Binfmt.ev_time ~item_id:ev.Binfmt.ev_id;
      "OK"

(* Drive a server straight from a compiled binary trace, one block at a
   time, never materialising the instance: the shadow session advances
   event by event alongside the reader, and each block's requests are
   pipelined as one write / one verified bulk read. Memory is the
   reader's window plus one block of request/reply text plus the shadow's
   active items — independent of the trace length. *)
let run_stream ~policy ~seed ?journal ?snapshot ?snapshot_every
    ?(fsync_every = 64) ?connect ?probe path =
  let* reader = Trace_reader.open_file path in
  Fun.protect ~finally:(fun () -> Trace_reader.close reader) @@ fun () ->
  let header = Trace_reader.header reader in
  let capacity = header.Binfmt.capacity in
  (match probe with None -> () | Some p -> Replay.touch p reader);
  let* shadow_policy = Policy.of_name ~rng:(Tenant.rng ~seed Tenant.default) policy in
  let shadow =
    Session.create ~capacity ~policy:shadow_policy ()
  in
  (* transport: an in-process server on pipes (as in {!run}) or an
     external [serve --listen] unix socket *)
  let* ic, oc, join =
    match connect with
    | Some path -> (
        try
          let fd = Unix.socket ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          Ok
            ( Unix.in_channel_of_descr fd,
              Unix.out_channel_of_descr fd,
              fun () -> () )
        with Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "connect %s: %s: %s" path fn (Unix.error_message e)))
    | None ->
        let* server =
          Server.create
            {
              Server.policy;
              seed;
              capacity;
              journal;
              snapshot;
              snapshot_every;
              fsync_every;
              jobs = 1;
              segment_bytes = None;
              retain_segments = None;
            }
        in
        let req_r, req_w = Unix.pipe ~cloexec:false () in
        let resp_r, resp_w = Unix.pipe ~cloexec:false () in
        let dom =
          Domain.spawn (fun () ->
              let ic = Unix.in_channel_of_descr req_r in
              let oc = Unix.out_channel_of_descr resp_w in
              Fun.protect
                ~finally:(fun () ->
                  close_in_noerr ic;
                  close_out_noerr oc)
                (fun () -> Server.serve server ic oc))
        in
        Ok
          ( Unix.in_channel_of_descr resp_r,
            Unix.out_channel_of_descr req_w,
            fun () -> Domain.join dom )
  in
  let latency = Histogram.create () in
  let req = Buffer.create 65536 in
  let expected = Buffer.create 8192 in
  let events = ref 0 in
  let blocks = Trace_reader.blocks reader in
  let drive_block i =
    let* evs = Trace_reader.read_block reader i in
    Buffer.clear req;
    Buffer.clear expected;
    let* want =
      try
        List.iter
          (fun ev ->
            Buffer.add_string req (stream_request_line ev);
            Buffer.add_char req '\n';
            Buffer.add_string expected (stream_expected shadow ev);
            Buffer.add_char expected '\n')
          evs;
        Ok (List.length evs)
      with Session.Session_error msg ->
        Error (Printf.sprintf "shadow session refused block %d: %s" i msg)
    in
    let t0 = Unix.gettimeofday () in
    Buffer.output_buffer oc req;
    flush oc;
    let got = Buffer.create (Buffer.length expected) in
    let rec collect seen =
      if seen = want then Ok ()
      else
        match input_line ic with
        | line ->
            Buffer.add_string got line;
            Buffer.add_char got '\n';
            collect (seen + 1)
        | exception End_of_file ->
            Error (Printf.sprintf "server died in block %d" i)
    in
    let* () = collect 0 in
    Histogram.observe_n latency ((Unix.gettimeofday () -. t0) *. 1e6) want;
    if not (String.equal (Buffer.contents got) (Buffer.contents expected)) then
      (* re-derive the offending line for the error message *)
      let got_lines = String.split_on_char '\n' (Buffer.contents got) in
      let exp_lines = String.split_on_char '\n' (Buffer.contents expected) in
      let req_lines = String.split_on_char '\n' (Buffer.contents req) in
      let rec first_diff = function
        | g :: gs, e :: es, r :: rs ->
            if g <> e then (r, g, e) else first_diff (gs, es, rs)
        | _ -> ("?", "?", "?")
      in
      let r, g, e = first_diff (got_lines, exp_lines, req_lines) in
      Error
        (Printf.sprintf "divergence on %S: server said %S, shadow session says %S"
           r g e)
    else begin
      events := !events + want;
      (match probe with
      | None -> ()
      | Some p -> Replay.touch p ~events:want ~blocks:1 reader);
      Ok ()
    end
  in
  let request line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | reply -> Ok reply
    | exception End_of_file -> Error (Printf.sprintf "server died on %S" line)
  in
  let request_metrics () =
    output_string oc "METRICS\n";
    flush oc;
    let buf = Buffer.create 4096 in
    let rec go () =
      match input_line ic with
      | "# EOF" -> Ok (Buffer.contents buf)
      | reply ->
          Buffer.add_string buf reply;
          Buffer.add_char buf '\n';
          go ()
      | exception End_of_file -> Error "server died on METRICS"
    in
    go ()
  in
  let outcome =
    let t0 = Unix.gettimeofday () in
    let rec go i = if i = blocks then Ok () else let* () = drive_block i in go (i + 1) in
    let* () = go 0 in
    let wall = Unix.gettimeofday () -. t0 in
    let eps = if wall > 0.0 then float_of_int !events /. wall else 0.0 in
    (match probe with None -> () | Some p -> Replay.set_throughput p eps);
    let* stats, metrics_text =
      match connect with
      | Some _ -> Ok ("(external server)", "")
      | None ->
          let* stats = request "STATS" in
          let* metrics_text = request_metrics () in
          Ok (stats, metrics_text)
    in
    let* bye = request "QUIT" in
    let* () =
      if bye <> "BYE" then Error (Printf.sprintf "expected BYE, got %S" bye)
      else Ok ()
    in
    Ok
      {
        st_report =
          {
            events = !events;
            wall_seconds = wall;
            events_per_sec = eps;
            latency_us = Histogram.snapshot latency;
            server_stats = stats;
            server_metrics = metrics_text;
          };
        st_blocks = blocks;
        st_resident_bytes_max = Trace_reader.resident_bytes_max reader;
      }
  in
  close_out_noerr oc;
  close_in_noerr ic;
  join ();
  outcome

let render_latency lat =
  if lat.Histogram.n = 0 then "n/a"
  else
    Printf.sprintf "mean %.1f us, p50 %.1f us, p90 %.1f us, p99 %.1f us, max %.1f us"
      lat.Histogram.mean lat.Histogram.p50 lat.Histogram.p90 lat.Histogram.p99
      lat.Histogram.max_v

let render_multi r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "loadgen: %d clients, %d events in %.3f s -> %.0f events/s (jobs=%d)\n"
       r.clients r.total_events r.mr_wall_seconds r.mr_events_per_sec r.jobs);
  Buffer.add_string buf
    (Printf.sprintf "aggregate latency: %s\n" (render_latency r.mr_latency_us));
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  %s: %d events, %s\n" c.tenant c.client_events
           (render_latency c.client_latency_us)))
    r.per_client;
  Buffer.add_string buf (Printf.sprintf "server: %s\n" r.mr_server_stats);
  Buffer.contents buf

let render r =
  let lat = r.latency_us in
  let lat_line =
    if lat.Histogram.n = 0 then "latency: n/a"
    else
      Printf.sprintf
        "latency: mean %.1f us, p50 %.1f us, p90 %.1f us, p99 %.1f us, max %.1f us"
        lat.Histogram.mean lat.Histogram.p50 lat.Histogram.p90 lat.Histogram.p99
        lat.Histogram.max_v
  in
  Printf.sprintf
    "loadgen: %d events in %.3f s -> %.0f events/s\n%s\nserver: %s\n" r.events
    r.wall_seconds r.events_per_sec lat_line r.server_stats

let render_stream r =
  Printf.sprintf
    "trace replay: %d blocks streamed, reader resident window <= %d bytes\n%s"
    r.st_blocks r.st_resident_bytes_max (render r.st_report)
