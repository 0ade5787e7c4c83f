module Vec = Dvbp_vec.Vec
module Rng = Dvbp_prelude.Rng
module Histogram = Dvbp_obs.Histogram
module Instance = Dvbp_core.Instance
module Item = Dvbp_core.Item
module Policy = Dvbp_core.Policy
module Session = Dvbp_engine.Session
module Trace_reader = Dvbp_tracestore.Trace_reader
module Binfmt = Dvbp_tracestore.Binfmt

type client_report = {
  tenant : string;
  client_events : int;
  client_attempted : int;
  client_latency_us : Histogram.snapshot;
}

type trace_stats = { blocks : int; resident_bytes_max : int }

type report = {
  events : int;
  wall_seconds : float;
  events_per_sec : float;
  latency_us : Histogram.snapshot;
  clients : client_report list;
  trace : trace_stats option;
  server_stats : string;
  server_metrics : string;
}

let ( let* ) = Result.bind

(* Every arrival and departure as a trace event, in protocol order:
   departures precede arrivals at the same instant — the engine's
   half-open interval convention *)
let events (instance : Instance.t) =
  let rank (ev : Binfmt.event) = match ev.Binfmt.ev_kind with `Depart -> 0 | `Arrive -> 1 in
  List.concat_map
    (fun (r : Item.t) ->
      let ev_size = Vec.to_array r.Item.size in
      let ev ev_kind ev_time = { Binfmt.ev_time; ev_kind; ev_id = r.Item.id; ev_size } in
      [ ev `Depart r.Item.departure; ev `Arrive r.Item.arrival ])
    instance.Instance.items
  |> List.sort (fun (a : Binfmt.event) (b : Binfmt.event) ->
         compare
           (a.Binfmt.ev_time, rank a, a.Binfmt.ev_id)
           (b.Binfmt.ev_time, rank b, b.Binfmt.ev_id))

(* [tenant = None] emits the un-prefixed (default tenant) grammar, pinning
   the compat contract alongside the tenant-prefixed form *)
let request_line ?tenant (ev : Binfmt.event) =
  let prefix = match tenant with None -> "" | Some tn -> tn ^ " " in
  match ev.Binfmt.ev_kind with
  | `Arrive ->
      Printf.sprintf "ARRIVE %s%.17g %d %s" prefix ev.Binfmt.ev_time ev.Binfmt.ev_id
        (String.concat "," (List.map string_of_int (Array.to_list ev.Binfmt.ev_size)))
  | `Depart -> Printf.sprintf "DEPART %s%.17g %d" prefix ev.Binfmt.ev_time ev.Binfmt.ev_id

let script instance = List.map (request_line ?tenant:None) (events instance)

(* the shadow session: the deterministic reference every reply is checked
   against — a server answering anything else is diverging *)
let shadow_reply session (ev : Binfmt.event) =
  match ev.Binfmt.ev_kind with
  | `Arrive ->
      let pl =
        Session.arrive session ~at:ev.Binfmt.ev_time ~id:ev.Binfmt.ev_id
          ~size:(Vec.of_array ev.Binfmt.ev_size) ()
      in
      Printf.sprintf "PLACED %d %d" pl.Session.bin_id
        (if pl.Session.opened_new_bin then 1 else 0)
  | `Depart ->
      Session.depart session ~at:ev.Binfmt.ev_time ~item_id:ev.Binfmt.ev_id;
      "OK"

let shadow_session ~policy ~seed ~tenant capacity =
  let* p = Policy.of_name ~rng:(Tenant.rng ~seed tenant) policy in
  Ok (Session.create ~capacity ~policy:p ())

let expected_replies ?tenant ~policy ~seed (instance : Instance.t) =
  let* session =
    shadow_session ~policy ~seed
      ~tenant:(Option.value tenant ~default:Tenant.default)
      instance.Instance.capacity
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | ev :: rest -> (
        let line = request_line ?tenant ev in
        match shadow_reply session ev with
        | reply -> go ((line, reply) :: acc) rest
        | exception Session.Session_error msg ->
            Error (Printf.sprintf "shadow session refused %S: %s" line msg))
  in
  go [] (events instance)

(* The closing conversation over a blocking channel pair: the server's
   final STATS line and METRICS exposition (without its [# EOF]), then
   QUIT. *)
let epilogue ic oc =
  let send line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let died line = Error (Printf.sprintf "server died on %S" line) in
  send "STATS";
  match input_line ic with
  | exception End_of_file -> died "STATS"
  | stats -> (
      send "METRICS";
      let buf = Buffer.create 4096 in
      let rec metrics () =
        match input_line ic with
        | "# EOF" -> Ok (Buffer.contents buf)
        | line ->
            Buffer.add_string buf line;
            Buffer.add_char buf '\n';
            metrics ()
        | exception End_of_file -> died "METRICS"
      in
      let* metrics_text = metrics () in
      send "QUIT";
      match input_line ic with
      | "BYE" -> Ok (stats, metrics_text)
      | bye -> Error (Printf.sprintf "expected BYE, got %S" bye)
      | exception End_of_file -> died "QUIT")

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
    let* stats, metrics_text = epilogue ic oc in
    let n = List.length pairs in
    let latency_us = Histogram.snapshot latency in
    Ok
      {
        events = n;
        wall_seconds = wall;
        events_per_sec = (if wall > 0.0 then float_of_int n /. wall else 0.0);
        latency_us;
        clients =
          [
            {
              tenant = Tenant.default;
              client_events = n;
              client_attempted = n;
              client_latency_us = latency_us;
            };
          ];
        trace = None;
        server_stats = stats;
        server_metrics = metrics_text;
      }
  in
  close_out_noerr oc;
  close_in_noerr ic;
  Domain.join dom;
  outcome

(* {2 The pipelined driver} *)

type source = Instances of Instance.t list | Trace of string

type server_opts = {
  journal : string option;
  snapshot : string option;
  snapshot_every : int option;
  fsync_every : int;
  jobs : int;
  segment_bytes : int option;
  retain_segments : int option;
}

let server_defaults =
  {
    journal = None;
    snapshot = None;
    snapshot_every = None;
    fsync_every = 1024;
    jobs = 1;
    segment_bytes = None;
    retain_segments = None;
  }

type transport = In_process of server_opts | Connect of string

(* One pipelining window: [lines] requests written as one blob, and the
   replies a correct server sends, byte for byte. *)
type window = { lines : int; req : string; expected : string }

let window_of pairs =
  let req = Buffer.create 4096 and expected = Buffer.create 1024 in
  List.iter
    (fun (line, reply) ->
      Buffer.add_string req line;
      Buffer.add_char req '\n';
      Buffer.add_string expected reply;
      Buffer.add_char expected '\n')
    pairs;
  {
    lines = List.length pairs;
    req = Buffer.contents req;
    expected = Buffer.contents expected;
  }

let quit_window = { lines = 1; req = "QUIT\n"; expected = "BYE\n" }

(* A client's script: its tenant, its request count and its windows in
   order, the next one built on demand. *)
type script = {
  s_tenant : string;
  s_attempted : int;
  next : unit -> (window option, string) result;
}

(* [pairs] cut into windows of at most [window] requests *)
let windows ~window pairs =
  let arr = Array.of_list pairs in
  let n = Array.length arr in
  List.init ((n + window - 1) / window) (fun w ->
      let lo = w * window in
      window_of (Array.to_list (Array.sub arr lo (min window (n - lo)))))

let client_tenant i = Printf.sprintf "t%d" i

(* Client [i] is tenant [t<i>]; every window is joined here, before the
   clock starts, so serialising the script is not measured server time. *)
let instance_scripts ~policy ~seed ~window instances =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | inst :: rest ->
        let s_tenant = client_tenant i in
        let* pairs = expected_replies ~tenant:s_tenant ~policy ~seed inst in
        let pending = ref (windows ~window:(max 1 window) pairs) in
        let next () =
          match !pending with
          | [] -> Ok None
          | w :: ws ->
              pending := ws;
              Ok (Some w)
        in
        go (i + 1) ({ s_tenant; s_attempted = List.length pairs; next } :: acc) rest
  in
  go 0 [] instances

(* One default-tenant client whose windows are the trace's blocks: the
   shadow session advances block by block as the windows are built, so
   memory is the reader's window plus one block, whatever the length. *)
let trace_script ~policy ~seed reader =
  let header = Trace_reader.header reader in
  let* shadow =
    shadow_session ~policy ~seed ~tenant:Tenant.default header.Binfmt.capacity
  in
  let block = ref 0 in
  let next () =
    let i = !block in
    if i = Trace_reader.blocks reader then Ok None
    else
      let* evs = Trace_reader.read_block reader i in
      incr block;
      match List.map (fun ev -> (request_line ev, shadow_reply shadow ev)) evs with
      | pairs -> Ok (Some (window_of pairs))
      | exception Session.Session_error msg ->
          Error (Printf.sprintf "shadow session refused block %d: %s" i msg)
  in
  Ok { s_tenant = Tenant.default; s_attempted = header.Binfmt.events; next }

(* One connection with one window in flight. *)
type conn = {
  script : script;
  fd : Unix.file_descr;
  hist : Histogram.t;
  got : Buffer.t;  (* the replies read for [win] so far *)
  mutable win : window;
  mutable quitting : bool;  (* [win] is the closing QUIT *)
  mutable wpos : int;  (* request bytes of [win] written *)
  mutable seen : int;  (* reply lines of [win] read *)
  mutable t0 : float;
  mutable completed : int;
  mutable open_ : bool;
}

exception Failed of string

let fail c msg = raise (Failed (Printf.sprintf "client %s: %s" c.script.s_tenant msg))

let close c =
  c.open_ <- false;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c =
  let len = String.length c.win.req in
  if c.wpos < len then
    match Unix.single_write_substring c.fd c.win.req c.wpos (len - c.wpos) with
    | k -> c.wpos <- c.wpos + k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* the peer is gone; its EOF ends the window on the read side,
           after the replies it did send are read *)
        c.wpos <- len

let start c w =
  c.win <- w;
  c.wpos <- 0;
  c.seen <- 0;
  Buffer.clear c.got;
  c.t0 <- Unix.gettimeofday ();
  send c

let advance c =
  match c.script.next () with
  | Ok (Some w) -> start c w
  | Ok None ->
      c.quitting <- true;
      start c quit_window
  | Error e -> fail c e

(* The complete reply lines read for the window in flight, checked line
   by line: how many there are, or [Failed] naming the first wrong one
   and its request. *)
let checked_lines c =
  let got = Array.of_list (String.split_on_char '\n' (Buffer.contents c.got)) in
  let exp = Array.of_list (String.split_on_char '\n' c.win.expected) in
  let req = Array.of_list (String.split_on_char '\n' c.win.req) in
  let complete = Array.length got - 1 in
  for k = 0 to complete - 1 do
    if k >= c.win.lines then
      fail c (Printf.sprintf "unexpected reply %S after %S" got.(k) req.(c.win.lines - 1))
    else if got.(k) <> exp.(k) then
      fail c
        (Printf.sprintf "divergence on %S: server said %S, shadow session says %S" req.(k)
           got.(k) exp.(k))
  done;
  complete

(* Every reply of the window has arrived: one string compare verifies
   them all; the per-line check only runs to name a divergence. *)
let finish c =
  let got = Buffer.contents c.got in
  if not (String.equal got c.win.expected) then begin
    ignore (checked_lines c);
    fail c (Printf.sprintf "unexpected reply data %S" got)
  end
  else if c.quitting then close c
  else begin
    c.completed <- c.completed + c.win.lines;
    Histogram.observe_n c.hist ((Unix.gettimeofday () -. c.t0) *. 1e6) c.win.lines;
    advance c
  end

(* The server closed the connection: what it answered before still
   counts once verified. EOF in answer to QUIT is a clean end. *)
let lost c ~tolerate_death =
  let answered = checked_lines c in
  close c;
  if not c.quitting then begin
    c.completed <- c.completed + answered;
    if not tolerate_death then
      fail c
        (Printf.sprintf "server died on %S"
           (List.nth (String.split_on_char '\n' c.win.req) answered))
  end

let receive c chunk ~tolerate_death =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> lost c ~tolerate_death
  | n ->
      for j = 0 to n - 1 do
        if Bytes.unsafe_get chunk j = '\n' then c.seen <- c.seen + 1
      done;
      Buffer.add_subbytes c.got chunk 0 n;
      if c.seen >= c.win.lines then finish c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> lost c ~tolerate_death

(* Single-thread select(2) loop: every connection keeps one window in
   flight, its next window going out as soon as the last is verified. *)
let pump ~tolerate_death conns =
  let chunk = Bytes.create 65536 in
  List.iter advance conns;
  let rec loop () =
    match List.filter (fun c -> c.open_) conns with
    | [] -> ()
    | live ->
        let writers =
          List.filter_map
            (fun c -> if c.wpos < String.length c.win.req then Some c.fd else None)
            live
        in
        let readable, writable, _ =
          try Unix.select (List.map (fun c -> c.fd) live) writers [] (-1.0)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun c -> if List.memq c.fd readable then receive c chunk ~tolerate_death)
          live;
        List.iter (fun c -> if c.open_ && List.memq c.fd writable then send c) live;
        loop ()
  in
  loop ()

let make_conn fd script =
  Unix.set_nonblock fd;
  {
    script;
    fd;
    hist = Histogram.create ();
    got = Buffer.create 4096;
    win = quit_window;
    quitting = false;
    wpos = 0;
    seen = 0;
    t0 = 0.0;
    completed = 0;
    open_ = true;
  }

(* Drives every script over its own fd and times the whole exchange;
   [Error] on any wrong reply (and, unless [tolerate_death], on a server
   that hangs up). Every fd is closed on return. *)
let run_conns ~tolerate_death pairs =
  let conns = List.map (fun (fd, script) -> make_conn fd script) pairs in
  let t0 = Unix.gettimeofday () in
  match pump ~tolerate_death conns with
  | () -> Ok (conns, Unix.gettimeofday () -. t0)
  | exception Failed msg ->
      List.iter (fun c -> if c.open_ then close c) conns;
      Error msg

let report (conns, wall) (server_stats, server_metrics) =
  let events = List.fold_left (fun acc c -> acc + c.completed) 0 conns in
  {
    events;
    wall_seconds = wall;
    events_per_sec = (if wall > 0.0 then float_of_int events /. wall else 0.0);
    latency_us =
      Histogram.snapshot
        (List.fold_left
           (fun acc c -> Histogram.merge acc c.hist)
           (Histogram.create ()) conns);
    clients =
      List.map
        (fun c ->
          {
            tenant = c.script.s_tenant;
            client_events = c.completed;
            client_attempted = c.script.s_attempted;
            client_latency_us = Histogram.snapshot c.hist;
          })
        conns;
    trace = None;
    server_stats;
    server_metrics;
  }

let connect path scripts =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | script :: rest -> (
        let fd = Unix.socket ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> go ((fd, script) :: acc) rest
        | exception Unix.Unix_error (e, fn, _) ->
            List.iter (fun (fd, _) -> Unix.close fd) ((fd, script) :: acc);
            Error (Printf.sprintf "connect %s: %s: %s" path fn (Unix.error_message e)))
  in
  go [] scripts

(* An {!Event_loop} server in its own domain, one socketpair per script
   plus a control connection for the epilogue; the loop stops once every
   connection is gone. *)
let in_process ~policy ~seed ~capacity (o : server_opts) scripts =
  let* server =
    Server.create
      {
        Server.policy;
        seed;
        capacity;
        journal = o.journal;
        snapshot = o.snapshot;
        snapshot_every = o.snapshot_every;
        fsync_every = o.fsync_every;
        jobs = o.jobs;
        segment_bytes = o.segment_bytes;
        retain_segments = o.retain_segments;
      }
  in
  let pair () = Unix.socketpair ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ends = List.map (fun s -> (pair (), s)) scripts in
  let ctl, ctl_server = pair () in
  let served = List.map (fun ((_, srv), _) -> srv) ends @ [ ctl_server ] in
  let dom = Domain.spawn (fun () -> Event_loop.serve ~conns:served server) in
  let outcome =
    run_conns ~tolerate_death:false (List.map (fun ((fd, _), s) -> (fd, s)) ends)
  in
  let ic = Unix.in_channel_of_descr ctl and oc = Unix.out_channel_of_descr ctl in
  let outcome =
    let* timed = outcome in
    let* epilogue = epilogue ic oc in
    Ok (timed, epilogue)
  in
  close_out_noerr oc;
  Domain.join dom;
  outcome

let drive ~policy ~seed ~transport ?(window = 256) source =
  (* a server that hangs up must surface as EPIPE on that connection, not
     kill the driver *)
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  let over ~capacity scripts =
    match transport with
    | Connect path ->
        let* fds = connect path scripts in
        let* timed = run_conns ~tolerate_death:true fds in
        Ok (report timed ("(external server)", ""))
    | In_process o ->
        let* timed, epilogue = in_process ~policy ~seed ~capacity o scripts in
        Ok (report timed epilogue)
  in
  match source with
  | Instances [] -> Error "loadgen: no client instances"
  | Instances (first :: _ as instances) ->
      let capacity = first.Instance.capacity in
      let same (i : Instance.t) = Vec.equal i.Instance.capacity capacity in
      if not (List.for_all same instances) then
        Error "loadgen: client instances disagree on capacity"
      else
        let* scripts = instance_scripts ~policy ~seed ~window instances in
        over ~capacity scripts
  | Trace path ->
      Trace_reader.with_file path (fun reader ->
          let* script = trace_script ~policy ~seed reader in
          let* r = over ~capacity:(Trace_reader.header reader).Binfmt.capacity [ script ] in
          let blocks = Trace_reader.blocks reader in
          let resident_bytes_max = Trace_reader.resident_bytes_max reader in
          Ok { r with trace = Some { blocks; resident_bytes_max } })

let render_latency lat =
  if lat.Histogram.n = 0 then "n/a"
  else
    Printf.sprintf "mean %.1f us, p50 %.1f us, p90 %.1f us, p99 %.1f us, max %.1f us"
      lat.Histogram.mean lat.Histogram.p50 lat.Histogram.p90 lat.Histogram.p99
      lat.Histogram.max_v

let render r =
  let buf = Buffer.create 1024 in
  let count done_ attempted =
    if done_ = attempted then string_of_int done_
    else Printf.sprintf "%d of %d" done_ attempted
  in
  (match r.trace with
  | None -> ()
  | Some t ->
      Printf.bprintf buf
        "trace replay: %d blocks streamed, reader resident window <= %d bytes\n" t.blocks
        t.resident_bytes_max);
  let attempted = List.fold_left (fun acc c -> acc + c.client_attempted) 0 r.clients in
  let several = List.length r.clients > 1 in
  Printf.bprintf buf "loadgen: %s%s events in %.3f s -> %.0f events/s\n"
    (if several then Printf.sprintf "%d clients, " (List.length r.clients) else "")
    (count r.events attempted) r.wall_seconds r.events_per_sec;
  Printf.bprintf buf "latency: %s\n" (render_latency r.latency_us);
  if several then
    List.iter
      (fun c ->
        Printf.bprintf buf "  %s: %s events, %s\n" c.tenant
          (count c.client_events c.client_attempted)
          (render_latency c.client_latency_us))
      r.clients;
  Printf.bprintf buf "server: %s\n" r.server_stats;
  Buffer.contents buf
