module Vec = Dvbp_vec.Vec
module Policy = Dvbp_core.Policy
module Session = Dvbp_engine.Session
module R = Dvbp_obs.Registry

type config = {
  policy : string;
  seed : int;
  capacity : Vec.t;
  journal : string option;
  snapshot : string option;
  snapshot_every : int option;
  fsync_every : int;  (* not read: the benchmark harness still builds the record *)
  jobs : int;
  segment_bytes : int option;  (* journal segment roll threshold *)
  retain_segments : int option;  (* sealed-segment count that triggers a checkpoint *)
}

type metrics = {
  requests : int;
  placements : int;
  rejections : int;
  departures : int;
  errors : int;
  snapshots : int;
  events : int;
}

type t = {
  config : config;
  io : Io.t;
  tenants : (string, Session.t) Hashtbl.t;
  mutable tenant_order_rev : string list;
  journal : Journal.writer option;
  mutable last_event : Journal.event option;  (* event [events - 1] *)
  mutable events : int;
  mutable since_snapshot : int;
  mutable requests : int;
  mutable placements : int;
  mutable rejections : int;
  mutable departures : int;
  mutable errors : int;
  mutable snapshots : int;
  obs : Metrics.t;
  mutable closed : bool;
  field_starts : int array;  (* request scanner scratch, one slot per field *)
  field_stops : int array;
}

let ( let* ) = Result.bind

let validate_config c =
  let* () =
    if c.jobs < 1 then Error (Printf.sprintf "jobs must be >= 1, got %d" c.jobs)
    else Ok ()
  in
  let* () =
    match c.snapshot_every with
    | Some n when n < 1 -> Error (Printf.sprintf "snapshot-every must be >= 1, got %d" n)
    | Some _ when c.snapshot = None ->
        Error "snapshot-every requires a snapshot path"
    | Some _ when c.journal = None ->
        Error "snapshot-every requires a journal path (a checkpoint bounds the journal)"
    | Some _ | None -> Ok ()
  in
  let* () =
    match c.segment_bytes with
    | Some n when n < 64 -> Error (Printf.sprintf "segment-bytes must be >= 64, got %d" n)
    | Some _ when c.journal = None ->
        Error "segment-bytes requires a journal path"
    | Some _ | None -> Ok ()
  in
  let* () =
    match c.retain_segments with
    | Some n when n < 0 ->
        Error (Printf.sprintf "retain-segments must be >= 0, got %d" n)
    | Some _ when c.snapshot = None ->
        Error "retain-segments requires a snapshot path (a checkpoint writes one)"
    | Some _ when c.journal = None ->
        Error "retain-segments requires a journal path (there is nothing to retire)"
    | Some _ | None -> Ok ()
  in
  Ok ()

let register_tenant t tenant session =
  Hashtbl.add t.tenants tenant session;
  t.tenant_order_rev <- tenant :: t.tenant_order_rev;
  Metrics.attach_session t.obs ~tenant ~policy:t.config.policy session

let sessions t =
  List.rev_map (fun tn -> (tn, Hashtbl.find t.tenants tn)) t.tenant_order_rev

let make_t config ~io ~obs ~tenant_sessions journal ~events ~last ~since_snapshot =
  let t =
    {
      config;
      io;
      tenants = Hashtbl.create 8;
      tenant_order_rev = [];
      journal;
      last_event = last;
      events;
      since_snapshot;
      requests = 0;
      placements = 0;
      rejections = 0;
      departures = 0;
      errors = 0;
      snapshots = 0;
      obs;
      closed = false;
      (* ARRIVE tenant t id sizes: the longest request has 5 fields *)
      field_starts = Array.make 5 0;
      field_stops = Array.make 5 0;
    }
  in
  List.iter (fun (tenant, session) -> register_tenant t tenant session) tenant_sessions;
  if not (Metrics.is_noop obs) then begin
    let reg = Metrics.registry obs in
    R.Counter.pull reg "dvbp_server_placements_total" ~help:"PLACED replies" (fun () ->
        t.placements);
    R.Counter.pull reg "dvbp_server_rejections_total" ~help:"REJECT replies" (fun () ->
        t.rejections);
    R.Counter.pull reg "dvbp_server_departures_total" ~help:"Successful DEPART requests"
      (fun () -> t.departures);
    R.Counter.pull reg "dvbp_server_errors_total" ~help:"ERR replies" (fun () -> t.errors);
    R.Counter.pull reg "dvbp_server_snapshots_total"
      ~help:"Snapshots taken by this process (manual and auto)" (fun () -> t.snapshots);
    R.Counter.pull reg "dvbp_server_events_total"
      ~help:"Applied events (placements + departures) since genesis, replayed included"
      (fun () -> t.events);
    R.Gauge.pull reg "dvbp_server_tenants" ~help:"Tenant sessions this server holds"
      (fun () -> float_of_int (List.length t.tenant_order_rev));
    let start = Metrics.now obs in
    R.Gauge.pull reg "dvbp_server_uptime_seconds" ~help:"Wall time since this server started"
      (fun () -> Metrics.now obs -. start)
  end;
  t

let fresh_tenant_session ~policy ~seed ~capacity tenant =
  let* p = Policy.of_name ~rng:(Tenant.rng ~seed tenant) policy in
  Ok (Session.create ~capacity ~policy:p ())

(* {2 Checkpoint}

   The one way the journal is trimmed, whatever asked for it (SNAPSHOT,
   [snapshot_every], [retain_segments], [dvbp compact], a resume that
   finds the snapshot ahead of the journal): seal the active segment so
   every record at or below [t.events] is durable before the snapshot
   exists, write the snapshot at [t.events], then retire every sealed
   segment it covers. *)

let checkpoint t =
  match t.config.snapshot with
  | None -> Error "no snapshot path configured"
  | Some path ->
      let started = Metrics.now t.obs in
      Option.iter (fun w -> Journal.roll w ~base:t.events) t.journal;
      Metrics.time_snapshot t.obs (fun () ->
          Snapshot.write ~io:t.io ~path
            (Snapshot.of_sessions ~policy:t.config.policy ~seed:t.config.seed
               ~capacity:t.config.capacity ~events:t.events ~last:t.last_event (sessions t)));
      t.since_snapshot <- 0;
      t.snapshots <- t.snapshots + 1;
      Metrics.set_compaction_lag t.obs 0;
      let retired =
        match t.journal with Some w -> Journal.retire_sealed w ~upto:t.events | None -> 0
      in
      Metrics.on_compaction t.obs ~seconds:(Metrics.now t.obs -. started);
      Ok (path, retired)

let checkpoint_due t =
  (match t.config.snapshot_every with Some n -> t.since_snapshot >= n | None -> false)
  ||
  match (t.config.retain_segments, t.journal) with
  | Some retain, Some w -> Journal.sealed_segments w > retain
  | _ -> false

(* The benchmark harness (perfbench/layers.ml) still names the staged
   compaction of earlier versions; a checkpoint now completes within the
   call that triggers it, so nothing is ever pending between calls. *)
let compact = checkpoint
let compaction_pending (_ : t) = false
let compaction_step (_ : t) = ()

let create ?(io = Real_io.v) ?metrics config =
  let obs = match metrics with Some m -> m | None -> Metrics.create () in
  let* () = validate_config config in
  let* session =
    fresh_tenant_session ~policy:config.policy ~seed:config.seed
      ~capacity:config.capacity Tenant.default
  in
  let* journal =
    match config.journal with
    | None -> Ok None
    | Some path -> (
        match
          Journal.create ~io ~metrics:obs ?segment_bytes:config.segment_bytes ~path
            { Journal.policy = config.policy; seed = config.seed;
              capacity = config.capacity; base = 0 }
        with
        | w -> Ok (Some w)
        | exception Sys_error msg -> Error msg)
  in
  Ok
    (make_t config ~io ~obs
       ~tenant_sessions:[ (Tenant.default, session) ]
       journal ~events:0 ~last:None ~since_snapshot:0)

let resume ?(io = Real_io.v) ?metrics config (st : Recovery.state) =
  let obs = match metrics with Some m -> m | None -> Metrics.create () in
  let* () = validate_config config in
  let* () =
    if st.Recovery.policy <> config.policy then
      Error
        (Printf.sprintf "recovered state was built by policy %s, config says %s"
           st.Recovery.policy config.policy)
    else if st.Recovery.seed <> config.seed then
      Error
        (Printf.sprintf "recovered state used seed %d, config says %d"
           st.Recovery.seed config.seed)
    else if not (Vec.equal st.Recovery.capacity config.capacity) then
      Error
        (Printf.sprintf "recovered capacity %s, config says %s"
           (Vec.to_string st.Recovery.capacity)
           (Vec.to_string config.capacity))
    else Ok ()
  in
  let* journal =
    match config.journal with
    | None -> Ok None
    | Some path ->
        let* w, _ =
          Journal.append_to ~io ~metrics:obs ?segment_bytes:config.segment_bytes
            ~source:st.Recovery.journal ~path
            { Journal.policy = config.policy; seed = config.seed;
              capacity = config.capacity; base = 0 }
        in
        Ok (Some w)
  in
  let t =
    make_t config ~io ~obs ~tenant_sessions:st.Recovery.sessions journal
      ~events:st.Recovery.events ~last:st.Recovery.last
      ~since_snapshot:st.Recovery.from_journal
  in
  (* Earlier versions wrote a snapshot before trimming the journal, without
     sealing it first: a crash between the two, with the journal's tail
     still unsynced, leaves the snapshot durably ahead of the journal.
     Appending there would leave a hole, so checkpoint first: the seal
     opens the next segment at the recovered frontier. *)
  match t.journal with
  | Some w when Journal.frontier w < t.events -> Result.map (fun _ -> t) (checkpoint t)
  | Some _ | None -> Ok t

(* [serve --resume]: one read of the journal and snapshot, the replay,
   the writer reopened from what was read; the wall time of the whole
   sequence and its event counts go to the recovery gauges *)
let restart ?(io = Real_io.v) ?metrics (config : config) =
  let obs = match metrics with Some m -> m | None -> Metrics.create () in
  match config.journal with
  | None -> Error "restart needs a configured journal"
  | Some journal -> (
      let t0 = Metrics.now obs in
      let* st = Recovery.load ~io ?snapshot:config.snapshot ~journal () in
      match st with
      | None -> Ok None
      | Some st ->
          let* t = resume ~io ~metrics:obs config st in
          Metrics.set_recovery obs
            ~seconds:(Metrics.now obs -. t0)
            ~from_snapshot:st.Recovery.from_snapshot ~from_journal:st.Recovery.from_journal;
          Ok (Some t))

let metrics t =
  {
    requests = t.requests;
    placements = t.placements;
    rejections = t.rejections;
    departures = t.departures;
    errors = t.errors;
    snapshots = t.snapshots;
    events = t.events;
  }

let get_session t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some s -> Ok s
  | None ->
      let* _ = Tenant.validate tenant in
      let* session =
        fresh_tenant_session ~policy:t.config.policy ~seed:t.config.seed
          ~capacity:t.config.capacity tenant
      in
      register_tenant t tenant session;
      Ok session

let session t =
  match Hashtbl.find_opt t.tenants Tenant.default with
  | Some s -> s
  | None -> invalid_arg "Server.session: no default tenant session"

let observability t = t.obs
let latency_summary t = Metrics.request_summary t.obs

let stats_line t =
  (* The field list and order are a compatibility contract: scripts parse
     this line (regression-tested in test_service). The engine fields
     aggregate across tenants (sums; clock is the max). New telemetry goes
     to METRICS, not here. *)
  let lat = Metrics.request_summary t.obs in
  let lat_mean, lat_max =
    if lat.Dvbp_obs.Histogram.n = 0 then (0.0, 0.0)
    else (lat.Dvbp_obs.Histogram.mean *. 1e6, lat.Dvbp_obs.Histogram.max_v *. 1e6)
  in
  let open_bins, bins_opened, active_items, clock, cost =
    List.fold_left
      (fun (ob, bo, ai, clk, cost) (_, s) ->
        ( ob + Session.open_bin_count s,
          bo + Session.bins_opened s,
          ai + Session.active_items s,
          Float.max clk (Session.now s),
          cost +. Session.cost_so_far s ))
      (0, 0, 0, 0.0, 0.0) (sessions t)
  in
  Printf.sprintf
    "STATS requests=%d placements=%d rejections=%d departures=%d errors=%d \
     snapshots=%d events=%d open_bins=%d bins_opened=%d active_items=%d clock=%g \
     cost=%.4f latency_mean_us=%.1f latency_max_us=%.1f"
    t.requests t.placements t.rejections t.departures t.errors t.snapshots t.events
    open_bins bins_opened active_items clock cost lat_mean lat_max

(* {2 Request parsing}

   [parse_request] is the only code that turns a request line into a
   request, and [quits] asks the same scanner whether a line is QUIT.
   Fields are space-separated; a trailing CR and stray blanks (leading,
   trailing, doubled) are tolerated. Fields
   are scanned in place; numeric fields take a plain-decimal fast path and
   otherwise fall back to the stdlib conversion of the field's substring,
   so every spelling [int_of_string]/[float_of_string] accepts ([+7],
   [0x10], [1_000], [1e1]) is accepted. A tenant-prefixed event has one
   more field than the un-prefixed form: the field count, not the content,
   tells the two grammars apart (digit strings are valid tenants and valid
   timestamps alike). *)

type request =
  | Q_arrive of { tenant : string; time : float; item_id : int; size : Vec.t }
  | Q_depart of { tenant : string; time : float; item_id : int }
  | Q_stats
  | Q_metrics
  | Q_snapshot
  | Q_quit
  | Q_err of { kind : Metrics.kind; msg : string }  (* answers [ERR msg] *)

let kind_of_request = function
  | Q_arrive _ -> Metrics.Arrive
  | Q_depart _ -> Metrics.Depart
  | Q_stats -> Metrics.Stats
  | Q_metrics -> Metrics.Metrics
  | Q_snapshot -> Metrics.Snapshot
  | Q_quit -> Metrics.Other
  | Q_err { kind; _ } -> kind

(* ARRIVE and DEPART lines, well-formed or not, are answered in event runs
   (prep, apply, commit); every other line is handled on its own. *)
let in_run req =
  match kind_of_request req with
  | Metrics.Arrive | Metrics.Depart -> true
  | Metrics.Stats | Metrics.Snapshot | Metrics.Metrics | Metrics.Other -> false

(* Bounds of the space-separated fields of [line] (less one trailing CR)
   into [starts]/[stops]; the count, or [Array.length starts + 1] when
   there are more fields than slots (the first slots are still filled). *)
let scan_fields line (starts : int array) (stops : int array) =
  let n = String.length line in
  let n = if n > 0 && String.unsafe_get line (n - 1) = '\r' then n - 1 else n in
  let slots = Array.length starts in
  let count = ref 0 in
  let i = ref 0 in
  while !i < n && !count < slots do
    while !i < n && String.unsafe_get line !i = ' ' do incr i done;
    if !i < n then begin
      starts.(!count) <- !i;
      while !i < n && String.unsafe_get line !i <> ' ' do incr i done;
      stops.(!count) <- !i;
      incr count
    end
  done;
  while !i < n && String.unsafe_get line !i = ' ' do incr i done;
  if !i < n then slots + 1 else !count

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_request msg)) fmt

let parse_int what line s e =
  let v = Record.parse_uint line s e in
  if v >= 0 then v
  else
    let f = String.sub line s (e - s) in
    match int_of_string_opt f with Some x -> x | None -> bad "bad %s %S" what f

let parse_time line s e =
  let f = String.sub line s (e - s) in
  match float_of_string_opt f with
  | Some x when Float.is_finite x -> x
  | Some _ | None -> bad "bad timestamp %S" f

(* "10,20"-style size vector in [s, e): every entry is parsed, left to
   right, before any is checked for sign *)
let parse_sizes line s e =
  let dims = ref 1 in
  for j = s to e - 1 do
    if String.unsafe_get line j = ',' then incr dims
  done;
  let arr = Array.make !dims 0 in
  let lo = ref s in
  for k = 0 to !dims - 1 do
    let hi = ref !lo in
    while !hi < e && String.unsafe_get line !hi <> ',' do incr hi done;
    arr.(k) <- parse_int "size entry" line !lo !hi;
    lo := !hi + 1
  done;
  if Array.exists (fun x -> x < 0) arr then bad "negative size";
  Vec.of_array arr

let parse_tenant line s e =
  match Tenant.validate (String.sub line s (e - s)) with
  | Ok tenant -> tenant
  | Error msg -> raise (Bad_request msg)

let arrive_usage = "usage: ARRIVE [tenant] <t> <id> <s1,...,sd>"
let depart_usage = "usage: DEPART [tenant] <t> <id>"

(* fields [b], [b+1], ... follow the command and the optional tenant *)
let parse_event line starts stops nf ~arrive =
  let arity = if arrive then 4 else 3 in
  if nf <> arity && nf <> arity + 1 then
    raise (Bad_request (if arrive then arrive_usage else depart_usage));
  let b = nf - arity + 1 in
  let tenant = if b = 1 then Tenant.default else parse_tenant line starts.(1) stops.(1) in
  let time = parse_time line starts.(b) stops.(b) in
  let item_id = parse_int "item id" line starts.(b + 1) stops.(b + 1) in
  if arrive then
    Q_arrive { tenant; time; item_id; size = parse_sizes line starts.(b + 2) stops.(b + 2) }
  else Q_depart { tenant; time; item_id }

let quits line =
  let starts = [| 0 |] and stops = [| 0 |] in
  scan_fields line starts stops = 1 && Record.field_is line starts.(0) stops.(0) "QUIT"

let parse_request t line =
  let starts = t.field_starts and stops = t.field_stops in
  let nf = scan_fields line starts stops in
  let arrive = nf > 0 && Record.field_is line starts.(0) stops.(0) "ARRIVE" in
  if arrive || (nf > 0 && Record.field_is line starts.(0) stops.(0) "DEPART") then
    try parse_event line starts stops nf ~arrive
    with Bad_request msg ->
      Q_err { kind = (if arrive then Metrics.Arrive else Metrics.Depart); msg }
  else if nf = 0 then Q_err { kind = Metrics.Other; msg = "empty request" }
  else
    let cmd = String.sub line starts.(0) (stops.(0) - starts.(0)) in
    let unknown kind = Q_err { kind; msg = Printf.sprintf "unknown command %S" cmd } in
    (* control words take no arguments *)
    let control kind req = if nf = 1 then req else unknown kind in
    match cmd with
    | "STATS" -> control Metrics.Stats Q_stats
    | "METRICS" -> control Metrics.Metrics Q_metrics
    | "SNAPSHOT" -> control Metrics.Snapshot Q_snapshot
    | "QUIT" -> control Metrics.Other Q_quit
    | _ -> unknown Metrics.Other

(* {2 Answering requests}

   ARRIVE/DEPART lines are answered in runs of consecutive event lines,
   and every other line on its own between runs (so SNAPSHOT always sees
   every staged record committed). A run goes through:

   + {e prep} (calling domain): count the line, resolve its tenant session
     (creating it on first contact);
   + {e apply} (sharded over [config.jobs] domains via {!Dvbp_parallel}):
     each shard applies its lines in arrival order against its tenants'
     sessions and writes the outcome into that line's pre-assigned slot —
     a tenant's events all land on one shard ({!Tenant.shard}), so every
     per-tenant packing is bit-identical to [jobs = 1];
   + {e commit} (calling domain): walk outcomes in arrival order, account
     counters, group-commit the applied events with one
     {!Journal.append_batch} — one write, one fsync — then release
     replies. *)

type applied =
  | A_none
  | A_err of string  (* ERR reply computed by a worker (failed DEPART) *)
  | A_reject of string
  | A_placed of string * Journal.event
  | A_departed of Journal.event

let err t msg =
  t.errors <- t.errors + 1;
  (Printf.sprintf "ERR %s" msg, false)

let count_request t req =
  t.requests <- t.requests + 1;
  Metrics.on_request t.obs (kind_of_request req)

let placed_reply (p : Session.placement) =
  String.concat ""
    [ "PLACED "; string_of_int p.Session.bin_id;
      (if p.Session.opened_new_bin then " 1" else " 0") ]

let apply_request req session =
  match req with
  | Q_arrive { tenant; time; item_id; size } -> (
      match Session.arrive session ~at:time ~id:item_id ~size () with
      | exception Session.Session_error msg -> A_reject msg
      | p ->
          A_placed
            ( placed_reply p,
              Journal.Arrive
                { tenant; time; item_id; size; bin_id = p.Session.bin_id;
                  opened_new_bin = p.Session.opened_new_bin } ))
  | Q_depart { tenant; time; item_id } -> (
      match Session.depart session ~at:time ~item_id with
      | exception Session.Session_error msg -> A_err msg
      | () -> A_departed (Journal.Depart { tenant; time; item_id }))
  | Q_stats | Q_metrics | Q_snapshot | Q_quit | Q_err _ -> A_none

(* a run's replies wait for all of it, so one commit covering the whole
   run acks nothing later than smaller commits would (pinned in tests) *)
let journal_events t events ~waiters =
  match (t.journal, events) with
  | None, _ | _, [] -> ()
  | Some w, _ ->
      Metrics.set_group_commit_waiters t.obs waiters;
      Metrics.time_journal_append t.obs (fun () -> Journal.append_batch w events);
      Metrics.set_group_commit_waiters t.obs 0

(* Answer the event run [reqs.(lo) .. reqs.(hi - 1)] into [replies]. A
   line whose tenant session cannot be resolved becomes a [Q_err] in
   [reqs], so the caller sees which lines reached a session. *)
let process_run t (reqs : request array) (replies : (string * bool) array)
    ~lo ~hi =
  let jobs = t.config.jobs in
  let n = hi - lo in
  let sessions = Array.make n (session t) in
  (* prep: session creation mutates the tenant table, which workers only
     read, so it stays on the calling domain *)
  for k = 0 to n - 1 do
    let req = reqs.(lo + k) in
    count_request t req;
    match req with
    | Q_arrive { tenant; _ } | Q_depart { tenant; _ } -> (
        match get_session t tenant with
        | Ok s -> sessions.(k) <- s
        | Error msg ->
            reqs.(lo + k) <- Q_err { kind = kind_of_request req; msg };
            replies.(lo + k) <- err t msg)
    | Q_err { msg; _ } -> replies.(lo + k) <- err t msg
    | Q_stats | Q_metrics | Q_snapshot | Q_quit -> ()
  done;
  (* apply: shard by tenant, workers write disjoint slots *)
  let results = Array.make n A_none in
  let apply k = results.(k) <- apply_request reqs.(lo + k) sessions.(k) in
  if jobs <= 1 then
    for k = 0 to n - 1 do
      apply k
    done
  else begin
    let buckets = Array.make jobs [] in
    for k = n - 1 downto 0 do
      match reqs.(lo + k) with
      | Q_arrive { tenant; _ } | Q_depart { tenant; _ } ->
          let s = Tenant.hash tenant mod jobs in
          buckets.(s) <- k :: buckets.(s)
      | Q_stats | Q_metrics | Q_snapshot | Q_quit | Q_err _ -> ()
    done;
    ignore (Dvbp_parallel.Parallel.map_array ~jobs (List.iter apply) buckets)
  end;
  (* commit: account in arrival order, journal, then release *)
  let staged_rev = ref [] in
  let stage e =
    staged_rev := e :: !staged_rev;
    t.events <- t.events + 1;
    t.since_snapshot <- t.since_snapshot + 1
  in
  for k = 0 to n - 1 do
    match results.(k) with
    | A_none -> ()
    | A_err msg -> replies.(lo + k) <- err t msg
    | A_reject msg ->
        t.rejections <- t.rejections + 1;
        replies.(lo + k) <- (Printf.sprintf "REJECT %s" msg, false)
    | A_placed (reply, e) ->
        t.placements <- t.placements + 1;
        stage e;
        replies.(lo + k) <- (reply, false)
    | A_departed e ->
        t.departures <- t.departures + 1;
        stage e;
        replies.(lo + k) <- ("OK", false)
  done;
  (match !staged_rev with e :: _ -> t.last_event <- Some e | [] -> ());
  journal_events t (List.rev !staged_rev) ~waiters:n;
  Metrics.set_compaction_lag t.obs t.since_snapshot;
  if !staged_rev <> [] && checkpoint_due t then
    match checkpoint t with Ok _ -> () | Error msg -> failwith msg (* excluded by validate_config *)

let handle_control t req =
  count_request t req;
  match req with
  | Q_stats -> (stats_line t, false)
  | Q_metrics -> (Metrics.render_text t.obs, false)
  | Q_snapshot -> (
      match checkpoint t with
      | Ok (path, _) -> (Printf.sprintf "OK snapshot %s events=%d" path t.events, false)
      | Error msg -> err t msg)
  | Q_quit -> ("BYE", true)
  | Q_err { msg; _ } -> err t msg
  | Q_arrive _ | Q_depart _ -> invalid_arg "Server.handle_control: event request"

(* batch latency: every line in a run waited for the same commit, so each
   observes the run's full prep+apply+commit wall time — one bulk bucket
   update per kind and per tenant, not one per line *)
let observe_run t reqs ~lo ~hi ~seconds =
  let arrives = ref 0 in
  let per_tenant = Hashtbl.create 8 in
  for k = lo to hi - 1 do
    if kind_of_request reqs.(k) = Metrics.Arrive then incr arrives;
    match reqs.(k) with
    | Q_arrive { tenant; _ } | Q_depart { tenant; _ } ->
        Hashtbl.replace per_tenant tenant
          (1 + Option.value (Hashtbl.find_opt per_tenant tenant) ~default:0)
    | Q_stats | Q_metrics | Q_snapshot | Q_quit | Q_err _ -> ()
  done;
  Metrics.observe_request_n t.obs Metrics.Arrive ~seconds !arrives;
  Metrics.observe_request_n t.obs Metrics.Depart ~seconds (hi - lo - !arrives);
  Hashtbl.iter
    (fun tenant k -> Metrics.observe_tenant_request_n t.obs ~tenant ~seconds k)
    per_tenant

(* With [snapshot_every = Some k] a run ends at the line that brings the
   events since the last snapshot to [k], so the checkpoint lands exactly
   there when every line applies (at the next run boundary otherwise) *)
let run_limit t =
  match t.config.snapshot_every with Some k -> max 1 (k - t.since_snapshot) | None -> max_int

let handle_batch t lines =
  let reqs = Array.map (parse_request t) lines in
  let n = Array.length reqs in
  let replies = Array.make n ("", false) in
  let i = ref 0 in
  while !i < n do
    let t0 = Metrics.now t.obs in
    if in_run reqs.(!i) then begin
      let j = ref !i and limit = run_limit t in
      while !j < n && !j - !i < limit && in_run reqs.(!j) do incr j done;
      process_run t reqs replies ~lo:!i ~hi:!j;
      if not (Metrics.is_noop t.obs) then
        observe_run t reqs ~lo:!i ~hi:!j ~seconds:(Metrics.now t.obs -. t0);
      i := !j
    end
    else begin
      replies.(!i) <- handle_control t reqs.(!i);
      Metrics.observe_request t.obs (kind_of_request reqs.(!i))
        ~seconds:(Metrics.now t.obs -. t0);
      incr i
    end
  done;
  replies

let handle_line t line = (handle_batch t [| line |]).(0)

let close t =
  if not t.closed then begin
    (match t.journal with Some w -> Journal.close w | None -> ());
    t.closed <- true
  end

let max_line = 65536

let overlong_reply = Printf.sprintf "ERR request line exceeds %d bytes" max_line
