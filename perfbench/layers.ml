(* Per-layer measurements for the traced run. Each layer's public
   functions are called in this process on the workload's own events, in
   the workload's batch sizes, with a span around every call; a layer's
   figure is its span total divided by the work the spans covered. *)

module Vec = Dvbp_vec.Vec
module Instance = Dvbp_core.Instance
module Policy = Dvbp_core.Policy
module Session = Dvbp_engine.Session
module S = Dvbp_service
module T = Dvbp_tracestore

let ( // ) = Filename.concat
let ok_exn = function Ok v -> v | Error e -> failwith e

type input = {
  policy : string;
  seed : int;
  capacity : Vec.t;
  fsync_every : int;
  tenants : (string * Instance.t) list;
  lines : string array;  (* the workload's protocol requests, in served order *)
  batch : int;  (* lines per [Server.handle_batch] call *)
  segment_bytes : int option;
  retain_segments : int option;
  traces : string list;  (* the workload's events as compiled traces *)
  dir : string;  (* scratch directory, created by the caller *)
}

let slices n len = List.init ((len + n - 1) / n) (fun k -> (k * n, min len ((k + 1) * n)))

let batches n a = List.map (fun (lo, hi) -> Array.sub a lo (hi - lo)) (slices n (Array.length a))

let session_event (ev : T.Binfmt.event) =
  match ev.T.Binfmt.ev_kind with
  | `Arrive ->
      Session.Arrive
        { at = ev.T.Binfmt.ev_time; id = Some ev.T.Binfmt.ev_id; size = Vec.of_array ev.T.Binfmt.ev_size }
  | `Depart -> Session.Depart { at = ev.T.Binfmt.ev_time; item_id = ev.T.Binfmt.ev_id }

(* an instance's events in protocol order: by time, departures first *)
let events inst = Array.of_list (List.map session_event (T.Compile.events_of_instance inst))

let median_ms name = Dvbp_stats.Summary.quantile (Stats.sorted (Span.durations name)) 0.5 *. 1e3

(* [Session.apply] in blocks of 512 events, one fresh session per tenant.
   Also returns the journal records of what was applied. *)
let session inp =
  let scans = ref 0 and candidates = ref 0 and memo = ref 0 in
  let arrivals = ref 0 and peak = ref 0 in
  let records =
    List.concat_map
      (fun (tenant, inst) ->
        let policy = Policy.of_name_exn ~rng:(S.Tenant.rng ~seed:inp.seed tenant) inp.policy in
        let session =
          Session.create ~record_trace:false ~capacity:inst.Instance.capacity ~policy ()
        in
        let evs = events inst in
        let placed = Array.make (Array.length evs) None in
        List.iter
          (fun (lo, hi) ->
            Span.record ~work:(hi - lo) "session.apply" (fun () ->
                for i = lo to hi - 1 do
                  placed.(i) <- Session.apply session evs.(i)
                done))
          (slices 512 (Array.length evs));
        let st = Session.scan_stats session in
        scans := !scans + st.Dvbp_core.Bin_registry.scans;
        candidates := !candidates + st.Dvbp_core.Bin_registry.candidates;
        memo := !memo + st.Dvbp_core.Bin_registry.memo_hits;
        arrivals := !arrivals + Session.placements session;
        peak := max !peak (Session.max_open_bins session);
        List.init (Array.length evs) (fun i ->
            match (evs.(i), placed.(i)) with
            | Session.Arrive { at; size; _ }, Some p ->
                S.Journal.Arrive
                  { tenant; time = at; item_id = p.Session.item_id; size;
                    bin_id = p.Session.bin_id; opened_new_bin = p.Session.opened_new_bin }
            | Session.Depart { at; item_id }, _ -> S.Journal.Depart { tenant; time = at; item_id }
            | Session.Arrive _, None -> failwith "an arrival was not placed"))
      inp.tenants
  in
  let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  ( [
      ("session.apply_ns_per_event", Span.ns_per_work "session.apply");
      ("session.candidates_per_arrival", per !candidates !arrivals);
      ("session.memo_hit_frac", per !memo (!scans + !memo));
      ("session.open_bins_peak", float_of_int !peak);
    ],
    Array.of_list records )

(* [Trace_reader.iter_from] with a no-op callback over every trace *)
let trace_reader inp =
  let resident =
    List.fold_left
      (fun resident path ->
        T.Trace_reader.with_file path (fun r ->
            let work = (T.Trace_reader.header r).T.Binfmt.events in
            Span.record ~work "trace_reader.iter_from" (fun () ->
                T.Trace_reader.iter_from r (fun _ -> ()))
            |> Result.map (fun () -> max resident (T.Trace_reader.resident_bytes_max r)))
        |> ok_exn)
      0 inp.traces
  in
  [
    ("trace_reader.ns_per_event", Span.ns_per_work "trace_reader.iter_from");
    ("trace_reader.resident_bytes_max", float_of_int resident);
  ]

let config inp ~journal ~snapshot =
  {
    S.Server.policy = inp.policy;
    seed = inp.seed;
    capacity = inp.capacity;
    journal;
    snapshot;
    snapshot_every = None;
    fsync_every = inp.fsync_every;
    jobs = 1;
    segment_bytes = (if journal = None then None else inp.segment_bytes);
    retain_segments = (if snapshot = None then None else inp.retain_segments);
  }

(* [Server.handle_batch] without a journal, once with the default metrics
   bundle and once with [Metrics.noop]; then [Metrics.render_text] on the
   bundle the first run filled *)
let server inp =
  let drive name metrics =
    let server = ok_exn (S.Server.create ~metrics (config inp ~journal:None ~snapshot:None)) in
    List.iter
      (fun lines ->
        Span.record ~work:(Array.length lines) name (fun () ->
            ignore (S.Server.handle_batch server lines)))
      (batches inp.batch inp.lines);
    S.Server.close server
  in
  let live = S.Metrics.create () in
  drive "server.handle_batch" live;
  drive "server.handle_batch.noop_metrics" (S.Metrics.noop ());
  for _ = 1 to 21 do
    ignore (Span.record "obs.render_text" (fun () -> S.Metrics.render_text live))
  done;
  let batch_ns = Span.ns_per_work "server.handle_batch" in
  [
    ("server.batch_ns_per_event", batch_ns);
    ("obs.overhead_ns_per_event", batch_ns -. Span.ns_per_work "server.handle_batch.noop_metrics");
    ("obs.render_us", median_ms "obs.render_text" *. 1e3);
  ]

let prom_value text name =
  match Dvbp_obs.Prom.parse text with
  | Error e -> failwith e
  | Ok rows -> (
      match Dvbp_obs.Prom.find rows name with Some r -> r.Dvbp_obs.Prom.value | None -> 0.0)

(* [Journal.encode_event] over every record; [Journal.append_batch] (one
   buffered write and one fsync each) over the first batches, its fsync
   time taken out through the writer's own fsync counter; [Journal.sync]
   after single appends for raw fsync samples. Returns the path of the
   journal written. *)
let journal inp (records : S.Journal.event array) =
  let header =
    { S.Journal.policy = inp.policy; seed = inp.seed; capacity = inp.capacity; base = 0 }
  in
  let groups = batches inp.batch records in
  List.iter
    (fun g ->
      Span.record ~work:(Array.length g) "journal.encode_event" (fun () ->
          Array.iter (fun e -> ignore (S.Journal.encode_event e)) g))
    groups;
  let path = inp.dir // "layer-journal" in
  let metrics = S.Metrics.create () in
  let w = S.Journal.create ~metrics ?segment_bytes:inp.segment_bytes ~path header in
  (* the first 4000 group commits at most: each costs an fsync *)
  List.iteri
    (fun k g ->
      if k < 4000 then
        Span.record ~work:(Array.length g) "journal.append_batch" (fun () ->
            S.Journal.append_batch w (Array.to_list g)))
    groups;
  let fsync_s = prom_value (S.Metrics.render_text metrics) "dvbp_journal_fsync_seconds_sum" in
  S.Journal.close w;
  let append_s, append_work = Span.totals "journal.append_batch" in
  let sync_path = inp.dir // "layer-sync" in
  let w2 = S.Journal.create ~fsync_every:(1 lsl 30) ~path:sync_path header in
  for i = 0 to min 300 (Array.length records) - 1 do
    S.Journal.append w2 records.(i);
    Span.record "journal.sync" (fun () -> S.Journal.sync w2)
  done;
  S.Journal.close w2;
  ( [
      ("journal.encode_ns_per_event", Span.ns_per_work "journal.encode_event");
      ( "journal.append_ns_per_event",
        if append_work = 0 then 0.0
        else (append_s -. fsync_s) *. 1e9 /. float_of_int append_work );
      ("journal.fsync_us_p50", median_ms "journal.sync" *. 1e3);
    ],
    path )

(* The workload's lines through a journaled, snapshotting server, with the
   event loop's compaction steps between batches; then three whole
   [Server.compact] passes over the final state. *)
let snapshot inp =
  let dir = inp.dir // "layer-snapshot" in
  Proc.fresh_dir dir;
  let snap = dir // "snap" in
  let server =
    ok_exn (S.Server.create (config inp ~journal:(Some (dir // "j")) ~snapshot:(Some snap)))
  in
  let written = ref 0 in
  List.iter
    (fun lines ->
      ignore (S.Server.handle_batch server lines);
      while S.Server.compaction_pending server do
        let before = (S.Server.metrics server).S.Server.snapshots in
        S.Server.compaction_step server;
        if (S.Server.metrics server).S.Server.snapshots > before then
          written := !written + Proc.file_bytes snap
      done)
    (batches (max inp.batch 256) inp.lines);
  for _ = 1 to 3 do
    ignore (Span.record "snapshot.compact" (fun () -> ok_exn (S.Server.compact server)))
  done;
  let bytes = Proc.file_bytes snap in
  let scrape = S.Metrics.render_text (S.Server.observability server) in
  S.Server.close server;
  ( [
      ("snapshot.write_ms", median_ms "snapshot.compact");
      ("snapshot.bytes", float_of_int bytes);
      ( "snapshot.bytes_written_per_event",
        float_of_int !written /. float_of_int (max 1 (Array.length inp.lines)) );
    ],
    scrape )

let traced f =
  Span.on := true;
  Fun.protect ~finally:(fun () -> Span.on := false) f

(* [Recovery.recover] three times over the given files *)
let recovery ?snapshot journal =
  let states =
    traced (fun () ->
        List.init 3 (fun _ ->
            Span.record "recovery.recover" (fun () ->
                ok_exn (S.Recovery.recover ?snapshot ~journal ()))))
  in
  let st = List.hd states in
  [
    ("recovery.recover_s", median_ms "recovery.recover" /. 1e3);
    ("recovery.events_from_snapshot", float_of_int st.S.Recovery.from_snapshot);
    ("recovery.events_from_journal", float_of_int st.S.Recovery.from_journal);
  ]

(* Counts from a METRICS scrape of the end-to-end run. *)
let counts scrape ~events =
  let v = prom_value scrape in
  let per a b = if b <= 0.0 then 0.0 else a /. b in
  [
    ( "server.lines_per_batch",
      per (v "dvbp_journal_batch_size_sum") (v "dvbp_journal_batch_size_count") );
    ("journal.fsyncs_per_event", per (v "dvbp_journal_fsyncs_total") events);
    ( "journal.bytes_per_event",
      per (v "dvbp_journal_bytes_written_total") (v "dvbp_journal_records_appended_total") );
    ("compaction.passes", v "dvbp_server_compactions_total");
    ("compaction.seconds_total", v "dvbp_server_compaction_seconds_sum");
  ]

(* Every layer but recovery, whose files the caller chooses. Also returns
   the journal the journal layer wrote and the METRICS text of the
   snapshot layer's server. *)
let measure inp =
  traced (fun () ->
      let session_m, records = session inp in
      let journal_m, journal_path = journal inp records in
      let snapshot_m, scrape = snapshot inp in
      let m = session_m @ trace_reader inp @ server inp @ journal_m @ snapshot_m in
      let get name = List.assoc name m in
      ( ( "server.prep_ns_per_event",
          get "server.batch_ns_per_event" -. get "session.apply_ns_per_event" )
        :: m,
        journal_path,
        scrape ))
