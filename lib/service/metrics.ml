module R = Dvbp_obs.Registry
module Histogram = Dvbp_obs.Histogram

type kind = Arrive | Depart | Stats | Snapshot | Metrics | Other

let kind_index = function
  | Arrive -> 0
  | Depart -> 1
  | Stats -> 2
  | Snapshot -> 3
  | Metrics -> 4
  | Other -> 5

let kind_name = function
  | Arrive -> "arrive"
  | Depart -> "depart"
  | Stats -> "stats"
  | Snapshot -> "snapshot"
  | Metrics -> "metrics"
  | Other -> "other"

let all_kinds = [ Arrive; Depart; Stats; Snapshot; Metrics; Other ]

type t = {
  reg : R.t;
  j_appends : R.Counter.t;
  j_bytes : R.Counter.t;
  j_fsyncs : R.Counter.t;
  j_fsync_seconds : Histogram.t;
  j_truncates : R.Counter.t;
  j_heals : R.Counter.t;
  j_batch_size : R.Histo.t;
  j_seals : R.Counter.t;
  j_retired : R.Counter.t;
  j_retired_bytes : R.Counter.t;
  j_live_segments : R.Gauge.t;
  j_live_bytes : R.Gauge.t;
  compactions : R.Counter.t;
  compaction_seconds : Histogram.t;
  compaction_lag : R.Gauge.t;
  gc_waiters : R.Gauge.t;
  recovery_seconds : R.Gauge.t;
  recovery_snapshot : R.Gauge.t;
  recovery_journal : R.Gauge.t;
  req_total : R.Counter.t array;  (* indexed by kind *)
  req_seconds : Histogram.t array;
  journal_append_seconds : Histogram.t;
  snapshot_seconds : Histogram.t;
  repack_migration_seconds : Histogram.t;
  (* per-tenant request instruments, created on a tenant's first event
     request (label cardinality = live tenants, bounded by the workload) *)
  tenant_req : (string, R.Counter.t * R.Histo.t) Hashtbl.t;
}

let build reg =
  let j_appends =
    R.Counter.make reg "dvbp_journal_records_appended_total"
      ~help:"Records appended to the journal by this process"
  in
  let j_bytes =
    R.Counter.make reg "dvbp_journal_bytes_written_total"
      ~help:"Journal record bytes written (including newlines)"
  in
  let j_fsyncs =
    R.Counter.make reg "dvbp_journal_fsyncs_total" ~help:"fsync(2) calls on the journal"
  in
  let j_fsync_seconds =
    R.Histo.make reg "dvbp_journal_fsync_seconds" ~help:"Latency of journal fsync calls"
  in
  let j_truncates =
    R.Counter.make reg "dvbp_journal_truncates_total"
      ~help:"Journal truncations (one per snapshot over a journaled server)"
  in
  let j_heals =
    R.Counter.make reg "dvbp_journal_torn_heals_total"
      ~help:"Torn or unterminated journal tails healed on open"
  in
  let j_batch_size =
    R.Histo.make reg "dvbp_journal_batch_size"
      ~help:"Records per group-commit batch (one fsync each)"
  in
  let j_seals =
    R.Counter.make reg "dvbp_journal_segments_sealed_total"
      ~help:"Journal segments sealed (footer written, renamed .seg)"
  in
  let j_retired =
    R.Counter.make reg "dvbp_journal_segments_retired_total"
      ~help:"Sealed segments unlinked by compaction"
  in
  let j_retired_bytes =
    R.Counter.make reg "dvbp_journal_retired_bytes_total"
      ~help:"Disk bytes reclaimed by retiring sealed segments"
  in
  let j_live_segments =
    R.Gauge.make reg "dvbp_journal_segments"
      ~help:"Live journal segment files (active included)"
  in
  let j_live_bytes =
    R.Gauge.make reg "dvbp_journal_live_bytes"
      ~help:"Total bytes across live journal segment files"
  in
  let compactions =
    R.Counter.make reg "dvbp_server_compactions_total"
      ~help:"Completed compaction passes (snapshot + segment retirement)"
  in
  let compaction_seconds =
    R.Histo.make reg "dvbp_server_compaction_seconds"
      ~help:"Wall time of a compaction pass, snapshot to last retire"
  in
  let compaction_lag =
    R.Gauge.make reg "dvbp_server_compaction_lag_events"
      ~help:"Events applied since the last durable snapshot frontier"
  in
  let gc_waiters =
    R.Gauge.make reg "dvbp_journal_group_commit_waiters"
      ~help:"Replies staged behind the in-flight group commit"
  in
  let recovery_seconds =
    R.Gauge.make reg "dvbp_recovery_seconds"
      ~help:"Wall time of the last resume: read, replay, writer reopened"
  in
  let recovery_events source =
    R.Gauge.make reg "dvbp_recovery_events"
      ~help:"Events the last resume restored, by source"
      ~labels:[ ("source", source) ]
  in
  let recovery_snapshot = recovery_events "snapshot" in
  let recovery_journal = recovery_events "journal" in
  let req_total =
    Array.of_list
      (List.map
         (fun k ->
           R.Counter.make reg "dvbp_server_requests_total"
             ~help:"Protocol lines handled, by request kind"
             ~labels:[ ("kind", kind_name k) ])
         all_kinds)
  in
  let req_seconds =
    Array.of_list
      (List.map
         (fun k ->
           R.Histo.make reg "dvbp_server_request_seconds"
             ~help:"End-to-end request handling latency, by request kind"
             ~labels:[ ("kind", kind_name k) ])
         all_kinds)
  in
  let journal_append_seconds =
    R.Histo.make reg "dvbp_server_journal_append_seconds"
      ~help:"Journal-before-reply write latency per applied event"
  in
  let snapshot_seconds =
    R.Histo.make reg "dvbp_server_snapshot_seconds"
      ~help:"Snapshot write latency (manual and auto)"
  in
  let repack_migration_seconds =
    R.Histo.make reg "dvbp_repack_migration_seconds"
      ~help:"Wall time attributed to one committed live migration"
  in
  {
    reg;
    j_appends;
    j_bytes;
    j_fsyncs;
    j_fsync_seconds;
    j_truncates;
    j_heals;
    j_batch_size;
    j_seals;
    j_retired;
    j_retired_bytes;
    j_live_segments;
    j_live_bytes;
    compactions;
    compaction_seconds;
    compaction_lag;
    gc_waiters;
    recovery_seconds;
    recovery_snapshot;
    recovery_journal;
    req_total;
    req_seconds;
    journal_append_seconds;
    snapshot_seconds;
    repack_migration_seconds;
    tenant_req = Hashtbl.create 16;
  }

let create ?(clock = Unix.gettimeofday) () = build (R.create ~clock ())
let noop () = build (R.noop ())
let is_noop t = R.is_noop t.reg
let registry t = t.reg
let now t = R.now t.reg

let on_append t ~bytes =
  R.Counter.incr t.j_appends;
  R.Counter.add t.j_bytes bytes

let on_append_batch t ~records ~bytes =
  R.Counter.add t.j_appends records;
  R.Counter.add t.j_bytes bytes;
  if not (R.is_noop t.reg) then
    Histogram.observe t.j_batch_size (float_of_int records)

let set_group_commit_waiters t n = R.Gauge.set t.gc_waiters (float_of_int n)

let time_fsync t f =
  if R.is_noop t.reg then f ()
  else begin
    let t0 = R.now t.reg in
    f ();
    Histogram.observe t.j_fsync_seconds (R.now t.reg -. t0);
    R.Counter.incr t.j_fsyncs
  end

let set_recovery t ~seconds ~from_snapshot ~from_journal =
  R.Gauge.set t.recovery_seconds seconds;
  R.Gauge.set t.recovery_snapshot (float_of_int from_snapshot);
  R.Gauge.set t.recovery_journal (float_of_int from_journal)

let on_truncate t = R.Counter.incr t.j_truncates
let on_heal t = R.Counter.incr t.j_heals
let on_seal t = R.Counter.incr t.j_seals

let on_retire t ~segments ~bytes =
  R.Counter.add t.j_retired segments;
  R.Counter.add t.j_retired_bytes bytes

let set_journal_live t ~segments ~bytes =
  R.Gauge.set t.j_live_segments (float_of_int segments);
  R.Gauge.set t.j_live_bytes (float_of_int bytes)

let on_compaction t ~seconds =
  R.Counter.incr t.compactions;
  if not (R.is_noop t.reg) then Histogram.observe t.compaction_seconds seconds

let set_compaction_lag t events = R.Gauge.set t.compaction_lag (float_of_int events)
let on_request t kind = R.Counter.incr t.req_total.(kind_index kind)

let observe_request t kind ~seconds =
  if not (R.is_noop t.reg) then Histogram.observe t.req_seconds.(kind_index kind) seconds

let observe_request_n t kind ~seconds k =
  if k > 0 && not (R.is_noop t.reg) then
    Histogram.observe_n t.req_seconds.(kind_index kind) seconds k

let time_journal_append t f =
  if R.is_noop t.reg then f ()
  else begin
    let t0 = R.now t.reg in
    let r = f () in
    Histogram.observe t.journal_append_seconds (R.now t.reg -. t0);
    r
  end

let time_snapshot t f =
  if R.is_noop t.reg then f ()
  else begin
    let t0 = R.Span.enter t.reg "snapshot" in
    let r = f () in
    R.Span.exit t.reg "snapshot" t0;
    Histogram.observe t.snapshot_seconds (R.now t.reg -. t0);
    r
  end

let request_summary t =
  Histogram.snapshot (Array.fold_left Histogram.merge (Histogram.create ()) t.req_seconds)

(* Per-tenant instruments are registered on the tenant's first event and
   memoized — [Registry] treats re-registering a (name, labels) pair as a
   programming error, so the Hashtbl is the single registration site. *)
let tenant_instruments t tenant =
  match Hashtbl.find_opt t.tenant_req tenant with
  | Some pair -> pair
  | None ->
      let labels = [ ("tenant", tenant) ] in
      let c =
        R.Counter.make t.reg "dvbp_server_tenant_requests_total"
          ~help:"Event requests handled, by tenant" ~labels
      in
      let h =
        R.Histo.make t.reg "dvbp_server_tenant_request_seconds"
          ~help:"Event request handling latency, by tenant" ~labels
      in
      Hashtbl.add t.tenant_req tenant (c, h);
      (c, h)

let observe_tenant_request t ~tenant ~seconds =
  if not (R.is_noop t.reg) then begin
    let c, h = tenant_instruments t tenant in
    R.Counter.incr c;
    Histogram.observe h seconds
  end

let observe_tenant_request_n t ~tenant ~seconds k =
  if k > 0 && not (R.is_noop t.reg) then begin
    let c, h = tenant_instruments t tenant in
    R.Counter.add c k;
    Histogram.observe_n h seconds k
  end

let attach_session t ?tenant ~policy session =
  if not (R.is_noop t.reg) then begin
    let module S = Dvbp_engine.Session in
    let labels =
      match tenant with
      | Some name when name <> Tenant.default -> [ ("policy", policy); ("tenant", name) ]
      | _ -> [ ("policy", policy) ]
    in
    let counter name help f = R.Counter.pull t.reg name ~help ~labels f in
    let gauge name help f = R.Gauge.pull t.reg name ~help ~labels f in
    counter "dvbp_engine_placements_total" "Successful arrivals placed" (fun () ->
        S.placements session);
    counter "dvbp_engine_departures_total" "Successful departures" (fun () ->
        S.departures session);
    counter "dvbp_engine_rejects_total" "Events refused with Session_error" (fun () ->
        S.rejects session);
    counter "dvbp_engine_bins_opened_total" "Bins opened since session start" (fun () ->
        S.bins_opened session);
    counter "dvbp_engine_bins_closed_total" "Bins opened and since closed" (fun () ->
        S.bins_closed session);
    gauge "dvbp_engine_open_bins" "Currently open bins" (fun () ->
        float_of_int (S.open_bin_count session));
    gauge "dvbp_engine_active_items" "Items placed and not yet departed" (fun () ->
        float_of_int (S.active_items session));
    gauge "dvbp_engine_max_open_bins" "Peak simultaneously open bins" (fun () ->
        float_of_int (S.max_open_bins session));
    gauge "dvbp_engine_clock" "Session clock (workload time)" (fun () -> S.now session);
    gauge "dvbp_engine_cost_bin_seconds" "Accumulated MinUsageTime cost" (fun () ->
        S.cost_so_far session);
    counter "dvbp_engine_fit_scans_total" "Fit scans over the open-bin registry"
      (fun () -> (S.scan_stats session).Dvbp_core.Bin_registry.scans);
    counter "dvbp_engine_fit_scan_candidates_total"
      "Open-bin slots examined across all fit scans" (fun () ->
        (S.scan_stats session).Dvbp_core.Bin_registry.candidates);
    counter "dvbp_engine_recheck_memo_hits_total"
      "Any-Fit conformance rechecks answered by the miss memo" (fun () ->
        (S.scan_stats session).Dvbp_core.Bin_registry.memo_hits);
    (* info-style gauge: constant 1, the kernel lives in the label, so a
       scrape can tell which fit kernel the registry selected at create *)
    let kernel_labels = ("kernel", S.fit_kernel session) :: labels in
    R.Gauge.pull t.reg "dvbp_engine_fit_kernel_info"
      ~help:"Fit-scan kernel selected at session create (swar or scalar)"
      ~labels:kernel_labels
      (fun () -> 1.0)
  end

let observe_migration t ~seconds =
  if not (R.is_noop t.reg) then Histogram.observe t.repack_migration_seconds seconds

let attach_repack t ~policy repack =
  if not (R.is_noop t.reg) then begin
    let module Rp = Dvbp_engine.Repack in
    let labels = [ ("policy", policy) ] in
    let counter name help f =
      R.Counter.pull t.reg name ~help ~labels (fun () -> f (Rp.stats repack))
    in
    counter "dvbp_repack_migrations_total" "Items live-migrated between bins"
      (fun s -> s.Rp.migrations);
    counter "dvbp_repack_migration_events_total"
      "Events that committed at least one migration" (fun s -> s.Rp.migration_events);
    counter "dvbp_repack_bins_emptied_total"
      "Bins drained empty and closed early by migration" (fun s -> s.Rp.drained_bins);
    counter "dvbp_repack_consolidations_total"
      "Arrivals placed by eviction instead of opening a fresh bin" (fun s ->
        s.Rp.consolidations);
    counter "dvbp_repack_budget_exhausted_total"
      "Migration opportunities declined only because the budget was too small"
      (fun s -> s.Rp.budget_exhausted)
  end

let render_text t = R.render ~spans:true t.reg ^ "# EOF"
