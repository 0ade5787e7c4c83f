(* The dvbp benchmark harness.

     perfbench --dvbp PATH --workload NAME --seed N --seconds S --trace 0|1
     perfbench --dvbp PATH --self-test

   Generates the workload's inputs from the seed, runs the real program in
   fresh child processes ([dvbp serve --listen], or a replay child of this
   executable), checks every output, and prints one JSON object as the
   last line of stdout: the end-to-end metrics with [--trace 0], the
   per-layer metrics with [--trace 1]. NOTES.md describes the workloads
   and how each metric is measured. *)

module Vec = Dvbp_vec.Vec
module Rng = Dvbp_prelude.Rng
module Instance = Dvbp_core.Instance
module Policy = Dvbp_core.Policy
module Packing = Dvbp_core.Packing
module Engine = Dvbp_engine.Engine
module Session = Dvbp_engine.Session
module W = Dvbp_workload
module Bounds = Dvbp_lowerbound.Bounds
module T = Dvbp_tracestore
module Loadgen = Dvbp_service.Loadgen
module Summary = Dvbp_stats.Summary

let ( // ) = Filename.concat
let ok_exn = Layers.ok_exn

(* scratch space inside the checkout; a unix socket path must stay short *)
let work_root = ".perfbench"
let work = work_root // "run"
let sock = work // "s"

let end_to_end =
  [
    ("setup_s", "s");
    ("events_per_s", "1/s");
    ("latency_p50_us", "us");
    ("recover_s", "s");
    ("peak_rss_mb", "MiB");
    ("disk_mb", "MiB");
    ("cost_over_lb", "ratio");
  ]

let per_layer =
  [
    ("session.apply_ns_per_event", "ns");
    ("session.candidates_per_arrival", "count");
    ("session.memo_hit_frac", "ratio");
    ("session.open_bins_peak", "count");
    ("trace_reader.ns_per_event", "ns");
    ("trace_reader.resident_bytes_max", "bytes");
    ("server.batch_ns_per_event", "ns");
    ("server.prep_ns_per_event", "ns");
    ("server.lines_per_batch", "count");
    ("server.cpu_s_per_mevent", "s");
    ("journal.encode_ns_per_event", "ns");
    ("journal.append_ns_per_event", "ns");
    ("journal.fsync_us_p50", "us");
    ("journal.fsyncs_per_event", "ratio");
    ("journal.bytes_per_event", "bytes");
    ("snapshot.write_ms", "ms");
    ("snapshot.bytes", "bytes");
    ("snapshot.bytes_written_per_event", "bytes");
    ("compaction.passes", "count");
    ("compaction.seconds_total", "s");
    ("recovery.recover_s", "s");
    ("recovery.events_from_snapshot", "count");
    ("recovery.events_from_journal", "count");
    ("event_loop.residual_ns_per_event", "ns");
    ("obs.render_us", "us");
    ("obs.overhead_ns_per_event", "ns");
    ("loadgen.lag_us_p99", "us");
    ("trace.overhead_frac", "ratio");
    ("latency.p99_us", "us");
    ("latency.samples", "count");
  ]

(* Input sizes: [full] is what the benchmark measures, [tiny] what the
   self-test runs. *)
type sizes = {
  pipelined_items : int;  (* items per tenant in one serve-pipelined trial *)
  window : int;  (* requests in flight per serve-pipelined connection *)
  paced_rate : float;  (* serve-paced offered load, events per second *)
  paced_seconds : float;  (* length of one serve-paced trial's schedule *)
  wide_items : int;
  wide_span : int;
  min_trials : int;
}

let full =
  {
    pipelined_items = 10_000;
    window = 1024;
    paced_rate = 5_000.0;
    paced_seconds = 10.0;
    wide_items = 40_000;
    wide_span = 1600;
    min_trials = 3;
  }

let tiny =
  {
    pipelined_items = 400;
    window = 64;
    paced_rate = 2_000.0;
    paced_seconds = 1.0;
    wide_items = 1_500;
    wide_span = 300;
    min_trials = 2;
  }

type run = {
  dvbp : string;
  sizes : sizes;
  seed : int;
  seconds : float;
  traced : bool;
  fsync_every : int option;  (* off-the-record layer-separation runs *)
  corrupt : bool;  (* self-test: alter one expected output *)
}

type result = { mutable attempted : int; mutable failed : int; mutable values : (string * float) list }

let check res what ok =
  res.attempted <- res.attempted + 1;
  if not ok then begin
    res.failed <- res.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let set res name v = res.values <- (name, v) :: res.values
let set_all res l = List.iter (fun (n, v) -> set res n v) l

let ops res ~attempted ~failed =
  res.attempted <- res.attempted + attempted;
  res.failed <- res.failed + failed

let rate (o : Wire.outcome) = float_of_int o.Wire.replies /. (o.Wire.last_reply -. o.Wire.started)

(* A run's figure from its samples. On a shared host the same work takes
   up to 1.7 times longer from one moment to the next, and how much of a
   run the slow spells cover changes from run to run, so a median jumps
   between the two speeds while a mean moves in proportion. The
   interquartile mean moves in proportion too and ignores the odd stall. *)
let steady f l = Stats.iqm (Array.of_list (List.map f l))

(* An end-to-end figure from its samples, which also go to stderr as
   they are. *)
let figure name samples =
  Printf.eprintf "samples %s %s\n%!" name
    (String.concat " " (List.map (Printf.sprintf "%.6g") samples));
  steady Fun.id samples

(* ---------- serving ---------- *)

type serve_cfg = {
  policy : string;
  capacity : Vec.t;
  flags : string -> string list;  (* journal and snapshot flags, for a directory *)
}

let capacity_arg v = String.concat "," (List.map string_of_int (Array.to_list (Vec.to_array v)))

(* Starts [dvbp serve --listen]. Its set-up time runs from the spawn to
   the first reply, to a STATS. *)
let start_server r cfg ~dir ~resume =
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ "serve"; "--listen"; sock; "--policy"; cfg.policy; "--seed"; string_of_int r.seed ]
    @ [ "--capacity"; capacity_arg cfg.capacity ]
    @ cfg.flags dir
    @ (match r.fsync_every with Some n -> [ "--fsync-every"; string_of_int n ] | None -> [])
    @ if resume then [ "--resume" ] else []
  in
  let t0 = Unix.gettimeofday () in
  let pid = Proc.spawn r.dvbp args in
  let ctl = Wire.ctl (Wire.connect ~pid ~deadline:(t0 +. 60.0) sock) in
  let stats = Wire.request ctl "STATS" in
  (pid, ctl, stats, Unix.gettimeofday () -. t0)

let stats_field line key =
  List.find_map
    (fun f ->
      match String.index_opt f '=' with
      | Some i when String.sub f 0 i = key -> Some (String.sub f (i + 1) (String.length f - i - 1))
      | _ -> None)
    (String.split_on_char ' ' line)

(* The STATS fields that describe the packing state. Request counters and
   latencies restart with every server process by design. *)
let state line =
  List.map (stats_field line) [ "events"; "open_bins"; "bins_opened"; "active_items"; "clock"; "cost" ]

let cost_field line =
  match stats_field line "cost" with Some c -> float_of_string c | None -> Float.nan

type served = {
  setup : float;
  out : Wire.outcome;
  final : string;  (* the last STATS reply *)
  scrape : string;  (* the last METRICS reply *)
  hwm_kb : int;
  cpu_s : float;
  disk : int;  (* journal plus snapshot bytes at the end *)
}

(* One fresh server over [dir]; [drive pid] is the timed phase. *)
let serve_once r res cfg ~dir drive =
  Proc.fresh_dir dir;
  let pid, ctl, _, setup = start_server r cfg ~dir ~resume:false in
  check res "the load generator is the only thread of its process" (Proc.own_threads () = 1);
  let out = drive pid in
  ops res ~attempted:out.Wire.entries ~failed:out.Wire.failed;
  let final = Wire.request ctl "STATS" in
  let scrape = Wire.scrape ctl in
  let hwm_kb = Proc.vm_hwm_kb (string_of_int pid) in
  Wire.close_ctl ctl;
  let cpu_s = Proc.stop pid in
  { setup; out; final; scrape; hwm_kb; cpu_s; disk = Proc.dir_bytes dir }

let data_conn pid = Wire.connect ~pid ~deadline:(Unix.gettimeofday () +. 10.0) sock

(* [serve --resume] on the files a stopped server left, until its first
   reply. The resumed server must report the state the stopped one last
   reported. *)
let resume r res cfg ~dir ~final =
  let before = Calib.time () in
  let pid, ctl, stats, secs = start_server r cfg ~dir ~resume:true in
  Wire.close_ctl ctl;
  ignore (Proc.stop pid);
  let after = Calib.time () in
  Printf.eprintf "raw recover_s %.6g\n" secs;
  check res "the resumed server reports the stopped server's state" (state stats = state final);
  Calib.scale ~before ~after secs

let expected_pairs ~policy ~seed (tenant, inst) =
  ok_exn (Loadgen.expected_replies ~tenant ~policy ~seed inst)

let lower_bound tenants =
  List.fold_left (fun acc (_, inst) -> acc +. Bounds.height_integral inst) 0.0 tenants

(* replies per second over consecutive chunks of [k] replies *)
let chunk_rates k (o : Wire.outcome) =
  List.init (Array.length o.Wire.latency_us / k) (fun j ->
      let t0 = if j = 0 then o.Wire.started else o.Wire.reply_at.((j * k) - 1) in
      let t1 = o.Wire.reply_at.(((j + 1) * k) - 1) in
      float_of_int k /. (t1 -. t0))

(* every raw latency of the trials, sorted *)
let pooled (trials : served list) =
  Stats.sorted (Array.concat (List.map (fun t -> t.out.Wire.latency_us) trials))

let trial_slice (t : served) =
  let lat = Stats.sorted t.out.Wire.latency_us in
  (rate t.out, Summary.quantile lat 0.5, Summary.quantile lat 0.99)

let served_metrics res ~rates ~p50 ~p99 ~(plain : served list) ~setups ~recover ~tenants
    ~(last : served) =
  set_all res
    [
      ("setup_s", figure "setup_s" setups);
      ("events_per_s", figure "events_per_s" rates);
      ("latency_p50_us", p50);
      ("latency.p99_us", p99);
      ("recover_s", figure "recover_s" recover);
      ("peak_rss_mb", steady (fun t -> float_of_int t.hwm_kb /. 1024.0) plain);
      ("disk_mb", steady (fun t -> float_of_int t.disk /. 1048576.0) plain);
      ("cost_over_lb", cost_field last.final /. lower_bound tenants);
      ( "latency.samples",
        float_of_int (List.fold_left (fun acc t -> acc + Array.length t.out.Wire.latency_us) 0 plain) );
    ]

(* The per-layer numbers of a served workload: the layers measured
   in-process, recovery over the end-to-end run's final files, counts from
   its last METRICS scrape. *)
let served_layers r res ~policy ~capacity ~tenants ~lines ~segment_bytes ~retain_segments
    ~recover_files ~(trials : served list) ~residual =
  let last = List.nth trials (List.length trials - 1) in
  let events = float_of_int (Array.length lines) in
  let counts = Layers.counts last.scrape ~events in
  let dir = work // "layers" in
  Proc.fresh_dir dir;
  let traces =
    List.mapi
      (fun k (_, inst) ->
        let path = dir // Printf.sprintf "t%d.dvbpt" k in
        ignore (ok_exn (T.Compile.of_instance ~path inst));
        path)
      tenants
  in
  let batch = max 1 (int_of_float (Float.round (List.assoc "server.lines_per_batch" counts))) in
  let m, _, _ =
    Layers.measure
      {
        Layers.policy;
        seed = r.seed;
        capacity;
        fsync_every = Option.value r.fsync_every ~default:64;
        tenants;
        lines;
        batch;
        segment_bytes;
        retain_segments;
        traces;
        dir;
      }
  in
  let m = m @ counts @ recover_files () in
  let get name = List.assoc name m in
  let served_events = List.fold_left (fun acc t -> acc + t.out.Wire.replies) 0 trials in
  set_all res m;
  set_all res
    [
      ( "server.cpu_s_per_mevent",
        List.fold_left (fun acc t -> acc +. t.cpu_s) 0.0 trials
        /. float_of_int (max 1 served_events)
        *. 1e6 );
      ("event_loop.residual_ns_per_event", residual get);
      ( "loadgen.lag_us_p99",
        Summary.quantile (Stats.sorted (Array.concat (List.map (fun t -> t.out.Wire.lag_us) trials))) 0.99
      );
    ]

(* Round-robin over the tenants' lines, as the server's event loop drains
   its connections. *)
let interleave lists =
  let arrs = List.map Array.of_list lists in
  let n = List.fold_left (fun acc a -> max acc (Array.length a)) 0 arrs in
  List.init n (fun i -> List.filter_map (fun a -> if i < Array.length a then Some a.(i) else None) arrs)
  |> List.concat |> Array.of_list

(* serve-pipelined: two connections from this thread, one Table 2
   uniform tenant each (d=2, mu=100, span = items so the live set stays
   Table 2's), a deep window, policy mtf, journal with group commit at the
   default ceiling. Trials of the same stream on fresh servers repeat
   until the run's seconds are spent; traced runs alternate traced and
   plain trials. *)
let serve_pipelined r res =
  let policy = "mtf" in
  let items = r.sizes.pipelined_items in
  let params = { (W.Uniform_model.table2 ~d:2 ~mu:100) with W.Uniform_model.n = items; span = items } in
  let root = Rng.create ~seed:r.seed in
  let tenants =
    List.init 2 (fun k ->
        (Printf.sprintf "t%d" k, W.Uniform_model.generate params ~rng:(Rng.split root ~key:k)))
  in
  let pairs = List.map (expected_pairs ~policy ~seed:r.seed) tenants in
  let streams = List.map Wire.of_pairs pairs in
  let streams = if r.corrupt then Wire.corrupt (List.hd streams) :: List.tl streams else streams in
  let cfg =
    { policy; capacity = W.Uniform_model.capacity params; flags = (fun dir -> [ "--journal"; dir // "j" ]) }
  in
  let dir = work // "pipelined" in
  let drive pid =
    let conns = List.map (fun s -> Wire.conn (data_conn pid) s) streams in
    let window = r.sizes.window in
    let out = Wire.closed ~window ~refill:(window / 4) ~stall:30.0 conns in
    List.iter (fun c -> Unix.close c.Wire.fd) conns;
    out
  in
  let t0 = Unix.gettimeofday () in
  let rec trials k acc =
    if k >= r.sizes.min_trials && Unix.gettimeofday () -. t0 >= r.seconds then List.rev acc
    else begin
      let traced = r.traced && k mod 2 = 1 in
      Span.on := traced;
      let t = Span.record "trial" (fun () -> serve_once r res cfg ~dir drive) in
      Span.on := false;
      (* recovery of every trial's files, so that its samples spread over
         the run like the others; the first is a warm-up *)
      let recovered = resume r res cfg ~dir ~final:t.final in
      trials (k + 1) ((traced, t, recovered) :: acc)
    end
  in
  let all = trials 0 [] in
  let plain = List.filter_map (fun (traced, t, _) -> if traced then None else Some t) all in
  let traced = List.filter_map (fun (traced, t, _) -> if traced then Some t else None) all in
  let servers = List.map (fun (_, t, _) -> t) all in
  let last = List.nth servers (List.length servers - 1) in
  List.iter
    (fun t -> check res "every trial ends in the same state" (state t.final = state last.final))
    servers;
  let slices = List.map trial_slice plain in
  served_metrics res
    ~rates:(List.map (fun (x, _, _) -> x) slices)
    ~p50:(figure "latency_p50_us" (List.map (fun (_, x, _) -> x) slices))
    ~p99:(figure "latency.p99_us" (List.map (fun (_, _, x) -> x) slices))
    ~plain
    ~setups:(List.map (fun t -> t.setup) servers)
    ~recover:(List.tl (List.map (fun (_, _, secs) -> secs) all))
    ~tenants ~last;
  if r.traced then begin
    let e2e_ns = 1e9 /. steady (fun t -> rate t.out) plain in
    served_layers r res ~policy ~capacity:cfg.capacity ~tenants
      ~lines:(interleave (List.map (List.map fst) pairs))
      ~segment_bytes:None ~retain_segments:None
      ~recover_files:(fun () -> Layers.recovery (dir // "j"))
      ~trials:servers
      ~residual:(fun get ->
        e2e_ns
        -. get "server.batch_ns_per_event"
        -. get "journal.append_ns_per_event"
        -. (get "journal.fsync_us_p50" *. 1e3 *. get "journal.fsyncs_per_event"));
    set res "trace.overhead_frac"
      (steady (fun t -> rate t.out) plain /. steady (fun t -> rate t.out) traced -. 1.0)
  end

(* The protocol time field of "ARRIVE|DEPART <tenant> <t> ..." *)
let line_time line =
  match String.split_on_char ' ' line with
  | _ :: _ :: t :: _ -> float_of_string t
  | _ -> invalid_arg line

(* serve-paced: one connection, open loop at a fixed rate, four azure_mix
   tenants interleaved by event time, a STATS and a METRICS scrape every
   quarter second; journal, snapshots and online compaction on. *)
let serve_paced r res =
  let policy = "mtf" in
  let rate_hz = r.sizes.paced_rate in
  let events = max 64 (int_of_float (rate_hz *. r.sizes.paced_seconds)) in
  let root = Rng.create ~seed:r.seed in
  let tenants =
    List.init 4 (fun k ->
        ( Printf.sprintf "t%d" k,
          W.Azure_mix.generate
            { W.Azure_mix.default with W.Azure_mix.n = max 1 (events / 8) }
            ~rng:(Rng.split root ~key:k) ))
  in
  let pairs = List.map (expected_pairs ~policy ~seed:r.seed) tenants in
  (* by event time; each tenant keeps its own order *)
  let merged =
    List.mapi (fun k ps -> List.mapi (fun i (l, rep) -> ((line_time l, k, i), l, rep)) ps) pairs
    |> List.concat
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    |> List.map (fun (_, l, rep) -> (l, rep))
  in
  let scrape_every = max 1 (int_of_float (rate_hz /. 4.0)) in
  let entries, due =
    List.mapi
      (fun j (l, rep) ->
        let d = float_of_int j /. rate_hz in
        if (j + 1) mod scrape_every = 0 then
          [ ((l, Wire.Exact, rep), d); (("STATS", Wire.Stats, ""), d); (("METRICS", Wire.Metrics, ""), d) ]
        else [ ((l, Wire.Exact, rep), d) ])
      merged
    |> List.concat |> List.split
  in
  let s = Wire.stream entries in
  let s = if r.corrupt then Wire.corrupt s else s in
  let due = Array.of_list due in
  let cfg =
    {
      policy;
      capacity = (snd (List.hd tenants)).Instance.capacity;
      flags =
        (fun dir ->
          [ "--journal"; dir // "j"; "--snapshot"; dir // "snap" ]
          @ [ "--segment-bytes"; "65536"; "--retain-segments"; "2" ]);
    }
  in
  (* more set-up samples: the same start-up over fresh directories *)
  let setups =
    List.init 4 (fun k ->
        let d = work // Printf.sprintf "setup%d" k in
        Proc.fresh_dir d;
        let pid, ctl, _, secs = start_server r cfg ~dir:d ~resume:false in
        Wire.close_ctl ctl;
        ignore (Proc.stop pid);
        Proc.rm_rf d;
        secs)
  in
  let dir = work // "paced" in
  let once traced =
    Span.on := traced;
    let t =
      Span.record "trial" (fun () ->
          serve_once r res cfg ~dir (fun pid ->
              let fd = data_conn pid in
              let out = Wire.paced ~due ~stall:30.0 fd s in
              Unix.close fd;
              out))
    in
    Span.on := false;
    t
  in
  let t0 = Unix.gettimeofday () in
  let rec trials k acc =
    if k >= r.sizes.min_trials && Unix.gettimeofday () -. t0 >= r.seconds then List.rev acc
    else begin
      let traced = r.traced && k mod 2 = 1 in
      let t = once traced in
      (* one untimed restart, then five timed ones, after every trial *)
      let recovered = List.tl (List.init 6 (fun _ -> resume r res cfg ~dir ~final:t.final)) in
      trials (k + 1) ((traced, t, recovered) :: acc)
    end
  in
  let all = trials 0 [] in
  let plain = List.filter_map (fun (traced, t, _) -> if traced then None else Some t) all in
  let traced = List.filter_map (fun (traced, t, _) -> if traced then Some t else None) all in
  let servers = List.map (fun (_, t, _) -> t) all in
  let last = List.nth servers (List.length servers - 1) in
  List.iter
    (fun t -> check res "every trial ends in the same state" (state t.final = state last.final))
    servers;
  (* Latency percentiles over every raw sample of the run: snapshot
     stalls and the host's slow spells raise whole stretches of replies,
     which shift a mean of per-slice medians but barely move the median of
     all replies. *)
  let p50 ts = Summary.quantile (pooled ts) 0.5 in
  served_metrics res
    ~rates:(List.concat_map (fun t -> chunk_rates (max 1 (int_of_float (rate_hz /. 2.0))) t.out) plain)
    ~p50:(p50 plain)
    ~p99:(Summary.quantile (pooled plain) 0.99)
    ~plain
    ~setups:(setups @ List.map (fun t -> t.setup) servers)
    ~recover:(List.concat_map (fun (_, _, secs) -> secs) all)
    ~tenants ~last;
  if r.traced then begin
    served_layers r res ~policy ~capacity:cfg.capacity ~tenants
      ~lines:(Array.of_list (List.map fst merged))
      ~segment_bytes:(Some 65536) ~retain_segments:(Some 2)
      ~recover_files:(fun () -> Layers.recovery ~snapshot:(dir // "snap") (dir // "j"))
      ~trials:servers
      ~residual:(fun get ->
        (* a request's life is one tick: its batch, one commit, one fsync *)
        (p50 plain *. 1e3)
        -. (get "server.lines_per_batch"
            *. (get "server.batch_ns_per_event" +. get "journal.append_ns_per_event"))
        -. (get "journal.fsync_us_p50" *. 1e3));
    set res "trace.overhead_frac" ((p50 traced /. p50 plain) -. 1.0)
  end

(* ---------- replay ---------- *)

(* The child side of replay-wide: open the trace and create the session
   fifteen times (set-up, reported as the median), stream every block
   into the last session, then verify the whole trace (every CRC and the
   sort order). Prints "key value" lines. *)
let replay_child ~trace ~seed ~spans =
  let started = Unix.gettimeofday () in
  let open_session () =
    let reader = ok_exn (T.Trace_reader.open_file trace) in
    let capacity = (T.Trace_reader.header reader).T.Binfmt.capacity in
    let policy = Policy.of_name_exn ~rng:(Rng.create ~seed) "bf" in
    (reader, Session.create ~record_trace:false ~capacity ~policy ())
  in
  let setups = Array.make 15 0.0 in
  let current = ref None in
  for k = 0 to Array.length setups - 1 do
    Option.iter (fun (reader, _) -> T.Trace_reader.close reader) !current;
    let t0 = Unix.gettimeofday () in
    current := Some (open_session ());
    setups.(k) <- Unix.gettimeofday () -. t0
  done;
  let reader, session = Option.get !current in
  Span.on := spans <> "";
  let blocks = T.Trace_reader.blocks reader in
  (* calibrated block times; a calibration after every group of blocks *)
  let block_us = Array.make blocks 0.0 in
  let raw_us = Array.make blocks 0.0 in
  let events = ref 0 in
  let wall = ref 0.0 and calibrated = ref 0.0 and calibs = ref [] in
  let before = ref (Calib.time ()) in
  let group = 8 in
  for g = 0 to ((blocks + group - 1) / group) - 1 do
    let first = g * group and last = min blocks ((g + 1) * group) - 1 in
    for b = first to last do
      let b0 = Unix.gettimeofday () in
      Span.record "replay.block" (fun () ->
          List.iter
            (fun ev ->
              ignore (Session.apply session (Layers.session_event ev));
              incr events)
            (ok_exn (T.Trace_reader.read_block reader b)));
      raw_us.(b) <- (Unix.gettimeofday () -. b0) *. 1e6
    done;
    let after = Calib.time () in
    for b = first to last do
      block_us.(b) <- Calib.scale ~before:!before ~after raw_us.(b);
      wall := !wall +. (raw_us.(b) /. 1e6);
      calibrated := !calibrated +. (block_us.(b) /. 1e6)
    done;
    calibs := after :: !calibs;
    before := after
  done;
  T.Trace_reader.close reader;
  let v0 = Unix.gettimeofday () in
  let verified = ok_exn (T.Trace_reader.with_file trace T.Trace_reader.verify) in
  let verify_s = Unix.gettimeofday () -. v0 in
  let verify_cal = Calib.scale ~before:!before ~after:(Calib.time ()) verify_s in
  if spans <> "" then Span.write spans;
  Printf.printf "started %.6f\nsetup %.9g\nwall %.9g\nwall_cal %.9g\nevents %d\nverified %d\n"
    started (Summary.quantile (Stats.sorted setups) 0.5) !wall !calibrated !events verified;
  Printf.printf "verify_s %.9g\nhwm_kb %d\nfingerprint %s\nblocks_us %s\ncalib_us %.1f\n" verify_cal
    (Proc.vm_hwm_kb "self") (Session.fingerprint session)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") block_us)))
    (Summary.quantile (Stats.sorted (Array.of_list !calibs)) 0.5 *. 1e6)

(* What [Session.fingerprint] must read after the replay, from
   [Engine.run] over the same instance: every item departed, no bin open,
   the cost summed in the session's order (newest bin first). *)
let expected_fingerprint inst (run : Engine.run) =
  let cost =
    Dvbp_prelude.Floatx.kahan_sum
      (List.rev_map
         (fun (b : Packing.bin_record) -> Dvbp_interval.Interval.length b.Packing.interval)
         run.Engine.packing.Packing.bins)
  in
  Printf.sprintf "clock=%.17g cost=%.17g opened=%d max_open=%d active=0 open=[]"
    (Instance.horizon inst) cost run.Engine.bins_opened run.Engine.max_open_bins

type replayed = {
  r_setup : float;
  r_rate : float;  (* events per second of the reference host *)
  r_raw_rate : float;  (* events per second of this host, as it ran *)
  r_calib_us : float;  (* the child's median calibration time *)
  r_events : int;
  r_verify : float;
  r_hwm_kb : int;
  r_fingerprint : string;
  r_blocks_us : float array;
  r_lag_us : float;
  r_cpu : float;
  r_traced : bool;
}

let fields out =
  List.filter_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      | None -> None)
    (String.split_on_char '\n' out)

(* replay-wide: a compiled binary trace (uniform, d=5, mu=200, dense
   enough for thousands of open bins) streamed through the trace reader
   into one bf Session, in a fresh child process per replay, until the
   run's seconds are spent. *)
let replay_wide r res =
  let dir = work // "wide" in
  Proc.fresh_dir dir;
  let trace = dir // "wide.dvbpt" in
  let params =
    { (W.Uniform_model.table2 ~d:5 ~mu:200) with
      W.Uniform_model.n = r.sizes.wide_items;
      span = r.sizes.wide_span }
  in
  let generated = W.Uniform_model.generate params ~rng:(Rng.create ~seed:r.seed) in
  ignore (ok_exn (T.Compile.of_instance ~path:trace generated));
  let inst = ok_exn (T.Trace_reader.with_file trace T.Compile.to_instance) in
  let policy = Policy.of_name_exn ~rng:(Rng.create ~seed:r.seed) "bf" in
  let run = Engine.run ~record_trace:false ~policy inst in
  let expected = expected_fingerprint inst run ^ if r.corrupt then "x" else "" in
  let t0 = Unix.gettimeofday () in
  let rec replays k acc =
    if k >= r.sizes.min_trials && Unix.gettimeofday () -. t0 >= r.seconds then List.rev acc
    else begin
      let traced = r.traced && k mod 2 = 1 in
      let spans =
        if traced then [ "--spans"; work_root // Printf.sprintf "spans-replay-child-%d.tsv" k ]
        else []
      in
      check res "the harness is the only thread of its process" (Proc.own_threads () = 1);
      let spawned = Unix.gettimeofday () in
      let out, status, cpu =
        Proc.run_capture Sys.executable_name
          ([ "--replay-child"; trace; "--seed"; string_of_int r.seed ] @ spans)
      in
      check res "the replay child exits 0" (status = Unix.WEXITED 0);
      let f = fields out in
      let get k =
        match List.assoc_opt k f with
        | Some v -> v
        | None -> failwith ("the replay child printed no " ^ k)
      in
      let num k = float_of_string (get k) in
      let events = int_of_string (get "events") in
      ops res ~attempted:events ~failed:0;
      check res "the replayed fingerprint equals Engine.run's" (get "fingerprint" = expected);
      check res "verify counts every event" (int_of_string (get "verified") = events);
      let one =
        {
          r_setup = num "setup";
          r_rate = float_of_int events /. num "wall_cal";
          r_raw_rate = float_of_int events /. num "wall";
          r_calib_us = num "calib_us";
          r_events = events;
          r_verify = num "verify_s";
          r_hwm_kb = int_of_string (get "hwm_kb");
          r_fingerprint = get "fingerprint";
          r_blocks_us =
            Array.of_list (List.map float_of_string (String.split_on_char ' ' (get "blocks_us")));
          r_lag_us = (num "started" -. spawned) *. 1e6;
          r_cpu = cpu;
          r_traced = traced;
        }
      in
      replays (k + 1) (one :: acc)
    end
  in
  let all = replays 0 [] in
  let plain = List.filter (fun x -> not x.r_traced) all in
  ignore (figure "raw.events_per_s" (List.map (fun x -> x.r_raw_rate) plain));
  ignore (figure "calib_us" (List.map (fun x -> x.r_calib_us) plain));
  let eps = figure "events_per_s" (List.map (fun x -> x.r_rate) plain) in
  let block_quantile q x = Summary.quantile (Stats.sorted x.r_blocks_us) q in
  set_all res
    [
      ("setup_s", figure "setup_s" (List.map (fun x -> x.r_setup) all));
      ("events_per_s", eps);
      ("latency_p50_us", figure "latency_p50_us" (List.map (block_quantile 0.5) plain));
      ("latency.p99_us", figure "latency.p99_us" (List.map (block_quantile 0.99) plain));
      ("recover_s", figure "recover_s" (List.map (fun x -> x.r_verify) all));
      ("peak_rss_mb", steady (fun x -> float_of_int x.r_hwm_kb /. 1024.0) all);
      ("disk_mb", float_of_int (Proc.file_bytes trace) /. 1048576.0);
      ( "cost_over_lb",
        float_of_string (Option.get (stats_field (List.hd all).r_fingerprint "cost"))
        /. Bounds.height_integral inst );
      ( "latency.samples",
        float_of_int (List.fold_left (fun acc x -> acc + Array.length x.r_blocks_us) 0 plain) );
    ];
  if r.traced then begin
    let ldir = work // "layers" in
    Proc.fresh_dir ldir;
    let m, journal, scrape =
      Layers.measure
        {
          Layers.policy = "bf";
          seed = r.seed;
          capacity = inst.Instance.capacity;
          fsync_every = Option.value r.fsync_every ~default:64;
          tenants = [ (Dvbp_service.Tenant.default, inst) ];
          lines = Array.of_list (Loadgen.script inst);
          batch = T.Binfmt.default_block_size;
          segment_bytes = None;
          retain_segments = None;
          traces = [ trace ];
          dir = ldir;
        }
    in
    let events = float_of_int (2 * Instance.size inst) in
    let m = m @ Layers.counts scrape ~events @ Layers.recovery journal in
    let get name = List.assoc name m in
    let traced_rate = steady (fun x -> x.r_rate) (List.filter (fun x -> x.r_traced) all) in
    set_all res m;
    set_all res
      [
        ( "server.cpu_s_per_mevent",
          List.fold_left (fun acc x -> acc +. x.r_cpu) 0.0 all
          /. float_of_int (List.fold_left (fun acc x -> acc + x.r_events) 0 all)
          *. 1e6 );
        ( "event_loop.residual_ns_per_event",
          (* the layers ran at this host's speed, so the raw rate *)
          (1e9 /. steady (fun x -> x.r_raw_rate) plain)
          -. get "session.apply_ns_per_event"
          -. get "trace_reader.ns_per_event" );
        ( "loadgen.lag_us_p99",
          Summary.quantile (Stats.sorted (Array.of_list (List.map (fun x -> x.r_lag_us) all))) 0.99 );
        ("trace.overhead_frac", (eps /. traced_rate) -. 1.0);
      ]
  end

(* ---------- running and reporting ---------- *)

let workloads =
  [ ("serve-pipelined", serve_pipelined); ("serve-paced", serve_paced); ("replay-wide", replay_wide) ]

let execute name f r =
  let res = { attempted = 0; failed = 0; values = [] } in
  Proc.rm_rf work_root;
  Unix.mkdir work_root 0o755;
  Unix.mkdir work 0o755;
  f r res;
  if r.traced then Span.write (work_root // Printf.sprintf "spans-%s.tsv" name);
  Span.finished := [];
  Proc.rm_rf work;
  res

let json res table =
  let metric (name, unit) =
    let v = match List.assoc_opt name res.values with Some v -> v | None -> Float.nan in
    check res (name ^ " was measured and is finite") (Float.is_finite v);
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
      unit
  in
  let metrics = String.concat ", " (List.map metric table) in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (res.failed = 0) res.attempted res.failed metrics

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A tiny pass of every workload: each metric printed with its unit (and
   named so in BENCHMARK.json), no failed operation, cost_over_lb
   repeating exactly between two passes, a deliberately wrong expected
   output caught, and a traced pass reporting every per-layer metric. *)
let self_test dvbp =
  let problems = ref 0 in
  let expect what ok =
    if not ok then incr problems;
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what
  in
  let spec = try In_channel.with_open_text "BENCHMARK.json" In_channel.input_all with Sys_error _ -> "" in
  List.iter
    (fun (n, u) ->
      expect
        (Printf.sprintf "BENCHMARK.json names %s in %s" n u)
        (contains spec (Printf.sprintf "{\"name\": %S, \"unit\": %S" n u)))
    (end_to_end @ per_layer);
  let base =
    { dvbp; sizes = tiny; seed = 7; seconds = 1.0; traced = false; fsync_every = None; corrupt = false }
  in
  let printed out table =
    List.for_all
      (fun (n, u) ->
        contains out (Printf.sprintf "%S: {\"value\": " n)
        && contains out (Printf.sprintf "\"unit\": %S}" u))
      table
  in
  List.iter
    (fun (name, f) ->
      let a = execute name f base and b = execute name f base in
      let out_a = json a end_to_end in
      expect (name ^ ": two passes without a failed operation") (a.failed = 0 && b.failed = 0);
      expect (name ^ ": every end-to-end metric printed with its unit") (printed out_a end_to_end);
      expect (name ^ ": cost_over_lb repeats exactly")
        (List.assoc "cost_over_lb" a.values = List.assoc "cost_over_lb" b.values);
      let t = execute name f { base with traced = true } in
      let out_t = json t per_layer in
      expect (name ^ ": traced pass reports every per-layer metric")
        (t.failed = 0 && printed out_t per_layer);
      let c = execute name f { base with corrupt = true } in
      expect (name ^ ": a wrong expected output is counted as failed") (c.failed > 0))
    workloads;
  Proc.rm_rf work_root;
  !problems

let usage =
  "perfbench --dvbp PATH (--workload NAME --seed N --seconds S --trace 0|1 | --self-test)"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let dvbp = ref "" and self = ref false and fsync_every = ref 0 in
  let child = ref "" and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-pipelined, serve-paced or replay-wide");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end ones");
      ("--dvbp", Arg.Set_string dvbp, "PATH the dvbp executable");
      ("--self-test", Arg.Set self, " tiny passes of every workload, checked");
      ("--fsync-every", Arg.Set_int fsync_every, "N pass --fsync-every N to serve (experiments)");
      ("--replay-child", Arg.Set_string child, "TRACE (internal) one replay");
      ("--spans", Arg.Set_string spans, "FILE (internal) where a replay child writes spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !child <> "" then replay_child ~trace:!child ~seed:!seed ~spans:!spans
  else begin
    let quit _ = exit 130 in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
    Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
    if !dvbp = "" then begin
      prerr_endline usage;
      exit 2
    end;
    if !self then exit (if self_test !dvbp = 0 then 0 else 1);
    match List.assoc_opt !workload workloads with
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
    | Some f -> (
        Sys.set_signal Sys.sigalrm
          (Sys.Signal_handle
             (fun _ ->
               prerr_endline "perfbench: the run exceeded its time limit";
               exit 3));
        ignore (Unix.alarm 175);
        let r =
          {
            dvbp = !dvbp;
            sizes = full;
            seed = !seed;
            seconds = !seconds;
            traced = !trace = 1;
            fsync_every = (if !fsync_every > 0 then Some !fsync_every else None);
            corrupt = false;
          }
        in
        match execute !workload f r with
        | res -> print_endline (json res (if r.traced then per_layer else end_to_end))
        | exception e ->
            Printf.eprintf "perfbench: %s failed: %s\n" !workload (Printexc.to_string e);
            exit 1)
  end
