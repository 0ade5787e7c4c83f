(* Benchmark & regeneration harness.

   Regenerates every table and figure of the paper:
     TABLE-1   competitive-ratio bounds — theory, executed lower-bound
               gadgets, and upper-bound fuzzing against exact OPT
     TABLE-2   experimental parameters
     FIGURE-1  Move To Front leading/non-leading decomposition (live run)
     FIGURE-2  First Fit P/Q decomposition (live run)
     FIGURE-3  Theorem 5 adversarial execution (live run)
     FIGURE-4  average-case ratio sweep over the d × mu grid
     ABLATIONS Best Fit load measures, dimension correlation, clairvoyance

   then runs Bechamel micro-benchmarks (one per table/figure) measuring the
   throughput of the code paths that produce them.

   Usage: main.exe [--jobs N] [--json [PATH]]

   Environment knobs:
     DVBP_FIGURE4_INSTANCES  instances per grid point (default 30; the
                             paper uses 1000 — see EXPERIMENTS.md).
                             Validated: a non-integer or value < 1 is a
                             clear error, not a silent fallback.
     DVBP_JOBS               worker domains for instance sharding
                             (default: all cores; the --jobs flag takes
                             precedence). Orthogonal to the knob above:
                             jobs only shards work, never changes results.
     DVBP_SKIP_MICRO         set to skip the Bechamel section (CI speed) *)

open Bechamel
open Toolkit
module Rng = Dvbp_prelude.Rng
module Domain_pool = Dvbp_parallel.Domain_pool
module Core = Dvbp_core
module Engine = Dvbp_engine.Engine
module Engine_session = Dvbp_engine.Session
module W = Dvbp_workload
module X = Dvbp_experiments
module A = Dvbp_adversary

let banner title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=')

(* forced in main, after a validation pass that can fail cleanly *)
let figure4_instances =
  lazy (match X.Figure4.instances_from_env () with Some n -> n | None -> 30)

let figure4_instances () = Lazy.force figure4_instances

let regenerate_tables () =
  banner "TABLE-2 — experimental parameters";
  print_string (X.Table2.render ~instances:(figure4_instances ()) ());

  banner "TABLE-1 — competitive-ratio bounds (theory)";
  print_string (X.Table1.render_theory ());

  banner "TABLE-1 — lower-bound gadgets executed (d=2, mu=5)";
  print_string
    (X.Table1.render_verification (X.Table1.verify_gadgets ~d:2 ~mu:5.0 ~ks:[ 2; 4; 8 ] ()));

  banner "TABLE-1 — upper bounds fuzzed against exact OPT";
  print_string (X.Table1.render_fuzz (X.Table1.fuzz_upper_bounds ~instances:200 ~seed:7 ()));

  banner "TABLE-1 — lower-bound gadget convergence toward the limits";
  print_string (X.Table1.convergence ~d:2 ~mu:5.0 ());

  banner "LOWER BOUNDS — span / utilisation / height (Lemma 1) vs DFF vs exact OPT";
  let rng = Rng.create ~seed:33 in
  let rows =
    List.map
      (fun i ->
        let inst =
          W.Uniform_model.generate
            { W.Uniform_model.d = 2; n = 10; mu = 4; span = 12; bin_size = 10 }
            ~rng:(Rng.split rng ~key:i)
        in
        let b = Dvbp_lowerbound.Bounds.span inst in
        [
          Printf.sprintf "small-%d" i;
          Printf.sprintf "%.2f" b;
          Printf.sprintf "%.2f" (Dvbp_lowerbound.Bounds.utilisation inst);
          Printf.sprintf "%.2f" (Dvbp_lowerbound.Bounds.height_integral inst);
          Printf.sprintf "%.2f" (Dvbp_lowerbound.Dff.integral inst);
          Printf.sprintf "%.2f" (Dvbp_lowerbound.Opt.exact_exn inst);
        ])
      [ 0; 1; 2; 3; 4 ]
  in
  print_string
    (Dvbp_report.Table.render
       ~header:[ "instance"; "span"; "util/d"; "height (i)"; "DFF"; "exact OPT" ]
       ~rows)

let regenerate_figures () =
  banner "FIGURE-1 — Move To Front leading/non-leading decomposition";
  print_string (X.Proof_figures.figure1 ());
  banner "FIGURE-2 — First Fit P/Q decomposition";
  print_string (X.Proof_figures.figure2 ());
  banner "FIGURE-3 — Theorem 5 construction executed";
  print_string (X.Proof_figures.figure3 ());

  banner
    (Printf.sprintf
       "FIGURE-4 — average-case ratios (m=%d per point; paper: m=1000; jobs=%d)"
       (figure4_instances ())
       (Domain_pool.jobs (Domain_pool.default ())));
  let config = { X.Figure4.default with X.Figure4.instances = figure4_instances () } in
  let cells = X.Figure4.run ~progress:prerr_endline config in
  print_string (X.Figure4.render_table cells);
  print_newline ();
  print_string (X.Figure4.render_plots cells);

  banner "FIGURE-4 — ratio distributions at (d=2, mu=100)";
  let samples =
    X.Runner.ratio_samples ~instances:(figure4_instances ()) ~seed:42
      ~gen:(fun ~rng -> W.Uniform_model.generate (W.Uniform_model.table2 ~d:2 ~mu:100) ~rng)
      ~competitors:(X.Runner.standard_competitors ())
      ()
  in
  List.iter
    (fun label ->
      Printf.printf "\n%s:\n%s" label
        (Dvbp_report.Histogram.render ~bins:8 (Array.to_list (List.assoc label samples))))
    [ "mtf"; "nf"; "wf" ]

let regenerate_scenarios () =
  banner "SCENARIO — cloud gaming sessions (gpu/bandwidth/memory; §1)";
  print_string
    (X.Scenarios.render ~title:"cost / LB; * = clairvoyant"
       (X.Scenarios.cloud_gaming ~instances:20 ()));
  banner "SCENARIO — VM placement (heavy-tailed lifetimes, diurnal arrivals; §1)";
  print_string
    (X.Scenarios.render ~title:"cost / LB; * = clairvoyant"
       (X.Scenarios.vm_placement ~instances:20 ()));
  banner "SCENARIO — flash crowd (burst arrivals; alignment stress)";
  print_string
    (X.Scenarios.render ~title:"cost / LB; * = clairvoyant"
       (X.Scenarios.flash_crowd ~instances:20 ()));
  banner "SCENARIO — diurnal arrivals (sinusoidal rate; trough consolidation)";
  print_string
    (X.Scenarios.render ~title:"cost / LB; * = clairvoyant"
       (X.Scenarios.diurnal ~instances:20 ()));
  banner "SCENARIO — heavy-tailed durations (Pareto lifetimes; stragglers)";
  print_string
    (X.Scenarios.render ~title:"cost / LB; * = clairvoyant"
       (X.Scenarios.heavy_tail ~instances:20 ()));
  banner "SCENARIO — flash crowd with decay (spike + exponential trail-off)";
  print_string
    (X.Scenarios.render ~title:"cost / LB; * = clairvoyant"
       (X.Scenarios.flash_crowd_decay ~instances:20 ()));
  banner "SCENARIO — azure mix (2-d cpu:mem catalogue; correlated demands)";
  print_string
    (X.Scenarios.render ~title:"cost / LB; * = clairvoyant"
       (X.Scenarios.azure_mix ~instances:20 ()));
  banner "SWEEP — diurnal amplitude 0 -> 0.9 (drain-and-refill exploitation)";
  print_string
    (X.Scenarios.render_sweep ~title:"cost / LB; * = clairvoyant"
       (X.Scenarios.diurnal_amplitude_sweep ~instances:12 ()))

let regenerate_significance () =
  banner "SIGNIFICANCE — is the Figure 4 ordering statistically real?";
  List.iter
    (fun (d, mu) ->
      Printf.printf "\n(d=%d, mu=%d), every policy vs mtf, Mann-Whitney at 0.05:\n" d mu;
      print_string
        (X.Significance.render (X.Significance.head_to_head ~instances:40 ~d ~mu ())))
    [ (1, 100); (2, 100); (5, 100) ];
  banner "SIGNIFICANCE — bootstrap CIs for the mean ratio gap vs mtf";
  List.iter
    (fun (d, mu) ->
      Printf.printf "\n(d=%d, mu=%d), 95%% percentile bootstrap, 2000 resamples:\n" d mu;
      print_string
        (X.Significance.render_bootstrap
           (X.Significance.bootstrap_gaps ~instances:40 ~d ~mu ())))
    [ (1, 100); (2, 100); (5, 100) ]

let regenerate_worst_case () =
  banner "WORST-CASE SEARCH — hill-climbing for bad instances (cost / exact OPT)";
  print_endline
    "small-instance adversarial probe (§8's open gap); compare against the\n\
     certified gadget ratios above and the proven bounds:";
  let cases =
    List.map
      (fun (policy, d) ->
        (policy, { X.Worst_case_search.default with X.Worst_case_search.d; steps = 300 }))
      [
        ("mtf", 1); ("ff", 1); ("nf", 1); ("mtf", 2); ("ff", 2); ("nf", 2);
        (* repack specs: Thm 5 does not constrain these — attack them too *)
        ("ff+both2", 1); ("ff+both2", 2);
      ]
  in
  List.iter
    (fun (policy, result) -> print_string (X.Worst_case_search.render ~policy result))
    (X.Worst_case_search.search_many cases)

let regenerate_frontier () =
  banner "MIGRATION FRONTIER — budgeted repacking vs the Any Fit ceiling";
  print_string (X.Migration_frontier.render (X.Migration_frontier.run ()))

let regenerate_ablations () =
  banner "ABLATION — Best Fit load measure (d=2, mu=10)";
  print_string
    (X.Ablations.render ~title:"cost / LB over the Table 2 workload"
       (X.Ablations.best_fit_measures ~instances:30 ~seed:42 ~d:2 ~mu:10 ()));
  banner "ABLATION — dimension correlation (d=2, mu=10)";
  print_string
    (X.Ablations.render_sweep ~title:"cost / LB as dimensions correlate" ~param:"rho"
       (X.Ablations.correlation_sweep ~instances:30 ~seed:42 ~d:2 ~mu:10
          ~rhos:[ 0.0; 0.5; 1.0 ] ()));
  banner "ABLATION — clairvoyance (d=2, mu=100)";
  print_string
    (X.Ablations.render ~title:"non-clairvoyant policies vs clairvoyant daf/hff"
       (X.Ablations.clairvoyance ~instances:30 ~seed:42 ~d:2 ~mu:100 ()));
  banner "ABLATION — lower-bound tightness (d=2, mu=10, n=300, mtf)";
  print_string
    (X.Ablations.render
       ~title:"the same runs, normalised by each lower bound (smaller = tighter LB)"
       (X.Ablations.denominator_tightness ~instances:20 ~seed:42 ~d:2 ~mu:10 ()));
  banner "ABLATION — offered load (d=2, mu=10): gaps widen with load";
  print_string
    (X.Ablations.render_sweep ~title:"cost / LB as item count grows (span fixed)"
       ~param:"n"
       (X.Ablations.load_sweep ~instances:20 ~seed:42 ~d:2 ~mu:10
          ~ns:[ 250; 500; 1000; 2000 ] ()));
  banner "ABLATION — Next-K Fit (d=2, mu=100): from Next Fit to First Fit";
  print_string
    (X.Ablations.render ~title:"cost / LB as the candidate window grows"
       (X.Ablations.next_k_sweep ~instances:30 ~seed:42 ~d:2 ~mu:100
          ~ks:[ 1; 2; 4; 8; 16 ] ()));
  banner "ABLATION — size classes (d=2, mu=10): Harmonic Fit vs First Fit";
  print_string
    (X.Ablations.render ~title:"cost / LB with size-segregated bins"
       (X.Ablations.size_classes ~instances:30 ~seed:42 ~d:2 ~mu:10 ()));
  banner "ABLATION — prediction error (d=2, mu=100)";
  print_string
    (X.Ablations.render
       ~title:"duration-aligned fit under log-normal prediction noise"
       (X.Ablations.prediction_error ~instances:30 ~seed:42 ~d:2 ~mu:100
          ~sigmas:[ 0.3; 1.0; 3.0 ] ()))

(* ---------- Bechamel micro-benchmarks ---------- *)

let uniform_instance =
  lazy
    (W.Uniform_model.generate
       (W.Uniform_model.table2 ~d:2 ~mu:10)
       ~rng:(Rng.create ~seed:1))

let small_instance =
  lazy
    (W.Uniform_model.generate
       { W.Uniform_model.d = 2; n = 12; mu = 4; span = 12; bin_size = 10 }
       ~rng:(Rng.create ~seed:2))

let policy_test name =
  Test.make ~name:(Printf.sprintf "figure4/run-%s" name)
    (Staged.stage (fun () ->
         let instance = Lazy.force uniform_instance in
         let policy = Core.Policy.of_name_exn ~rng:(Rng.create ~seed:3) name in
         Engine.run ~policy instance))

let tests =
  Test.make_grouped ~name:"dvbp"
    [
      (* FIGURE-4: one full simulation per policy on the Table 2 workload *)
      Test.make_grouped ~name:"figure4"
        (List.map policy_test Core.Policy.standard_names);
      (* TABLE-2 workload generation itself *)
      Test.make ~name:"table2/generate-uniform"
        (Staged.stage (fun () ->
             W.Uniform_model.generate
               (W.Uniform_model.table2 ~d:2 ~mu:10)
               ~rng:(Rng.create ~seed:4)));
      (* FIGURE-4 denominator: the Lemma 1 (i) lower bound *)
      Test.make ~name:"figure4/lower-bound"
        (Staged.stage (fun () ->
             Dvbp_lowerbound.Bounds.height_integral (Lazy.force uniform_instance)));
      (* TABLE-1: gadget construction + execution, and exact OPT *)
      Test.make ~name:"table1/anyfit-gadget"
        (Staged.stage (fun () ->
             let g = A.Anyfit_lb.construct ~d:2 ~k:4 ~mu:5.0 in
             Engine.run ~policy:(Core.Policy.first_fit ()) g.A.Gadget.instance));
      Test.make ~name:"table1/exact-opt-small"
        (Staged.stage (fun () ->
             Dvbp_lowerbound.Opt.exact_exn (Lazy.force small_instance)));
      (* the incremental session path (arrive/depart driven by hand) *)
      Test.make ~name:"engine/session-1000-items"
        (Staged.stage (fun () ->
             let instance = Lazy.force uniform_instance in
             let session =
               Engine_session.create
                 ~capacity:instance.Core.Instance.capacity
                 ~policy:(Core.Policy.first_fit ()) ()
             in
             let events =
               List.concat_map
                 (fun (r : Core.Item.t) ->
                   [ (r.Core.Item.departure, 0, r); (r.Core.Item.arrival, 1, r) ])
                 instance.Core.Instance.items
               |> List.sort (fun (ta, ka, (ra : Core.Item.t)) (tb, kb, rb) ->
                      compare (ta, ka, ra.Core.Item.id) (tb, kb, rb.Core.Item.id))
             in
             List.iter
               (fun (_, kind, (r : Core.Item.t)) ->
                 if kind = 1 then
                   ignore
                     (Engine_session.arrive session ~at:r.Core.Item.arrival
                        ~id:r.Core.Item.id ~size:r.Core.Item.size ())
                 else
                   Engine_session.depart session ~at:r.Core.Item.departure
                     ~item_id:r.Core.Item.id)
               events;
             Engine_session.finish session ~at:(Engine_session.now session)));
      (* MIGRATION FRONTIER: the same workload through the repack session *)
      Test.make ~name:"frontier/run-ff+both2"
        (Staged.stage (fun () ->
             let instance = Lazy.force uniform_instance in
             Dvbp_engine.Repack.run
               ~config:(Dvbp_engine.Repack.config ~budget:2 ())
               ~policy:(Core.Policy.first_fit ()) instance));
      (* FIGURE-1/2: decomposition analyses *)
      Test.make ~name:"figure1/mtf-decomposition"
        (Staged.stage (fun () ->
             let instance = Lazy.force uniform_instance in
             let run = Engine.run ~policy:(Core.Policy.move_to_front ()) instance in
             Dvbp_analysis.Mtf_decomposition.analyse run.Engine.trace));
      Test.make ~name:"figure2/ff-decomposition"
        (Staged.stage (fun () ->
             let instance = Lazy.force uniform_instance in
             let run = Engine.run ~policy:(Core.Policy.first_fit ()) instance in
             Dvbp_analysis.Ff_decomposition.analyse run.Engine.packing));
    ]

let run_micro () =
  banner "MICRO-BENCHMARKS (Bechamel; time per operation)";
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  print_string
    (Dvbp_report.Table.render
       ~header:[ "benchmark"; "time/op" ]
       ~rows:
         (List.map
            (fun (name, ns) ->
              let human =
                if Float.is_nan ns then "n/a"
                else if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
                else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
                else Printf.sprintf "%.1f ns" ns
              in
              [ name; human ])
            rows))

(* ---------- JSON benchmark gate (--json [path]) ----------

   Writes a machine-readable perf snapshot so successive PRs have a
   throughput trajectory to compare against:
     - per-policy engine throughput (items/sec, Bechamel OLS estimate) on
       the Table 2 uniform workload at d in {1,5} x mu in {10,200};
     - wall time of a fixed-seed m=50 Figure-4 mini-sweep (the experiment
       pipeline end to end: generation, lower bounds, all 7 policies),
       measured at jobs in {1, 2, 4, all cores} — the scaling curve of the
       domain-pool sharding — together with a check that the sweep output
       is bit-identical across jobs values. *)

let bench_grid = [ (1, 10); (1, 200); (5, 10); (5, 200) ]

(* every grid cell shares the Table 2 item count / span / bin size; the
   JSON workload block below is printed from this same record, so the
   snapshot can never disagree with what actually ran *)
let bench_params = W.Uniform_model.table2 ~d:1 ~mu:10
let bench_n_items = bench_params.W.Uniform_model.n

let json_instance ~d ~mu =
  W.Uniform_model.generate
    (W.Uniform_model.table2 ~d ~mu)
    ~rng:(Rng.create ~seed:(100 + (17 * d) + mu))

let ns_per_run tests =
  (* returns an assoc list: test name -> OLS ns/run estimate *)
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name:"json" tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns = match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan in
      (name, ns) :: acc)
    results []

let run_json path =
  let throughput =
    List.map
      (fun name ->
        let tests =
          List.map
            (fun (d, mu) ->
              let instance = json_instance ~d ~mu in
              Test.make ~name:(Printf.sprintf "%s.d%d.mu%d" name d mu)
                (Staged.stage (fun () ->
                     let policy =
                       Core.Policy.of_name_exn ~rng:(Rng.create ~seed:3) name
                     in
                     (* measured in the experiment-pipeline configuration:
                        ratio sweeps drive the engine with tracing off *)
                     Engine.run ~record_trace:false ~policy instance)))
            bench_grid
        in
        let estimates = ns_per_run tests in
        let cells =
          List.map
            (fun (d, mu) ->
              let key = Printf.sprintf "json/%s.d%d.mu%d" name d mu in
              let ns = try List.assoc key estimates with Not_found -> nan in
              let items_per_sec =
                if Float.is_nan ns || ns <= 0.0 then 0.0
                else float_of_int bench_n_items *. 1e9 /. ns
              in
              Printf.eprintf "bench %s d=%d mu=%-3d  %12.0f items/sec\n%!" name d mu
                items_per_sec;
              ((d, mu), items_per_sec))
            bench_grid
        in
        (name, cells))
      Core.Policy.standard_names
  in
  let sweep_config =
    {
      X.Figure4.default with
      X.Figure4.ds = [ 1; 5 ];
      mus = [ 10; 200 ];
      instances = 50;
      seed = 42;
    }
  in
  (* scaling curve of the domain-pool sharding: same fixed-seed sweep at
     jobs in {1, 2, 4, all cores}; the output must not depend on jobs *)
  let cores = Domain.recommended_domain_count () in
  let jobs_points = List.sort_uniq compare [ 1; 2; 4; cores ] in
  let curve =
    List.map
      (fun jobs ->
        let t0 = Unix.gettimeofday () in
        let cells = X.Figure4.run ~jobs ~progress:ignore sweep_config in
        let seconds = Unix.gettimeofday () -. t0 in
        Printf.eprintf "bench mini-sweep jobs=%-2d  %.3f s\n%!" jobs seconds;
        (jobs, seconds, X.Figure4.to_csv cells))
      jobs_points
  in
  let csv_of jobs =
    List.find_map (fun (j, _, csv) -> if j = jobs then Some csv else None) curve
  in
  let seconds_of jobs =
    List.find_map (fun (j, s, _) -> if j = jobs then Some s else None) curve
  in
  let identical =
    match csv_of 1 with
    | None -> false
    | Some ref_csv -> List.for_all (fun (_, _, csv) -> csv = ref_csv) curve
  in
  let speedup =
    match (seconds_of 1, seconds_of 4) with
    | Some s1, Some s4 when s4 > 0.0 -> s1 /. s4
    | _ -> 1.0
  in
  let sweep_seconds =
    match seconds_of cores with Some s -> s | None -> nan
  in
  (* the service benches below run jobs=1 and never touch the pool — park
     nothing: idle worker domains still join every stop-the-world minor GC,
     which costs the allocation-heavy loadgen ~40% on one core *)
  Domain_pool.shutdown (Domain_pool.default ());
  (* service loadgen: the full serialise -> socket -> place -> journal ->
     reply round trip, with and without the WAL, on a Table 2 workload *)
  let lg_instance =
    W.Uniform_model.generate (W.Uniform_model.table2 ~d:2 ~mu:100)
      ~rng:(Rng.create ~seed:5)
  in
  (* the journal is a segment chain (tmp.000000.seg...), so cleanup must
     sweep every file sharing the prefix, not just the prefix itself *)
  let remove_journal_files tmp =
    (try Sys.remove tmp with Sys_error _ -> ());
    let dir = Filename.dirname tmp and base = Filename.basename tmp in
    Array.iter
      (fun f ->
        if String.starts_with ~prefix:(base ^ ".") f then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||])
  in
  (* a unique journal path with nothing at it: a fresh journal refuses a
     regular file at its path, so the name [temp_file] reserves is freed *)
  let journal_path prefix =
    let tmp = Filename.temp_file prefix ".journal" in
    Sys.remove tmp;
    tmp
  in
  let lg_run ?journal () =
    let tmp = Option.map (fun _ -> journal_path "dvbp_bench") journal in
    Fun.protect
      ~finally:(fun () -> Option.iter remove_journal_files tmp)
      (fun () ->
        (* one in-process client, 64 requests in flight: the server
           commits each window's event run with one fsync, so at most 64
           events share one *)
        match
          Dvbp_service.Loadgen.drive ~policy:"mtf" ~seed:3
            ~transport:
              (Dvbp_service.Loadgen.In_process
                 { Dvbp_service.Loadgen.server_defaults with journal = tmp })
            ~window:64
            (Dvbp_service.Loadgen.Instances [ lg_instance ])
        with
        | Ok report -> report
        | Error e ->
            prerr_endline ("FATAL: loadgen bench failed: " ^ e);
            exit 1)
  in
  let lg_journaled = lg_run ~journal:true () in
  let lg_bare = lg_run () in
  Printf.eprintf "bench loadgen journaled  %12.0f events/sec\n%!"
    lg_journaled.Dvbp_service.Loadgen.events_per_sec;
  Printf.eprintf "bench loadgen bare       %12.0f events/sec\n%!"
    lg_bare.Dvbp_service.Loadgen.events_per_sec;
  (* multi-client group commit: 4 concurrent clients (one tenant each)
     against the event-loop server, requests pipelined in windows, one
     fsync per tick's event run. On this 1-core box the gain over the
     single-client line is all amortisation, not parallelism. *)
  let mc_clients = 4 in
  let mc_n = 16000 in
  let mc_window = 2048 in
  let mc_jobs = 1 in
  let lg_mc =
    let inst =
      W.Uniform_model.generate
        { (W.Uniform_model.table2 ~d:2 ~mu:100) with W.Uniform_model.n = mc_n }
        ~rng:(Rng.create ~seed:5)
    in
    (* the earlier sweeps leave a fragmented major heap whose pacing taxes
       this allocation-heavy measurement; compact first, then take the best
       of three runs to shed scheduler noise (each run is ~0.5 s) *)
    Gc.compact ();
    let one () =
      let tmp = journal_path "dvbp_bench_mc" in
      Fun.protect
        ~finally:(fun () -> remove_journal_files tmp)
        (fun () ->
          match
            Dvbp_service.Loadgen.drive ~policy:"mtf" ~seed:3
              ~transport:
                (Dvbp_service.Loadgen.In_process
                   {
                     Dvbp_service.Loadgen.server_defaults with
                     journal = Some tmp;
                     jobs = mc_jobs;
                   })
              ~window:mc_window
              (Dvbp_service.Loadgen.Instances (List.init mc_clients (fun _ -> inst)))
          with
          | Ok report -> report
          | Error e ->
              prerr_endline ("FATAL: multi-client loadgen bench failed: " ^ e);
              exit 1)
    in
    List.fold_left
      (fun best _ ->
        let r = one () in
        if
          r.Dvbp_service.Loadgen.events_per_sec
          > best.Dvbp_service.Loadgen.events_per_sec
        then r
        else best)
      (one ()) [ (); () ]
  in
  Printf.eprintf "bench loadgen multi x%d  %12.0f events/sec (journaled)\n%!"
    mc_clients lg_mc.Dvbp_service.Loadgen.events_per_sec;
  (* trace store: compile a sharded binary trace, then stream it straight
     into an engine session — the raw replay path, no server in the way *)
  let tr_shards = 4 in
  let tr_shard_n = 25_000 in
  let tr_stats =
    let tmp = Filename.temp_file "dvbp_bench_trace" ".dvbpt" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        let fatal e =
          prerr_endline ("FATAL: trace replay bench failed: " ^ e);
          exit 1
        in
        let gen k =
          W.Uniform_model.generate
            { (W.Uniform_model.table2 ~d:2 ~mu:100) with W.Uniform_model.n = tr_shard_n }
            ~rng:(Rng.create ~seed:(7 + k))
        in
        (match
           Dvbp_tracestore.Compile.sharded ~path:tmp ~shards:tr_shards ~gen ()
         with
        | Ok _ -> ()
        | Error e -> fatal e);
        match
          Dvbp_tracestore.Trace_reader.with_file tmp (fun reader ->
              let policy = Core.Policy.of_name_exn ~rng:(Rng.create ~seed:3) "mtf" in
              let session =
                Engine_session.create ~record_trace:false
                  ~capacity:(Dvbp_tracestore.Trace_reader.header reader).Dvbp_tracestore.Binfmt.capacity
                  ~policy ()
              in
              Dvbp_tracestore.Replay.into_session ~clock:Unix.gettimeofday
                reader session)
        with
        | Ok stats -> stats
        | Error e -> fatal e)
  in
  Printf.eprintf "bench trace replay       %12.0f events/sec (%d events)\n%!"
    tr_stats.Dvbp_tracestore.Replay.events_per_sec
    tr_stats.Dvbp_tracestore.Replay.events;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"label\": \"pr9\",\n";
  Buffer.add_string buf "  \"generated_by\": \"bench/main.ml --json\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"workload\": { \"model\": \"uniform (Table 2)\", \"n_items\": %d, \
        \"span\": %d, \"bin_size\": %d, \"record_trace\": false },\n"
       bench_params.W.Uniform_model.n bench_params.W.Uniform_model.span
       bench_params.W.Uniform_model.bin_size);
  Buffer.add_string buf "  \"throughput_items_per_sec\": {\n";
  List.iteri
    (fun i (name, cells) ->
      Buffer.add_string buf (Printf.sprintf "    %S: { " name);
      List.iteri
        (fun j ((d, mu), ips) ->
          Buffer.add_string buf
            (Printf.sprintf "\"d%d_mu%d\": %.1f%s" d mu ips
               (if j = List.length cells - 1 then "" else ", ")))
        cells;
      Buffer.add_string buf
        (Printf.sprintf " }%s\n" (if i = List.length throughput - 1 then "" else ",")))
    throughput;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"figure4_mini_sweep\": { \"ds\": [1, 5], \"mus\": [10, 200], \"instances\": 50, \"seed\": 42, \"wall_seconds\": %.3f },\n"
       sweep_seconds);
  Buffer.add_string buf "  \"parallel\": {\n";
  Buffer.add_string buf (Printf.sprintf "    \"machine_cores\": %d,\n" cores);
  Buffer.add_string buf "    \"wall_seconds_by_jobs\": { ";
  List.iteri
    (fun i (jobs, seconds, _) ->
      Buffer.add_string buf
        (Printf.sprintf "\"%d\": %.3f%s" jobs seconds
           (if i = List.length curve - 1 then "" else ", ")))
    curve;
  Buffer.add_string buf " },\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"speedup_jobs4_vs_1\": %.3f,\n" speedup);
  Buffer.add_string buf
    (Printf.sprintf "    \"identical_across_jobs\": %b\n" identical);
  Buffer.add_string buf "  },\n";
  (* scalar-vs-SWAR fit-kernel microbench (see bench/kernel_bench.ml) *)
  let fk_rows = Kernel_bench.run () in
  List.iter
    (fun (r : Kernel_bench.row) ->
      Printf.eprintf "bench fit_kernel d=%d bins=%-5d  scalar %6.2f ns  swar %6.2f ns  %.2fx\n%!"
        r.Kernel_bench.d r.Kernel_bench.bins r.Kernel_bench.scalar_ns
        r.Kernel_bench.swar_ns r.Kernel_bench.speedup)
    fk_rows;
  Buffer.add_string buf (Kernel_bench.to_json fk_rows);
  Buffer.add_string buf ",\n";
  let lg_json name (r : Dvbp_service.Loadgen.report) =
    let lat = r.Dvbp_service.Loadgen.latency_us in
    Printf.sprintf
      "    %S: { \"events\": %d, \"events_per_sec\": %.1f, \
       \"latency_mean_us\": %.1f, \"latency_p50_us\": %.1f, \
       \"latency_p90_us\": %.1f, \"latency_p99_us\": %.1f, \
       \"latency_max_us\": %.1f }"
      name r.Dvbp_service.Loadgen.events r.Dvbp_service.Loadgen.events_per_sec
      lat.Dvbp_obs.Histogram.mean lat.Dvbp_obs.Histogram.p50 lat.Dvbp_obs.Histogram.p90
      lat.Dvbp_obs.Histogram.p99 lat.Dvbp_obs.Histogram.max_v
  in
  Buffer.add_string buf "  \"service_loadgen\": {\n";
  Buffer.add_string buf
    "    \"workload\": \"uniform table2 d=2 mu=100 (n=1000)\", \"policy\": \"mtf\", \"window\": 64,\n";
  Buffer.add_string buf (lg_json "journaled" lg_journaled);
  Buffer.add_string buf ",\n";
  Buffer.add_string buf (lg_json "no_journal" lg_bare);
  Buffer.add_string buf "\n  },\n";
  let hist_json (h : Dvbp_obs.Histogram.snapshot) =
    Printf.sprintf
      "\"latency_mean_us\": %.1f, \"latency_p50_us\": %.1f, \
       \"latency_p90_us\": %.1f, \"latency_p99_us\": %.1f, \
       \"latency_max_us\": %.1f"
      h.Dvbp_obs.Histogram.mean h.Dvbp_obs.Histogram.p50
      h.Dvbp_obs.Histogram.p90 h.Dvbp_obs.Histogram.p99
      h.Dvbp_obs.Histogram.max_v
  in
  Buffer.add_string buf "  \"service_loadgen_mc\": {\n";
  (* "fsync_every" is null: each event run is one commit, with no ceiling;
     the key stays so earlier snapshots and this one share a shape *)
  Buffer.add_string buf
    (Printf.sprintf
       "    \"workload\": \"uniform table2 d=2 mu=100 (n=%d per client)\", \
        \"policy\": \"mtf\", \"clients\": %d, \"jobs\": %d, \
        \"fsync_every\": null, \"window\": %d,\n"
       mc_n mc_clients mc_jobs mc_window);
  Buffer.add_string buf
    (Printf.sprintf
       "    \"journaled_events\": %d, \"journaled_events_per_sec\": %.1f, %s,\n"
       lg_mc.Dvbp_service.Loadgen.events
       lg_mc.Dvbp_service.Loadgen.events_per_sec
       (hist_json lg_mc.Dvbp_service.Loadgen.latency_us));
  Buffer.add_string buf "    \"per_client\": {\n";
  let n_clients = List.length lg_mc.Dvbp_service.Loadgen.clients in
  List.iteri
    (fun i (c : Dvbp_service.Loadgen.client_report) ->
      Buffer.add_string buf
        (Printf.sprintf "      %S: { \"events\": %d, %s }%s\n"
           c.Dvbp_service.Loadgen.tenant c.Dvbp_service.Loadgen.client_events
           (hist_json c.Dvbp_service.Loadgen.client_latency_us)
           (if i = n_clients - 1 then "" else ",")))
    lg_mc.Dvbp_service.Loadgen.clients;
  Buffer.add_string buf "    }\n";
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"trace_replay\": { \"shards\": %d, \"items_per_shard\": %d, \
        \"events\": %d, \"blocks\": %d, \"wall_seconds\": %.3f, \
        \"events_per_sec\": %.1f, \"resident_bytes_max\": %d }\n"
       tr_shards tr_shard_n tr_stats.Dvbp_tracestore.Replay.events
       tr_stats.Dvbp_tracestore.Replay.blocks
       tr_stats.Dvbp_tracestore.Replay.wall_seconds
       tr_stats.Dvbp_tracestore.Replay.events_per_sec
       tr_stats.Dvbp_tracestore.Replay.resident_bytes_max);
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf
    "wrote %s (mini-sweep: %.3f s; jobs=4 vs jobs=1 speedup: %.2fx on %d core%s; \
     identical across jobs: %b)\n"
    path sweep_seconds speedup cores
    (if cores = 1 then "" else "s")
    identical;
  if not identical then begin
    prerr_endline "FATAL: sweep output differs across jobs values";
    exit 1
  end

let () =
  (* argv: [--jobs N] [--json [PATH]] in any order, --json last takes a path *)
  let args = List.tl (Array.to_list Sys.argv) in
  let fail msg = prerr_endline msg; exit 2 in
  let rec parse ~json ~jobs = function
    | [] -> (json, jobs)
    | "--jobs" :: v :: rest | "-j" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> parse ~json ~jobs:(Some n) rest
        | Some _ | None ->
            fail (Printf.sprintf "--jobs: expected a positive integer, got %S" v))
    | [ "--jobs" ] | [ "-j" ] -> fail "--jobs: missing value"
    | "--json" :: rest ->
        let path, rest =
          match rest with
          | p :: rest' when not (String.length p > 0 && p.[0] = '-') -> (p, rest')
          | _ -> ("BENCH_pr9.json", rest)
        in
        parse ~json:(Some path) ~jobs rest
    | arg :: _ -> fail (Printf.sprintf "unknown argument %S" arg)
  in
  let json, jobs = parse ~json:None ~jobs:None args in
  (match jobs with Some n -> Domain_pool.set_default_jobs n | None -> ());
  (* force the validated env knobs now so a bad value is a clear error *)
  (try
     ignore (figure4_instances ());
     ignore (Domain_pool.default_jobs ())
   with Invalid_argument msg -> fail msg);
  match json with
  | Some path -> run_json path
  | None ->
      regenerate_tables ();
      regenerate_figures ();
      regenerate_scenarios ();
      regenerate_significance ();
      regenerate_ablations ();
      regenerate_worst_case ();
      regenerate_frontier ();
      if Sys.getenv_opt "DVBP_SKIP_MICRO" = None then run_micro ();
      print_newline ()
