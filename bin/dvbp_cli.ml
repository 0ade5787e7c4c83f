(* dvbp — command-line front end for the MinUsageTime DVBP library.

   Subcommands:
     run       simulate one policy on a workload or a CSV trace
     figure4   regenerate the paper's Figure 4 sweep
     table1    regenerate Table 1 (theory + gadget verification + UB fuzz)
     table2    print the experimental parameter table
     figures   regenerate Figures 1-3 from live runs
     adversary build and execute one lower-bound gadget
     describe  summary statistics of a workload or trace
     opt       exact optimal cost of a (small) CSV trace
     serve     durable online placement service (line protocol on stdio)
     recover   rebuild + verify service state from journal/snapshot
     compact   snapshot the journal frontier, retire sealed segments
     loadgen   replay a workload against a live server, report throughput
     frontier  sweep the migration budget/cost frontier (repacking)
     metrics   pretty-print a METRICS / --metrics-dump snapshot
     trace     compile / info / verify / replay binary traces *)

open Cmdliner
module Rng = Dvbp_prelude.Rng
module Core = Dvbp_core
module Engine = Dvbp_engine.Engine
module Repack = Dvbp_engine.Repack
module Reduce = Dvbp_reduce.Reduce
module Bounds = Dvbp_lowerbound.Bounds
module Opt = Dvbp_lowerbound.Opt
module W = Dvbp_workload
module X = Dvbp_experiments
module A = Dvbp_adversary

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc:"Root random seed.")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"INT"
           ~doc:"Worker domains for instance sharding (default: \\$(b,DVBP_JOBS), \
                 else all cores). Results are bit-identical for any value.")

let instances_arg default =
  Arg.(value & opt int default & info [ "instances"; "m" ] ~docv:"INT"
         ~doc:"Random instances per configuration.")

(* ---------- run ---------- *)

module Cli = Dvbp_cli_lib

let workload_names = String.concat ", " Cli.Workload_select.known_workloads

let workload_arg =
  Arg.(value & opt string "uniform"
       & info [ "workload" ] ~docv:"NAME"
           ~doc:("Workload: " ^ workload_names
                 ^ ". See $(b,dvbp describe --list) for one-line blurbs."))

let trace_arg =
  Arg.(value & opt (some file) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Replay a trace file (CSV or compiled binary, sniffed by \
                 magic) instead of generating.")

let policy_arg =
  Arg.(value & opt string "mtf"
       & info [ "policy" ] ~docv:"NAME"
           ~doc:"Packing policy: mtf, ff, bf, nf, wf, lf, rf or daf (clairvoyant).")

let d_arg = Arg.(value & opt int 2 & info [ "d" ] ~docv:"INT" ~doc:"Dimensions.")
let mu_arg = Arg.(value & opt int 10 & info [ "mu" ] ~docv:"INT" ~doc:"Max duration.")
let n_arg = Arg.(value & opt int 1000 & info [ "n" ] ~docv:"INT" ~doc:"Item count.")
let rho_arg =
  Arg.(value & opt float 0.5 & info [ "rho" ] ~docv:"FLOAT" ~doc:"Dimension correlation.")
let gantt_arg = Arg.(value & flag & info [ "gantt" ] ~doc:"Render an ASCII Gantt chart.")
let export_arg =
  Arg.(value & opt (some string) None
       & info [ "export" ] ~docv:"FILE" ~doc:"Write the final assignment as CSV.")
let trajectory_arg =
  Arg.(value & flag
       & info [ "trajectory" ] ~doc:"Plot the live cost/lower-bound ratio over time.")

let build_instance ~workload ~trace ~d ~mu ~n ~rho ~seed =
  Cli.Workload_select.build
    { Cli.Workload_select.workload; trace; d; mu; n; rho; seed }

let reduce_arg =
  Arg.(value & flag
       & info [ "reduce" ]
           ~doc:"Preprocess the instance (twin merging; geometric rounding with \
                 $(b,--reduce-gamma)), run on the reduced instance and lift the \
                 packing back, printing the reduction certificate.")

let reduce_gamma_arg =
  Arg.(value & opt float 1.0
       & info [ "reduce-gamma" ] ~docv:"FLOAT"
           ~doc:"Geometric rounding base for $(b,--reduce) (1.0 = exact, no \
                 rounding).")

let repack_arg =
  Arg.(value & opt (some int) None
       & info [ "repack" ] ~docv:"K"
           ~doc:"Budgeted-migration repacking: allow up to K live migrations \
                 per event (strict Any Fit base policies only).")

let repack_strategy_arg =
  Arg.(value & opt string "both"
       & info [ "repack-strategy" ] ~docv:"NAME"
           ~doc:"Repacking strategy: el (drain a bin after departures), cons \
                 (evict to avoid opening bins) or both (default).")

(* Flag cross-validation for run: every error names the offending flag
   and its valid range, before any instance is generated. *)
let run_configs ~reduce ~reduce_gamma ~repack ~repack_strategy =
  let reduce_cfg =
    if not reduce then
      if reduce_gamma <> 1.0 then Error "--reduce-gamma requires --reduce"
      else Ok None
    else if not (Float.is_finite reduce_gamma) || reduce_gamma < 1.0 then
      Error
        (Printf.sprintf "--reduce-gamma must be a finite float >= 1.0 (got %g)"
           reduce_gamma)
    else Ok (Some { Reduce.gamma = reduce_gamma; merge_twins = true })
  in
  let repack_cfg =
    match repack with
    | None ->
        if repack_strategy <> "both" then Error "--repack-strategy requires --repack"
        else Ok None
    | Some k ->
        if k < 0 || k > Repack.max_budget then
          Error
            (Printf.sprintf "--repack must be in 0..%d (got %d)" Repack.max_budget k)
        else (
          match Repack.strategy_of_name repack_strategy with
          | Error e -> Error ("--repack-strategy: " ^ e)
          | Ok strategy -> Ok (Some { Repack.budget = k; strategy }))
  in
  match (reduce_cfg, repack_cfg) with
  | Error e, _ | _, Error e -> Error e
  | Ok reduce, Ok repack -> Ok (reduce, repack)

let run_cmd =
  let action workload trace policy d mu n rho seed gantt export trajectory reduce
      reduce_gamma repack repack_strategy =
    match run_configs ~reduce ~reduce_gamma ~repack ~repack_strategy with
    | Error e -> prerr_endline e; 1
    | Ok (reduce, repack) -> (
        match build_instance ~workload ~trace ~d ~mu ~n ~rho ~seed with
        | Error e -> prerr_endline e; 1
        | Ok instance -> (
            match
              Cli.Run_report.run_one ?export ~trajectory ?reduce ?repack ~policy
                ~seed instance ~gantt
            with
            | Error e -> prerr_endline e; 1
            | Ok () -> 0))
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one policy on a workload or trace")
    Term.(const action $ workload_arg $ trace_arg $ policy_arg $ d_arg $ mu_arg
          $ n_arg $ rho_arg $ seed_arg $ gantt_arg $ export_arg $ trajectory_arg
          $ reduce_arg $ reduce_gamma_arg $ repack_arg $ repack_strategy_arg)

(* ---------- frontier ---------- *)

let frontier_cmd =
  let base_arg =
    Arg.(value & opt string "ff"
         & info [ "base" ] ~docv:"POLICY"
             ~doc:("Base policy of the repack family ("
                   ^ Dvbp_engine.Repack.supported_base_names ^ ")."))
  in
  let strategy_arg =
    Arg.(value & opt string "both"
         & info [ "strategy" ] ~docv:"NAME"
             ~doc:"Repacking strategy: el, cons or both.")
  in
  let ks_arg =
    Arg.(value & opt (list int) [ 0; 1; 2; 4; 8 ]
         & info [ "k" ] ~docv:"K1,K2,.."
             ~doc:"Comma-separated migration budgets to sweep.")
  in
  let fd_arg = Arg.(value & opt int 2 & info [ "d" ] ~docv:"INT" ~doc:"Dimensions.") in
  let fmu_arg =
    Arg.(value & opt int 100 & info [ "mu" ] ~docv:"INT" ~doc:"Max duration.")
  in
  let fn_arg =
    Arg.(value & opt int 200 & info [ "n" ] ~docv:"INT" ~doc:"Item count.")
  in
  let action base strategy ks m seed d mu n jobs =
    match
      match jobs with
      | Some j when j < 1 ->
          invalid_arg (Printf.sprintf "--jobs must be a positive integer (got %d)" j)
      | Some j -> Dvbp_parallel.Domain_pool.set_default_jobs j
      | None -> ignore (Dvbp_parallel.Domain_pool.default_jobs ())
    with
    | exception Invalid_argument msg -> prerr_endline msg; 1
    | () -> (
        match Repack.strategy_of_name strategy with
        | Error e -> prerr_endline ("--strategy: " ^ e); 1
        | Ok strategy -> (
            match
              X.Migration_frontier.run ~instances:m ~seed ~base ~strategy ~ks ~d
                ~mu ~n ()
            with
            | exception Invalid_argument msg -> prerr_endline msg; 1
            | f -> print_string (X.Migration_frontier.render f); 0))
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:"Sweep the migration budget/cost frontier: Any Fit references vs \
             budgeted repacking, against Lemma 1 and exact OPT")
    Term.(const action $ base_arg $ strategy_arg $ ks_arg $ instances_arg 40
          $ seed_arg $ fd_arg $ fmu_arg $ fn_arg $ jobs_arg)

(* ---------- figure4 ---------- *)

let figure4_cmd =
  let full_arg =
    Arg.(value & flag
         & info [ "full" ] ~doc:"Paper-scale run: 1000 instances per point (slow).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write long-format CSV here.")
  in
  let action full m seed csv jobs =
    match
      match jobs with
      | Some j when j < 1 ->
          invalid_arg (Printf.sprintf "--jobs must be a positive integer (got %d)" j)
      | Some j -> Dvbp_parallel.Domain_pool.set_default_jobs j
      | None -> ignore (Dvbp_parallel.Domain_pool.default_jobs ())
    with
    | exception Invalid_argument msg -> prerr_endline msg; 1
    | () ->
    let config =
      if full then X.Figure4.paper
      else { X.Figure4.default with X.Figure4.instances = m; seed }
    in
    print_string (X.Table2.render ~instances:config.X.Figure4.instances ());
    print_newline ();
    let cells = X.Figure4.run ~progress:prerr_endline config in
    print_string (X.Figure4.render_table cells);
    print_newline ();
    print_string (X.Figure4.render_plots cells);
    (match csv with
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (X.Figure4.to_csv cells));
        Printf.printf "wrote %s\n" path
    | None -> ());
    0
  in
  Cmd.v (Cmd.info "figure4" ~doc:"Regenerate the Figure 4 average-case sweep")
    Term.(const action $ full_arg $ instances_arg 60 $ seed_arg $ csv_arg $ jobs_arg)

(* ---------- table1 / table2 / figures ---------- *)

let table1_cmd =
  let action d mu fuzz seed =
    print_string (X.Table1.render_theory ());
    print_newline ();
    print_string
      (X.Table1.render_verification
         (X.Table1.verify_gadgets ~d ~mu:(float_of_int mu) ~ks:[ 2; 4; 8 ] ()));
    print_newline ();
    print_string (X.Table1.render_fuzz (X.Table1.fuzz_upper_bounds ~instances:fuzz ~seed ()));
    0
  in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate Table 1 with live verification")
    Term.(const action $ d_arg $ mu_arg $ instances_arg 200 $ seed_arg)

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Print the experimental parameter table")
    Term.(const (fun () -> print_string (X.Table2.render ()); 0) $ const ())

let figures_cmd =
  let action () =
    print_string (X.Proof_figures.figure1 ());
    print_newline ();
    print_string (X.Proof_figures.figure2 ());
    print_newline ();
    print_string (X.Proof_figures.figure3 ());
    0
  in
  Cmd.v (Cmd.info "figures" ~doc:"Regenerate Figures 1-3 from live runs")
    Term.(const action $ const ())

(* ---------- adversary ---------- *)

let adversary_cmd =
  let family_arg =
    Arg.(value & opt string "anyfit"
         & info [ "family" ] ~docv:"NAME" ~doc:"Gadget: anyfit, nextfit, mtf or bestfit.")
  in
  let k_arg = Arg.(value & opt int 4 & info [ "k" ] ~docv:"INT" ~doc:"Growth parameter.") in
  let action family d k mu policy gantt =
    let gadget =
      match family with
      | "anyfit" -> Ok (A.Anyfit_lb.construct ~d ~k ~mu:(float_of_int mu))
      | "nextfit" ->
          let k = if k mod 2 = 0 then k else k + 1 in
          Ok (A.Nextfit_lb.construct ~d ~k ~mu:(float_of_int mu))
      | "mtf" -> Ok (A.Mtf_lb.construct ~n:k ~mu:(float_of_int mu))
      | "bestfit" -> Ok (A.Bestfit_lb.construct ~k ~t_end:(float_of_int (4 * k * k)))
      | other -> Error (Printf.sprintf "unknown gadget family %S" other)
    in
    match gadget with
    | Error e -> prerr_endline e; 1
    | Ok g -> (
        Format.printf "%a@." A.Gadget.pp g;
        let target = Option.value ~default:policy g.A.Gadget.target in
        match Cli.Run_report.run_one ~policy:target ~seed:1 g.A.Gadget.instance ~gantt with
        | Error e -> prerr_endline e; 1
        | Ok () -> 0)
  in
  Cmd.v (Cmd.info "adversary" ~doc:"Build and execute a lower-bound gadget")
    Term.(const action $ family_arg $ d_arg $ k_arg $ mu_arg $ policy_arg $ gantt_arg)

(* ---------- describe ---------- *)

let describe_cmd =
  let list_arg =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"List every workload family with a one-line description and \
                   exit.")
  in
  let action list workload trace d mu n rho seed =
    if list then begin
      print_string (W.Describe.render_families ());
      0
    end
    else
      match build_instance ~workload ~trace ~d ~mu ~n ~rho ~seed with
      | Error e -> prerr_endline e; 1
      | Ok instance ->
          print_string (W.Describe.render (W.Describe.measure instance));
          0
  in
  Cmd.v (Cmd.info "describe" ~doc:"Summary statistics of a workload or trace")
    Term.(const action $ list_arg $ workload_arg $ trace_arg $ d_arg $ mu_arg
          $ n_arg $ rho_arg $ seed_arg)

(* ---------- opt ---------- *)

let opt_cmd =
  let trace_pos =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.CSV")
  in
  let action path =
    match W.Trace_io.read_file path with
    | Error e -> prerr_endline e; 1
    | Ok instance -> (
        Printf.printf "span lower bound:    %.4f\n" (Bounds.span instance);
        Printf.printf "utilisation bound:   %.4f\n" (Bounds.utilisation instance);
        Printf.printf "height bound (i):    %.4f\n" (Bounds.height_integral instance);
        Printf.printf "DFF bound:           %.4f\n" (Dvbp_lowerbound.Dff.integral instance);
        match Opt.exact instance with
        | Ok opt -> Printf.printf "exact OPT (eq. 2):   %.4f\n" opt; 0
        | Error (`Node_limit n) ->
            Printf.printf "exact OPT: node limit %d exceeded (instance too large)\n" n;
            1)
  in
  Cmd.v (Cmd.info "opt" ~doc:"Lower bounds and exact OPT of a CSV trace")
    Term.(const action $ trace_pos)

(* ---------- serve / recover / loadgen ---------- *)

let capacity_arg =
  Arg.(value & opt string "100,100"
       & info [ "capacity" ] ~docv:"C1,..,CD"
           ~doc:"Bin capacity vector, comma-separated positive integers.")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE" ~doc:"Append-only event journal (WAL).")

let snapshot_arg =
  Arg.(value & opt (some string) None
       & info [ "snapshot" ] ~docv:"FILE" ~doc:"Snapshot (checkpoint) file.")

let snapshot_every_arg =
  Arg.(value & opt (some int) None
       & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Auto-snapshot (and truncate the journal) every N applied events.")

let fsync_every_arg =
  Arg.(value & opt int 64
       & info [ "fsync-every" ] ~docv:"N"
           ~doc:"Journal fsync batch size (1 = fsync every record).")

let serve_jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"INT"
           ~doc:"Tenant shards (worker domains) for batched requests. Per-tenant \
                 packings are bit-identical for any value.")

let segment_bytes_arg =
  Arg.(value & opt (some int) None
       & info [ "segment-bytes" ] ~docv:"BYTES"
           ~doc:"Journal segment roll threshold (default 1048576): the active \
                 segment is sealed and a new one opened once it passes this \
                 size.")

let retain_segments_arg =
  Arg.(value & opt (some int) None
       & info [ "retain-segments" ] ~docv:"N"
           ~doc:"Arm online compaction: once more than N sealed segments \
                 accumulate, snapshot and retire the covered ones between \
                 batches. Requires --journal and --snapshot.")

let serve_cmd =
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Recover from an existing journal/snapshot before serving \
                   (a fresh journal is started otherwise).")
  in
  let metrics_dump_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-dump" ] ~docv:"FILE"
             ~doc:"Write the final METRICS snapshot here on exit \
                   (pretty-print it with $(b,dvbp metrics)).")
  in
  let listen_arg =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"SOCK"
             ~doc:"Serve many concurrent clients on this unix socket path \
                   (group commit across connections) instead of stdio.")
  in
  let action policy seed capacity journal snapshot snapshot_every fsync_every jobs
      segment_bytes retain_segments listen resume metrics_dump =
    match
      Cli.Service_cli.serve
        { Cli.Service_cli.policy; seed; capacity; journal; snapshot;
          snapshot_every; fsync_every; jobs; segment_bytes; retain_segments;
          listen; resume; metrics_dump }
        stdin stdout
    with
    | Ok () -> 0
    | Error e -> prerr_endline e; 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Durable online placement service: ARRIVE/DEPART line protocol on \
             stdio or a unix socket")
    Term.(const action $ policy_arg $ seed_arg $ capacity_arg $ journal_arg
          $ snapshot_arg $ snapshot_every_arg $ fsync_every_arg $ serve_jobs_arg
          $ segment_bytes_arg $ retain_segments_arg
          $ listen_arg $ resume_arg $ metrics_dump_arg)

let recover_cmd =
  let journal_pos =
    Arg.(required & opt (some string) None
         & info [ "journal" ] ~docv:"FILE" ~doc:"Journal to recover from.")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Verification is always performed (every recorded placement is \
                   recomputed and compared); the flag is accepted for explicit \
                   pipelines.")
  in
  let action journal snapshot _verify =
    match Cli.Service_cli.recover ~journal ~snapshot with
    | Ok rendered -> print_string rendered; 0
    | Error e -> prerr_endline e; 1
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild service state from journal + snapshot, verifying every placement")
    Term.(const action $ journal_pos $ snapshot_arg $ verify_arg)

let compact_cmd =
  let journal_req =
    Arg.(required & opt (some string) None
         & info [ "journal" ] ~docv:"FILE" ~doc:"Journal to compact.")
  in
  let snapshot_req =
    Arg.(required & opt (some string) None
         & info [ "snapshot" ] ~docv:"FILE"
             ~doc:"Snapshot to write at the recovered frontier (an existing \
                   one is read first and replaced atomically).")
  in
  let action journal snapshot segment_bytes =
    match Cli.Service_cli.compact ~journal ~snapshot ?segment_bytes () with
    | Ok out -> print_endline out; 0
    | Error e -> prerr_endline e; 1
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Offline journal compaction: snapshot the recovered frontier, \
             then retire every sealed segment it covers")
    Term.(const action $ journal_req $ snapshot_req $ segment_bytes_arg)

let loadgen_cmd =
  let emit_arg =
    Arg.(value & flag
         & info [ "emit" ]
             ~doc:"Print the protocol request script instead of driving a server.")
  in
  let policy_seed_arg =
    Arg.(value & opt int 42
         & info [ "policy-seed" ] ~docv:"INT"
             ~doc:"Policy rng seed (workload generation uses --seed).")
  in
  let clients_arg =
    Arg.(value & opt int 0
         & info [ "clients" ] ~docv:"N"
             ~doc:"Drive N concurrent clients (tenants t0..t{N-1}) against one \
                   event-loop server from one select(2) loop; 0 = the \
                   single-client pipe driver.")
  in
  let lg_jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"INT"
             ~doc:"Server-side tenant shards of the in-process event-loop \
                   server.")
  in
  let window_arg =
    Arg.(value & opt int 256
         & info [ "window" ] ~docv:"N"
             ~doc:"Requests each connection keeps in flight (one pipelined \
                   window); a binary trace sends one block per window.")
  in
  let lg_fsync_arg =
    Arg.(value & opt (some int) None
         & info [ "fsync-every" ] ~docv:"N"
             ~doc:"Journal fsync batch size / group-commit ceiling \
                   (default: 64 for the single-client pipe driver, 1024 \
                   otherwise).")
  in
  let connect_arg =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"SOCK"
             ~doc:"Drive an external $(b,dvbp serve --listen) server at this \
                   unix socket instead of an in-process one (server death \
                   mid-run is tolerated and reported).")
  in
  let action workload trace d mu n rho seed policy policy_seed journal snapshot
      snapshot_every fsync_every clients jobs window connect emit =
    let source = { Cli.Workload_select.workload; trace; d; mu; n; rho; seed } in
    match
      Cli.Service_cli.loadgen
        { Cli.Service_cli.source; lg_policy = policy; lg_seed = policy_seed;
          lg_journal = journal; lg_snapshot = snapshot;
          lg_snapshot_every = snapshot_every; lg_fsync_every = fsync_every;
          lg_clients = clients; lg_jobs = jobs; lg_window = window;
          lg_connect = connect; emit }
    with
    | Ok out -> print_string out; 0
    | Error e -> prerr_endline e; 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Replay a workload through the protocol against a live server")
    Term.(const action $ workload_arg $ trace_arg $ d_arg $ mu_arg $ n_arg
          $ rho_arg $ seed_arg $ policy_arg $ policy_seed_arg $ journal_arg
          $ snapshot_arg $ snapshot_every_arg $ lg_fsync_arg $ clients_arg
          $ lg_jobs_arg $ window_arg $ connect_arg $ emit_arg)

let metrics_cmd =
  let file_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"A metrics dump: the output of $(b,--metrics-dump) or a saved \
                   METRICS reply.")
  in
  let action file =
    match Cli.Metrics_report.of_file file with
    | Ok rendered -> print_string rendered; 0
    | Error e -> prerr_endline e; 1
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Pretty-print a Prometheus-style metrics snapshot")
    Term.(const action $ file_pos)

(* ---------- trace ---------- *)

let trace_group_cmd =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace path.")
  in
  let block_size_arg =
    Arg.(value & opt (some int) None
         & info [ "block-size" ] ~docv:"RECORDS"
             ~doc:"Records per block (default 512) — the unit of streaming \
                   reads and of seeking.")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"K"
             ~doc:"Chain $(docv) re-seeded copies of the source end to end \
                   (times shifted, ids offset). Compile memory stays \
                   O(one shard), so this is how multi-million-event traces \
                   are built.")
  in
  let from_model_arg =
    Arg.(value & opt string "uniform"
         & info [ "from-model" ] ~docv:"NAME"
             ~doc:("Generator family to compile: " ^ workload_names ^ "."))
  in
  let file_pos =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE")
  in
  let emit = function
    | Ok out -> print_string out; 0
    | Error e -> prerr_endline e; 1
  in
  let compile_cmd =
    let action workload trace d mu n rho seed out block_size shards =
      emit
        (Cli.Trace_cli.compile
           { Cli.Trace_cli.co_source =
               { Cli.Workload_select.workload; trace; d; mu; n; rho; seed };
             co_out = out; co_block_size = block_size; co_shards = shards })
    in
    Cmd.v
      (Cmd.info "compile"
         ~doc:"Compile a generator family or CSV trace to the binary format")
      Term.(const action $ from_model_arg $ trace_arg $ d_arg $ mu_arg $ n_arg
            $ rho_arg $ seed_arg $ out_arg $ block_size_arg $ shards_arg)
  in
  let info_cmd =
    let action path = emit (Cli.Trace_cli.info path) in
    Cmd.v (Cmd.info "info" ~doc:"Print a binary trace's header and geometry")
      Term.(const action $ file_pos)
  in
  let verify_cmd =
    let action path = emit (Cli.Trace_cli.verify path) in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Full-scan integrity check: every CRC and the event sort order")
      Term.(const action $ file_pos)
  in
  let replay_cmd =
    let action path policy seed =
      emit (Cli.Trace_cli.replay ~policy ~seed path)
    in
    Cmd.v
      (Cmd.info "replay"
         ~doc:"Stream a binary trace through an engine session and report \
               throughput")
      Term.(const action $ file_pos $ policy_arg $ seed_arg)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Compile, inspect, verify and replay binary traces")
    [ compile_cmd; info_cmd; verify_cmd; replay_cmd ]

let main_cmd =
  Cmd.group
    (Cmd.info "dvbp" ~version:"1.0.0"
       ~doc:"MinUsageTime Dynamic Vector Bin Packing — simulator and experiments")
    [ run_cmd; figure4_cmd; table1_cmd; table2_cmd; figures_cmd; adversary_cmd;
      describe_cmd; opt_cmd; frontier_cmd; serve_cmd; recover_cmd; compact_cmd;
      loadgen_cmd; metrics_cmd; trace_group_cmd ]

(* Error-path hardening: whatever escapes a subcommand becomes one line on
   stderr and a non-zero exit, never a raw backtrace. *)
let () =
  match Cmd.eval' main_cmd with
  | code -> exit code
  | exception Invalid_argument msg | exception Failure msg | exception Sys_error msg ->
      Printf.eprintf "dvbp: %s\n" msg;
      exit 2
  | exception Dvbp_engine.Session.Session_error msg ->
      Printf.eprintf "dvbp: session error: %s\n" msg;
      exit 2
  | exception exn ->
      Printf.eprintf "dvbp: %s\n" (Printexc.to_string exn);
      exit 2
