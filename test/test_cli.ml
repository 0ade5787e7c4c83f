(* Tests for the CLI support library: workload selection/dispatch and the
   run-and-report path. *)

open Dvbp_cli_lib
module Instance = Dvbp_core.Instance

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains_sub msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let source ?(workload = "uniform") ?trace ?(d = 2) ?(mu = 5) ?(n = 50)
    ?(rho = 0.5) ?(seed = 1) () =
  { Workload_select.workload; trace; d; mu; n; rho; seed }

let select_tests =
  [
    Alcotest.test_case "every known workload builds" `Quick (fun () ->
        List.iter
          (fun workload ->
            match Workload_select.build (source ~workload ()) with
            | Ok inst -> check_bool workload true (Instance.size inst > 0)
            | Error e -> Alcotest.failf "%s: %s" workload e)
          Workload_select.known_workloads);
    Alcotest.test_case "uniform respects n and d" `Quick (fun () ->
        match Workload_select.build (source ~n:77 ~d:3 ()) with
        | Ok inst ->
            check_int "n" 77 (Instance.size inst);
            check_int "d" 3 (Instance.dim inst)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "unknown workload is a clean error" `Quick (fun () ->
        match Workload_select.build (source ~workload:"nonsense" ()) with
        | Error msg -> check_bool "mentions known list" true
            (String.length msg > 0)
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "generator validation surfaces as Error" `Quick (fun () ->
        check_bool "n=0" true
          (Result.is_error (Workload_select.build (source ~n:0 ())));
        check_bool "mu>span" true
          (Result.is_error (Workload_select.build (source ~mu:100_000 ()))));
    Alcotest.test_case "trace overrides workload" `Quick (fun () ->
        let path = Filename.temp_file "dvbp_cli" ".csv" in
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc "capacity,10\nitem,0,0.0,1.0,5\n");
            match Workload_select.build (source ~workload:"nonsense" ~trace:path ()) with
            | Ok inst -> check_int "one item" 1 (Instance.size inst)
            | Error e -> Alcotest.fail e));
    Alcotest.test_case "missing trace file is a clean error" `Quick (fun () ->
        check_bool "error" true
          (Result.is_error
             (Workload_select.build (source ~trace:"/nonexistent.csv" ()))));
    Alcotest.test_case "deterministic per seed" `Quick (fun () ->
        let get () =
          match Workload_select.build (source ~seed:9 ()) with
          | Ok i -> Dvbp_workload.Trace_io.to_string i
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check string) "same" (get ()) (get ()));
  ]

let report_tests =
  [
    Alcotest.test_case "run_one succeeds for every policy name" `Quick (fun () ->
        let inst =
          match Workload_select.build (source ~n:20 ()) with
          | Ok i -> i
          | Error e -> Alcotest.fail e
        in
        List.iter
          (fun policy ->
            match Run_report.run_one ~policy ~seed:1 inst ~gantt:false with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" policy e)
          ("daf" :: "hff" :: Dvbp_core.Policy.standard_names));
    Alcotest.test_case "run_one exports assignments on request" `Quick (fun () ->
        let inst =
          match Workload_select.build (source ~n:10 ()) with
          | Ok i -> i
          | Error e -> Alcotest.fail e
        in
        let path = Filename.temp_file "dvbp_assign" ".csv" in
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
            (match Run_report.run_one ~export:path ~policy:"ff" ~seed:1 inst ~gantt:false with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            let lines =
              In_channel.with_open_text path In_channel.input_all
              |> String.split_on_char '\n'
              |> List.filter (fun l -> l <> "")
            in
            (* header + one row per item *)
            check_int "rows" (1 + Instance.size inst) (List.length lines)));
    Alcotest.test_case "run_one with trajectory plot succeeds" `Quick (fun () ->
        let inst =
          match Workload_select.build (source ~n:15 ()) with
          | Ok i -> i
          | Error e -> Alcotest.fail e
        in
        match Run_report.run_one ~trajectory:true ~policy:"mtf" ~seed:1 inst ~gantt:false with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "run_one rejects unknown policies" `Quick (fun () ->
        let inst =
          match Workload_select.build (source ~n:5 ()) with
          | Ok i -> i
          | Error e -> Alcotest.fail e
        in
        check_bool "error" true
          (Result.is_error (Run_report.run_one ~policy:"zzz" ~seed:1 inst ~gantt:false)));
    Alcotest.test_case "run_one --reduce and --repack paths succeed" `Quick
      (fun () ->
        let inst =
          match Workload_select.build (source ~n:20 ()) with
          | Ok i -> i
          | Error e -> Alcotest.fail e
        in
        (match
           Run_report.run_one
             ~reduce:{ Dvbp_reduce.Reduce.gamma = 1.2; merge_twins = true }
             ~policy:"ff" ~seed:1 inst ~gantt:false
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        match
          Run_report.run_one ~repack:Dvbp_engine.Repack.default_config
            ~policy:"ff" ~seed:1 inst ~gantt:false
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "run_one --repack rejections name the flag" `Quick
      (fun () ->
        let inst =
          match Workload_select.build (source ~n:5 ()) with
          | Ok i -> i
          | Error e -> Alcotest.fail e
        in
        let repack = Dvbp_engine.Repack.default_config in
        let expect flag = function
          | Error msg -> check_bool (flag ^ " named") true (contains_sub msg flag)
          | Ok () -> Alcotest.failf "%s: expected an error" flag
        in
        expect "--gantt" (Run_report.run_one ~repack ~policy:"ff" ~seed:1 inst ~gantt:true);
        expect "--export"
          (Run_report.run_one ~repack ~export:"/dev/null" ~policy:"ff" ~seed:1 inst
             ~gantt:false);
        expect "--trajectory"
          (Run_report.run_one ~repack ~trajectory:true ~policy:"ff" ~seed:1 inst
             ~gantt:false);
        expect "--reduce"
          (Run_report.run_one ~repack ~reduce:Dvbp_reduce.Reduce.default_config
             ~policy:"ff" ~seed:1 inst ~gantt:false);
        (match Run_report.run_one ~repack ~policy:"nf" ~seed:1 inst ~gantt:false with
        | Error msg ->
            check_bool "names supported bases" true
              (contains_sub msg Dvbp_engine.Repack.supported_base_names)
        | Ok () -> Alcotest.fail "nf: expected an error"));
  ]

(* The service subcommands return [Error msg] on every bad input — the
   binary maps that to one line on stderr and a non-zero exit — so the
   error paths are all unit-testable here. *)

let serve_opts ?(policy = "mtf") ?(seed = 7) ?(capacity = "100,100") ?journal
    ?snapshot ?snapshot_every ?(jobs = 1) ?segment_bytes
    ?retain_segments ?listen ?(resume = false) ?metrics_dump () =
  {
    Service_cli.policy;
    seed;
    capacity;
    journal;
    snapshot;
    snapshot_every;
    jobs;
    segment_bytes;
    retain_segments;
    listen;
    resume;
    metrics_dump;
  }

let with_tmp_dir f =
  let dir = Filename.temp_file "dvbp_cli_service" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* runs [Service_cli.serve] over temp files carrying the request script,
   as [dvbp serve < in.txt > out.txt] does *)
let serve_script opts script =
  with_tmp_dir (fun dir ->
      let inp = Filename.concat dir "in.txt" in
      let outp = Filename.concat dir "out.txt" in
      Out_channel.with_open_text inp (fun oc -> Out_channel.output_string oc script);
      let with_fd path flags f =
        let fd = Unix.openfile path flags 0o600 in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)
      in
      let result =
        with_fd inp [ Unix.O_RDONLY ] (fun input ->
            with_fd outp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] (fun output ->
                Service_cli.serve opts input output))
      in
      Result.map
        (fun () -> In_channel.with_open_text outp In_channel.input_all)
        result)

let service_tests =
  [
    Alcotest.test_case "parse_capacity accepts well-formed vectors" `Quick
      (fun () ->
        (match Service_cli.parse_capacity " 10 , 20 " with
        | Ok v -> check_bool "parsed" true (Dvbp_vec.Vec.to_array v = [| 10; 20 |])
        | Error e -> Alcotest.fail e);
        match Service_cli.parse_capacity "100" with
        | Ok v -> check_int "dim 1" 1 (Dvbp_vec.Vec.dim v)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "parse_capacity rejects malformed vectors" `Quick
      (fun () ->
        List.iter
          (fun s ->
            check_bool s true (Result.is_error (Service_cli.parse_capacity s)))
          [ ""; " "; "0"; "-3"; "ten"; "1,,2"; "10,0"; "1,2,x" ]);
    Alcotest.test_case "serve surfaces a bad capacity flag" `Quick (fun () ->
        match serve_script (serve_opts ~capacity:"1,zap" ()) "QUIT\n" with
        | Error msg -> check_bool "names the flag" true (contains_sub msg "--capacity")
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "serve surfaces an unknown policy" `Quick (fun () ->
        check_bool "error" true
          (Result.is_error (serve_script (serve_opts ~policy:"zzz" ()) "QUIT\n")));
    Alcotest.test_case "serve rejects --resume without --journal" `Quick (fun () ->
        match serve_script (serve_opts ~resume:true ()) "QUIT\n" with
        | Error msg -> check_bool "names journal" true (contains_sub msg "journal")
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "serve rejects snapshot-every without snapshot path"
      `Quick (fun () ->
        check_bool "error" true
          (Result.is_error
             (serve_script (serve_opts ~snapshot_every:5 ()) "QUIT\n")));
    Alcotest.test_case "serve answers the protocol end to end" `Quick (fun () ->
        match serve_script (serve_opts ()) "ARRIVE 0 0 60,10\nSTATS\nQUIT\n" with
        | Ok out ->
            check_bool "placed" true (contains_sub out "PLACED 0 1");
            check_bool "stats" true (contains_sub out "placements=1");
            check_bool "bye" true (contains_sub out "BYE")
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "serve --resume continues a journaled session" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let opts = serve_opts ~journal () in
            (match serve_script opts "ARRIVE 0 0 60,10\nQUIT\n" with
            | Ok out -> check_bool "placed" true (contains_sub out "PLACED 0 1")
            | Error e -> Alcotest.fail e);
            match
              serve_script { opts with Service_cli.resume = true }
                "ARRIVE 1 1 30,30\nSTATS\nQUIT\n"
            with
            | Ok out ->
                (* the recovered mtf state reuses bin 0 rather than opening *)
                check_bool "resumed placement" true (contains_sub out "PLACED 0 0");
                check_bool "both events" true (contains_sub out "events=2")
            | Error e -> Alcotest.fail e));
    Alcotest.test_case "serve --listen stops on SIGTERM: journal synced, metrics dumped"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let sock = Filename.concat dir "s.sock" in
            let journal = Filename.concat dir "j.log" in
            let dump = Filename.concat dir "m.prom" in
            (* a client on its own domain: one ARRIVE, its reply, then
               SIGTERM to this process, whose main domain is serving; the
               signal is sent even if the exchange fails, so the server
               always stops *)
            let client =
              Domain.spawn (fun () ->
                  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                  let buf = Bytes.create 256 and got = Buffer.create 64 in
                  Fun.protect
                    ~finally:(fun () -> Unix.kill (Unix.getpid ()) Sys.sigterm)
                    (fun () ->
                      let rec connect tries =
                        match Unix.connect fd (Unix.ADDR_UNIX sock) with
                        | () -> ()
                        | exception Unix.Unix_error _ when tries > 0 ->
                            Unix.sleepf 0.01;
                            connect (tries - 1)
                      in
                      connect 500;
                      let req = "ARRIVE 0 0 60,10\n" in
                      ignore (Unix.write_substring fd req 0 (String.length req));
                      let rec read_reply () =
                        let n = Unix.read fd buf 0 (Bytes.length buf) in
                        Buffer.add_subbytes got buf 0 n;
                        if n > 0 && not (String.contains (Buffer.contents got) '\n') then
                          read_reply ()
                      in
                      read_reply ());
                  (* the server closes the connection as it stops *)
                  let rec drain () =
                    match Unix.read fd buf 0 (Bytes.length buf) with
                    | 0 -> ()
                    | _ -> drain ()
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
                  in
                  drain ();
                  Unix.close fd;
                  Buffer.contents got)
            in
            let served =
              Service_cli.serve
                (serve_opts ~journal ~listen:sock ~metrics_dump:dump ())
                Unix.stdin Unix.stdout
            in
            let reply = Domain.join client in
            (match served with Ok () -> () | Error e -> Alcotest.fail e);
            check_string "the ARRIVE was answered" "PLACED 0 1\n" reply;
            check_bool "the socket path is removed" false (Sys.file_exists sock);
            let text = In_channel.with_open_text dump In_channel.input_all in
            check_bool "the dump holds the request counter" true
              (contains_sub text "dvbp_server_requests_total");
            match Service_cli.recover ~journal ~snapshot:None with
            | Ok out -> check_bool "the acked event recovers" true (contains_sub out "bin 0")
            | Error e -> Alcotest.fail e));
    Alcotest.test_case "recover reports a missing journal" `Quick (fun () ->
        match Service_cli.recover ~journal:"/nonexistent/j.log" ~snapshot:None with
        | Error msg -> check_bool "names the path" true (contains_sub msg "j.log")
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "recover renders a journaled session" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            (match serve_script (serve_opts ~journal ()) "ARRIVE 0 0 60,10\nQUIT\n" with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
            match Service_cli.recover ~journal ~snapshot:None with
            | Ok out ->
                check_bool "policy" true (contains_sub out "mtf");
                check_bool "open bin" true (contains_sub out "bin 0")
            | Error e -> Alcotest.fail e));
    Alcotest.test_case "recover rejects a corrupt journal" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            Out_channel.with_open_text journal (fun oc ->
                Out_channel.output_string oc "not a journal at all\n");
            check_bool "error" true
              (Result.is_error (Service_cli.recover ~journal ~snapshot:None))));
    Alcotest.test_case "serve rejects retain-segments without snapshot path"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            check_bool "error" true
              (Result.is_error
                 (serve_script
                    (serve_opts ~journal ~retain_segments:1 ())
                    "QUIT\n"))));
    Alcotest.test_case "compact reports a missing journal" `Quick (fun () ->
        match
          Service_cli.compact ~journal:"/nonexistent/j.log"
            ~snapshot:"/nonexistent/s.snap" ()
        with
        | Error msg -> check_bool "names the path" true (contains_sub msg "j.log")
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "compact retires the sealed chain behind a snapshot"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            (* tiny segments: every event run seals its own segment, and
               each STATS line ends a run *)
            (match
               serve_script
                 (serve_opts ~journal ~segment_bytes:64 ())
                 "ARRIVE 0 0 60,10\nSTATS\nARRIVE 1 1 50,50\nSTATS\nDEPART 2 0\nQUIT\n"
             with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
            (match Service_cli.compact ~journal ~snapshot () with
            | Error e -> Alcotest.fail e
            | Ok out ->
                check_bool "events covered" true (contains_sub out "3 events");
                check_bool "segments retired" true
                  (contains_sub out "3 sealed segments retired"));
            (* the compacted state still recovers: snapshot plus tail *)
            match Service_cli.recover ~journal ~snapshot:(Some snapshot) with
            | Ok out -> check_bool "recovers" true (contains_sub out "mtf")
            | Error e -> Alcotest.fail e));
    Alcotest.test_case "loadgen --emit prints the protocol script" `Quick
      (fun () ->
        let opts =
          {
            Service_cli.source = source ~n:5 ();
            lg_policy = "mtf";
            lg_seed = 7;
            lg_journal = None;
            lg_snapshot = None;
            lg_snapshot_every = None;
            lg_clients = 1;
            lg_jobs = 1;
            lg_window = 256;
            lg_connect = None;
            emit = true;
          }
        in
        match Service_cli.loadgen opts with
        | Ok out ->
            check_bool "arrives" true (contains_sub out "ARRIVE");
            check_bool "departs" true (contains_sub out "DEPART")
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "loadgen surfaces workload and policy errors" `Quick
      (fun () ->
        let opts =
          {
            Service_cli.source = source ~trace:"/nonexistent.csv" ();
            lg_policy = "mtf";
            lg_seed = 7;
            lg_journal = None;
            lg_snapshot = None;
            lg_snapshot_every = None;
            lg_clients = 1;
            lg_jobs = 1;
            lg_window = 256;
            lg_connect = None;
            emit = false;
          }
        in
        check_bool "bad trace" true (Result.is_error (Service_cli.loadgen opts));
        (match
           Service_cli.loadgen
             { opts with Service_cli.source = source ~n:5 (); lg_clients = 0 }
         with
        | Error msg -> check_bool "zero clients names --clients 1" true (contains_sub msg "--clients 1")
        | Ok _ -> Alcotest.fail "--clients 0 accepted");
        check_bool "bad policy" true
          (Result.is_error
             (Service_cli.loadgen
                { opts with Service_cli.source = source ~n:5 (); lg_policy = "zzz" })));
  ]

let suites =
  [
    ("cli.workload_select", select_tests);
    ("cli.run_report", report_tests);
    ("cli.service", service_tests);
  ]
