(* Tests for the binary trace store: format round trips, corruption
   rejection, seek-by-index correctness, streaming replay bit-identity
   against the in-memory path, and the loadgen streaming driver. *)

open Dvbp_tracestore
module Vec = Dvbp_vec.Vec
module Rng = Dvbp_prelude.Rng
module W = Dvbp_workload
module Instance = Dvbp_core.Instance
module Policy = Dvbp_core.Policy
module Session = Dvbp_engine.Session

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains_sub msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let with_tmp f =
  let path = Filename.temp_file "dvbp_test" ".dvbpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let gen_inst ?(d = 2) ?(n = 60) ?(seed = 11) () =
  W.Uniform_model.generate
    { W.Uniform_model.d; n; mu = 10; span = 50; bin_size = 20 }
    ~rng:(Rng.create ~seed)

let read_all ?time reader =
  let acc = ref [] in
  or_fail (Trace_reader.iter_from ?time reader (fun ev -> acc := ev :: !acc));
  List.rev !acc

(* feed a Binfmt event stream into a fresh session; the fingerprint is the
   bit-identity witness *)
let fingerprint_of_events ~capacity ~policy events =
  let session =
    Session.create ~record_trace:false ~capacity
      ~policy:(Policy.of_name_exn ~rng:(Rng.create ~seed:1) policy)
      ()
  in
  List.iter
    (fun (ev : Binfmt.event) ->
      ignore
        (Session.apply session
           (match ev.Binfmt.ev_kind with
           | `Arrive ->
               Session.Arrive
                 {
                   at = ev.Binfmt.ev_time;
                   id = Some ev.Binfmt.ev_id;
                   size = Vec.of_array ev.Binfmt.ev_size;
                 }
           | `Depart ->
               Session.Depart { at = ev.Binfmt.ev_time; item_id = ev.Binfmt.ev_id })))
    events;
  Session.fingerprint session

let fingerprint_of_reader ~policy reader =
  let capacity = (Trace_reader.header reader).Binfmt.capacity in
  let session =
    Session.create ~record_trace:false ~capacity
      ~policy:(Policy.of_name_exn ~rng:(Rng.create ~seed:1) policy)
      ()
  in
  let _stats = or_fail (Replay.into_session reader session) in
  Session.fingerprint session

(* byte surgery for the corruption tests *)
let flip_byte path off =
  let ic = open_in_bin path in
  seek_in ic off;
  let b = input_byte ic in
  close_in ic;
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc off;
  output_byte oc (b lxor 0xff);
  close_out oc

let truncate_to path len =
  let ic = open_in_bin path in
  let keep = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc keep;
  close_out oc

let file_len path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let roundtrip_tests =
  [
    Alcotest.test_case "compile then stream reproduces the event list" `Quick
      (fun () ->
        let inst = gen_inst () in
        let events = Compile.events_of_instance inst in
        with_tmp (fun path ->
            let summary = or_fail (Compile.of_instance ~path ~block_size:7 inst) in
            check_int "events" (List.length events) summary.Trace_writer.events;
            Trace_reader.with_file path (fun reader ->
                check_bool "same events" true (read_all reader = events);
                Ok ())
            |> or_fail));
    Alcotest.test_case "header records capacity, span, and count" `Quick
      (fun () ->
        let inst = gen_inst () in
        with_tmp (fun path ->
            let _ = or_fail (Compile.of_instance ~path inst) in
            Trace_reader.with_file path (fun reader ->
                let h = Trace_reader.header reader in
                check_bool "capacity" true
                  (Vec.equal h.Binfmt.capacity inst.Instance.capacity);
                check_int "d" (Instance.dim inst) h.Binfmt.d;
                check_int "events" (2 * Instance.size inst) h.Binfmt.events;
                check_bool "span" true (h.Binfmt.t_min <= h.Binfmt.t_max);
                Ok ())
            |> or_fail));
    Alcotest.test_case "to_instance inverts of_instance up to id relabeling"
      `Quick (fun () ->
        let inst = gen_inst ~seed:21 () in
        with_tmp (fun path ->
            let _ = or_fail (Compile.of_instance ~path inst) in
            let inst' =
              or_fail (Trace_reader.with_file path Compile.to_instance)
            in
            check_bool "capacity" true
              (Vec.equal inst.Instance.capacity inst'.Instance.capacity);
            (* ids are re-assigned in (arrival, id) order, so compare the
               id-insensitive content *)
            let shape (i : Instance.t) =
              List.sort compare
                (List.map
                   (fun (it : Dvbp_core.Item.t) ->
                     ( it.Dvbp_core.Item.arrival,
                       it.Dvbp_core.Item.departure,
                       Vec.to_array it.Dvbp_core.Item.size ))
                   i.Instance.items)
            in
            check_bool "same items" true (shape inst = shape inst')));
    Alcotest.test_case "ff/bf/mtf replay is bit-identical to in-memory" `Quick
      (fun () ->
        let inst = gen_inst ~n:200 ~seed:5 () in
        let events = Compile.events_of_instance inst in
        with_tmp (fun path ->
            let _ = or_fail (Compile.of_instance ~path ~block_size:16 inst) in
            List.iter
              (fun policy ->
                let mem =
                  fingerprint_of_events ~capacity:inst.Instance.capacity ~policy
                    events
                in
                let streamed =
                  or_fail
                    (Trace_reader.with_file path (fun reader ->
                         Ok (fingerprint_of_reader ~policy reader)))
                in
                check_string (policy ^ " fingerprint") mem streamed)
              [ "ff"; "bf"; "mtf" ]));
    Alcotest.test_case "sharded concatenation is a valid ordered trace" `Quick
      (fun () ->
        with_tmp (fun path ->
            let gen k = gen_inst ~n:30 ~seed:(100 + k) () in
            let summary =
              or_fail (Compile.sharded ~path ~block_size:8 ~shards:3 ~gen ())
            in
            check_int "events" (3 * 2 * 30) summary.Trace_writer.events;
            Trace_reader.with_file path (fun reader ->
                let n = or_fail (Trace_reader.verify reader) in
                check_int "verified count" summary.Trace_writer.events n;
                Ok ())
            |> or_fail));
    Alcotest.test_case "sharded rejects mismatched capacities" `Quick (fun () ->
        with_tmp (fun path ->
            let gen k = gen_inst ~d:(1 + k) ~n:10 ~seed:k () in
            check_bool "error" true
              (Result.is_error (Compile.sharded ~path ~shards:2 ~gen ()))));
  ]

let qcheck_roundtrip =
  (* random instance -> compile -> stream back: events and the packing
     must both survive the trip bit-for-bit *)
  let gen =
    QCheck2.Gen.(
      let* d = 1 -- 3 in
      let* n = 1 -- 15 in
      let* specs =
        list_repeat n
          (let* a = 0 -- 8 in
           let* dur = 1 -- 5 in
           let* size = array_repeat d (1 -- 10) in
           return (float_of_int a, float_of_int (a + dur), size))
      in
      let* block_size = 1 -- 6 in
      let* policy = oneofl [ "ff"; "bf"; "mtf" ] in
      return (d, specs, block_size, policy))
  in
  QCheck2.Test.make ~count:60
    ~name:"compile/stream round trip (random instances)" gen
    (fun (d, specs, block_size, policy) ->
      let inst =
        Instance.of_specs_exn
          ~capacity:(Vec.make ~dim:d 10)
          (List.map (fun (a, e, s) -> (a, e, Vec.of_array s)) specs)
      in
      let events = Compile.events_of_instance inst in
      with_tmp (fun path ->
          match Compile.of_instance ~path ~block_size inst with
          | Error e -> QCheck2.Test.fail_report e
          | Ok _ -> (
              match
                Trace_reader.with_file path (fun reader ->
                    let same_events = read_all reader = events in
                    let mem =
                      fingerprint_of_events ~capacity:inst.Instance.capacity
                        ~policy events
                    in
                    let streamed = fingerprint_of_reader ~policy reader in
                    Ok (same_events && mem = streamed))
              with
              | Ok ok -> ok
              | Error e -> QCheck2.Test.fail_report e)))

let corruption_tests =
  let compile_small path =
    or_fail (Compile.of_instance ~path ~block_size:5 (gen_inst ~n:25 ~seed:3 ()))
  in
  [
    Alcotest.test_case "non-trace file is sniffed out and rejected" `Quick
      (fun () ->
        with_tmp (fun path ->
            let oc = open_out_bin path in
            output_string oc "capacity,10\nitem,0,0.0,1.0,5\n";
            close_out oc;
            check_bool "sniff" false (Trace_reader.sniff_magic path);
            check_bool "open" true (Result.is_error (Trace_reader.open_file path))));
    Alcotest.test_case "truncated trailer rejected at open" `Quick (fun () ->
        with_tmp (fun path ->
            let _ = compile_small path in
            truncate_to path (file_len path - 7);
            check_bool "open" true (Result.is_error (Trace_reader.open_file path))));
    Alcotest.test_case "truncated to mid-block rejected at open" `Quick
      (fun () ->
        with_tmp (fun path ->
            let _ = compile_small path in
            truncate_to path (Binfmt.header_size ~d:2 + 3);
            check_bool "open" true (Result.is_error (Trace_reader.open_file path))));
    Alcotest.test_case "corrupt record fails read_block and verify" `Quick
      (fun () ->
        with_tmp (fun path ->
            let _ = compile_small path in
            (* a size byte inside the first record of block 0 *)
            flip_byte path (Binfmt.header_size ~d:2 + 14);
            let reader = or_fail (Trace_reader.open_file path) in
            Fun.protect
              ~finally:(fun () -> Trace_reader.close reader)
              (fun () ->
                (match Trace_reader.read_block reader 0 with
                | Error msg ->
                    check_bool "names the block" true (contains_sub msg "block 0")
                | Ok _ -> Alcotest.fail "corrupt block read back");
                check_bool "verify" true
                  (Result.is_error (Trace_reader.verify reader)))));
    Alcotest.test_case "corrupt header rejected at open" `Quick (fun () ->
        with_tmp (fun path ->
            let _ = compile_small path in
            flip_byte path 20;
            check_bool "open" true (Result.is_error (Trace_reader.open_file path))));
    Alcotest.test_case "corrupt index rejected at open" `Quick (fun () ->
        with_tmp (fun path ->
            let summary = compile_small path in
            (* the index sits between the last block and the 24-byte trailer *)
            let index_bytes =
              summary.Trace_writer.blocks * Binfmt.index_entry_size
            in
            flip_byte path (file_len path - Binfmt.trailer_size - index_bytes + 3);
            check_bool "open" true (Result.is_error (Trace_reader.open_file path))));
    Alcotest.test_case "verify passes on a clean trace" `Quick (fun () ->
        with_tmp (fun path ->
            let summary = compile_small path in
            Trace_reader.with_file path (fun reader ->
                check_int "count" summary.Trace_writer.events
                  (or_fail (Trace_reader.verify reader));
                Ok ())
            |> or_fail));
  ]

let seek_tests =
  [
    Alcotest.test_case "iter_from is exact at every block boundary" `Quick
      (fun () ->
        let inst = gen_inst ~n:40 ~seed:7 () in
        with_tmp (fun path ->
            let _ = or_fail (Compile.of_instance ~path ~block_size:4 inst) in
            Trace_reader.with_file path (fun reader ->
                let all = read_all reader in
                check_int "blocks" 20 (Trace_reader.blocks reader);
                for b = 0 to Trace_reader.blocks reader - 1 do
                  let t0 = Trace_reader.block_first_time reader b in
                  let expected =
                    List.filter (fun ev -> ev.Binfmt.ev_time >= t0) all
                  in
                  check_bool
                    (Printf.sprintf "boundary of block %d" b)
                    true
                    (read_all ~time:t0 reader = expected);
                  check_bool "seek lands at or before" true
                    (Trace_reader.seek reader t0 <= b)
                done;
                Ok ())
            |> or_fail));
    Alcotest.test_case "iter_from between boundaries and past the end" `Quick
      (fun () ->
        let inst = gen_inst ~n:40 ~seed:8 () in
        with_tmp (fun path ->
            let _ = or_fail (Compile.of_instance ~path ~block_size:4 inst) in
            Trace_reader.with_file path (fun reader ->
                let all = read_all reader in
                let h = Trace_reader.header reader in
                List.iter
                  (fun t0 ->
                    let expected =
                      List.filter (fun ev -> ev.Binfmt.ev_time >= t0) all
                    in
                    check_bool
                      (Printf.sprintf "from t=%g" t0)
                      true
                      (read_all ~time:t0 reader = expected))
                  [ h.Binfmt.t_min +. 0.5; 13.25; h.Binfmt.t_max; h.Binfmt.t_max +. 1.0 ];
                Ok ())
            |> or_fail));
  ]

let writer_tests =
  let arrive ~at ~id size = { Binfmt.ev_time = at; ev_kind = `Arrive; ev_id = id; ev_size = size } in
  [
    Alcotest.test_case "rejects out-of-order events" `Quick (fun () ->
        with_tmp (fun path ->
            let w = Trace_writer.create ~path ~capacity:(Vec.make ~dim:2 10) () in
            Trace_writer.add w (arrive ~at:2.0 ~id:0 [| 1; 1 |]);
            check_bool "raises" true
              (try
                 Trace_writer.add w (arrive ~at:1.0 ~id:1 [| 1; 1 |]);
                 false
               with Invalid_argument _ -> true);
            ignore (Trace_writer.close w)));
    Alcotest.test_case "rejects dimension mismatch" `Quick (fun () ->
        with_tmp (fun path ->
            let w = Trace_writer.create ~path ~capacity:(Vec.make ~dim:2 10) () in
            check_bool "raises" true
              (try
                 Trace_writer.add w (arrive ~at:0.0 ~id:0 [| 1 |]);
                 false
               with Invalid_argument _ -> true);
            ignore (Trace_writer.close w)));
    Alcotest.test_case "rejects absurd block sizes" `Quick (fun () ->
        with_tmp (fun path ->
            List.iter
              (fun block_size ->
                check_bool "raises" true
                  (try
                     ignore
                       (Trace_writer.create ~path ~capacity:(Vec.make ~dim:1 10)
                          ~block_size ());
                     false
                   with Invalid_argument _ -> true))
              [ 0; -3; Binfmt.max_block_size + 1 ]));
    Alcotest.test_case "counts events and sizes the file exactly" `Quick
      (fun () ->
        with_tmp (fun path ->
            let w = Trace_writer.create ~path ~capacity:(Vec.make ~dim:2 10) ~block_size:3 () in
            for i = 0 to 6 do
              Trace_writer.add w (arrive ~at:(float_of_int i) ~id:i [| 1; 2 |])
            done;
            check_int "event_count" 7 (Trace_writer.event_count w);
            let s = Trace_writer.close w in
            check_int "events" 7 s.Trace_writer.events;
            check_int "blocks" 3 s.Trace_writer.blocks;
            check_int "file bytes" (file_len path) s.Trace_writer.file_bytes));
  ]

let generator_tests =
  [
    Alcotest.test_case "new family defaults validate" `Quick (fun () ->
        check_bool "diurnal" true (Result.is_ok (W.Diurnal.validate W.Diurnal.default));
        check_bool "heavy_tail" true
          (Result.is_ok (W.Heavy_tail.validate W.Heavy_tail.default));
        check_bool "flash_crowd" true
          (Result.is_ok (W.Flash_crowd.validate W.Flash_crowd.default));
        check_bool "azure" true (Result.is_ok (W.Azure_mix.validate W.Azure_mix.default)));
    Alcotest.test_case "new families are deterministic per seed" `Quick
      (fun () ->
        let same gen =
          W.Trace_io.to_string (gen ~rng:(Rng.create ~seed:4))
          = W.Trace_io.to_string (gen ~rng:(Rng.create ~seed:4))
        in
        check_bool "diurnal" true (same (W.Diurnal.generate W.Diurnal.default));
        check_bool "heavy_tail" true (same (W.Heavy_tail.generate W.Heavy_tail.default));
        check_bool "flash_crowd" true
          (same (W.Flash_crowd.generate W.Flash_crowd.default));
        check_bool "azure" true (same (W.Azure_mix.generate W.Azure_mix.default)));
    Alcotest.test_case "diurnal keeps the base item count and dimension" `Quick
      (fun () ->
        let inst = W.Diurnal.generate W.Diurnal.default ~rng:(Rng.create ~seed:2) in
        check_int "n" W.Diurnal.default.W.Diurnal.base.W.Uniform_model.n
          (Instance.size inst);
        check_int "d" W.Diurnal.default.W.Diurnal.base.W.Uniform_model.d
          (Instance.dim inst));
    Alcotest.test_case "heavy-tail durations live in [1, max_duration]" `Quick
      (fun () ->
        let p = W.Heavy_tail.default in
        let inst = W.Heavy_tail.generate p ~rng:(Rng.create ~seed:6) in
        List.iter
          (fun (it : Dvbp_core.Item.t) ->
            let dur = Dvbp_core.Item.duration it in
            check_bool "lo" true (dur >= 1.0);
            check_bool "hi" true (dur <= p.W.Heavy_tail.max_duration))
          inst.Instance.items);
    Alcotest.test_case "heavy-tail rejects shape <= 1 and short spans" `Quick
      (fun () ->
        let p = W.Heavy_tail.default in
        check_bool "shape" true
          (Result.is_error (W.Heavy_tail.validate { p with W.Heavy_tail.shape = 1.0 }));
        check_bool "span" true
          (Result.is_error
             (W.Heavy_tail.validate
                {
                  p with
                  W.Heavy_tail.base =
                    { p.W.Heavy_tail.base with W.Uniform_model.span = 10 };
                })));
    Alcotest.test_case "flash crowd adds crowds * crowd_size items" `Quick
      (fun () ->
        let p = W.Flash_crowd.default in
        let inst = W.Flash_crowd.generate p ~rng:(Rng.create ~seed:9) in
        check_int "n"
          (p.W.Flash_crowd.base.W.Uniform_model.n
          + (p.W.Flash_crowd.crowds * p.W.Flash_crowd.crowd_size))
          (Instance.size inst));
    Alcotest.test_case "azure mix is 2-d with the server capacity" `Quick
      (fun () ->
        let p = { W.Azure_mix.default with W.Azure_mix.n = 200 } in
        let inst = W.Azure_mix.generate p ~rng:(Rng.create ~seed:10) in
        check_int "d" 2 (Instance.dim inst);
        check_bool "capacity" true
          (Vec.equal inst.Instance.capacity
             (Vec.of_list
                [ p.W.Azure_mix.server_cores; p.W.Azure_mix.server_memory_gb ]));
        (* demand vectors come straight from the catalogue *)
        List.iter
          (fun (it : Dvbp_core.Item.t) ->
            check_bool "known type" true
              (List.exists
                 (fun (t : W.Azure_mix.vm_type) ->
                   Vec.equal it.Dvbp_core.Item.size
                     (Vec.of_list [ t.W.Azure_mix.cores; t.W.Azure_mix.memory_gb ]))
                 p.W.Azure_mix.catalogue))
          inst.Instance.items);
  ]

let describe_tests =
  [
    Alcotest.test_case "every described family is selectable and builds" `Quick
      (fun () ->
        check_bool "names agree" true
          (List.map fst W.Describe.families
          = Dvbp_cli_lib.Workload_select.known_workloads);
        List.iter
          (fun (name, _) ->
            let source =
              {
                Dvbp_cli_lib.Workload_select.workload = name;
                trace = None;
                d = 2;
                mu = 10;
                n = 40;
                rho = 0.5;
                seed = 1;
              }
            in
            match Dvbp_cli_lib.Workload_select.build source with
            | Ok inst -> check_bool (name ^ " nonempty") true (Instance.size inst > 0)
            | Error e -> Alcotest.fail (name ^ ": " ^ e))
          W.Describe.families);
    Alcotest.test_case "render_families lists every family" `Quick (fun () ->
        let table = W.Describe.render_families () in
        List.iter
          (fun (name, _) ->
            check_bool (name ^ " listed") true (contains_sub table name))
          W.Describe.families);
  ]

let loadgen_tests =
  let drive path =
    Dvbp_service.Loadgen.(
      drive ~policy:"mtf" ~seed:2 ~transport:(In_process server_defaults) (Trace path))
  in
  [
    Alcotest.test_case "drive replays a compiled trace end to end" `Quick (fun () ->
        let inst = gen_inst ~n:80 ~seed:15 () in
        with_tmp (fun path ->
            let summary = or_fail (Compile.of_instance ~path ~block_size:16 inst) in
            match drive path with
            | Error e -> Alcotest.fail e
            | Ok r -> (
                check_int "events" summary.Trace_writer.events r.Dvbp_service.Loadgen.events;
                match r.Dvbp_service.Loadgen.trace with
                | None -> Alcotest.fail "no trace stats"
                | Some t ->
                    check_int "blocks" summary.Trace_writer.blocks t.Dvbp_service.Loadgen.blocks;
                    check_bool "resident window bounded" true
                      (t.Dvbp_service.Loadgen.resident_bytes_max > 0
                      && t.Dvbp_service.Loadgen.resident_bytes_max
                         < summary.Trace_writer.file_bytes))));
    Alcotest.test_case "drive rejects a CSV trace" `Quick (fun () ->
        with_tmp (fun path ->
            let oc = open_out_bin path in
            output_string oc "capacity,10\nitem,0,0.0,1.0,5\n";
            close_out oc;
            check_bool "error" true (Result.is_error (drive path))));
  ]

let replay_tests =
  [
    Alcotest.test_case "into_session reports counts and bounded residency"
      `Quick (fun () ->
        let inst = gen_inst ~n:120 ~seed:17 () in
        with_tmp (fun path ->
            let summary = or_fail (Compile.of_instance ~path ~block_size:8 inst) in
            Trace_reader.with_file path (fun reader ->
                let capacity = (Trace_reader.header reader).Binfmt.capacity in
                let session =
                  Session.create ~record_trace:false ~capacity
                    ~policy:(Policy.of_name_exn ~rng:(Rng.create ~seed:1) "ff")
                    ()
                in
                let stats = or_fail (Replay.into_session reader session) in
                check_int "events" summary.Trace_writer.events stats.Replay.events;
                check_int "arrivals" (Instance.size inst) stats.Replay.arrivals;
                check_int "departures" (Instance.size inst) stats.Replay.departures;
                check_int "blocks" summary.Trace_writer.blocks stats.Replay.blocks;
                check_bool "resident window < file" true
                  (stats.Replay.resident_bytes_max > 0
                  && stats.Replay.resident_bytes_max < summary.Trace_writer.file_bytes);
                Ok ())
            |> or_fail));
    Alcotest.test_case "into_session rejects a capacity mismatch" `Quick
      (fun () ->
        let inst = gen_inst ~d:2 ~n:10 () in
        with_tmp (fun path ->
            let _ = or_fail (Compile.of_instance ~path inst) in
            Trace_reader.with_file path (fun reader ->
                let session =
                  Session.create ~capacity:(Vec.make ~dim:3 10)
                    ~policy:(Policy.of_name_exn ~rng:(Rng.create ~seed:1) "ff")
                    ()
                in
                check_bool "error" true
                  (Result.is_error (Replay.into_session reader session));
                Ok ())
            |> or_fail));
  ]

let trace_io_regression_tests =
  (* the CSV parser must point at the offending line *and* field *)
  [
    Alcotest.test_case "bad capacity entry names line and field" `Quick
      (fun () ->
        match W.Trace_io.of_string "capacity,10,ten\n" with
        | Error msg ->
            check_bool "line 1" true (contains_sub msg "line 1");
            check_bool "field 3" true (contains_sub msg "field 3");
            check_bool "offender" true (contains_sub msg "\"ten\"")
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "bad arrival names line and field" `Quick (fun () ->
        match W.Trace_io.of_string "capacity,10\nitem,0,noon,1.0,5\n" with
        | Error msg ->
            check_bool "line 2" true (contains_sub msg "line 2");
            check_bool "field 3" true (contains_sub msg "field 3");
            check_bool "offender" true (contains_sub msg "\"noon\"")
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "bad size entry names its ordinal" `Quick (fun () ->
        match W.Trace_io.of_string "capacity,10,10\nitem,0,0.0,1.0,5,five\n" with
        | Error msg ->
            check_bool "line 2" true (contains_sub msg "line 2");
            check_bool "field 6" true (contains_sub msg "field 6")
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "dimension mismatch vs capacity is reported" `Quick
      (fun () ->
        match W.Trace_io.of_string "capacity,10,10\nitem,0,0.0,1.0,5\n" with
        | Error msg ->
            check_bool "line 2" true (contains_sub msg "line 2");
            check_bool "counts" true
              (contains_sub msg "1 size entries" && contains_sub msg "2 dimensions")
        | Ok _ -> Alcotest.fail "expected error");
  ]

(* CRC-32 against a bit-at-a-time reference: the slicing-by-8 kernel
   folds eight bytes per step and takes the tail bytewise, so every
   alignment of [pos] and every [len] around the 8-byte step is checked,
   from a fresh start and from a running value. *)
let crc32_reference crc b ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let qcheck_crc32 =
  let gen =
    QCheck2.Gen.(
      let* bytes = string_size ~gen:char (return 141) in
      let* start = int_bound 0xFFFFFFFF in
      let* cut = 0 -- 70 in
      return (bytes, start, cut))
  in
  QCheck2.Test.make ~count:40
    ~name:"slicing-by-8 update equals the bytewise reference at every pos and len"
    gen (fun (s, start, cut) ->
      let b = Bytes.of_string s in
      for pos = 0 to 70 do
        for len = 0 to 70 do
          let want = crc32_reference start b ~pos ~len in
          if Crc32.update start b ~pos ~len <> want then
            QCheck2.Test.fail_reportf "pos %d len %d from %08x" pos len start;
          (* chained: split the range anywhere, resume from the first part *)
          let k = min cut len in
          let first = Crc32.update start b ~pos ~len:k in
          let chained = Crc32.update first b ~pos:(pos + k) ~len:(len - k) in
          if chained <> want then
            QCheck2.Test.fail_reportf "pos %d len %d split at %d from %08x" pos len k start
        done
      done;
      true)

let crc32_tests =
  [
    Alcotest.test_case "check value of \"123456789\" is 0xCBF43926" `Quick (fun () ->
        check_int "crc" 0xCBF43926 (Crc32.string "123456789");
        check_int "empty" 0 (Crc32.string "");
        check_int "bytes ~pos ~len" 0xCBF43926
          (Crc32.bytes ~pos:2 ~len:9 (Bytes.of_string "xx123456789yy")));
    Alcotest.test_case "out-of-bounds ranges are refused" `Quick (fun () ->
        let b = Bytes.make 16 'a' in
        List.iter
          (fun (pos, len) ->
            Alcotest.check_raises
              (Printf.sprintf "pos %d len %d" pos len)
              (Invalid_argument "Crc32.update: range out of bounds")
              (fun () -> ignore (Crc32.update 0 b ~pos ~len)))
          [ (-1, 4); (0, -1); (0, 17); (9, 8); (16, 1) ]);
  ]

let suites =
  [
    ( "tracestore.roundtrip",
      roundtrip_tests @ [ QCheck_alcotest.to_alcotest qcheck_roundtrip ] );
    ("tracestore.corruption", corruption_tests);
    ("tracestore.seek", seek_tests);
    ("tracestore.writer", writer_tests);
    ("tracestore.replay", replay_tests);
    ("tracestore.loadgen", loadgen_tests);
    ("tracestore.families", generator_tests @ describe_tests);
    ("tracestore.trace_io", trace_io_regression_tests);
    ("tracestore.crc32", crc32_tests @ [ QCheck_alcotest.to_alcotest qcheck_crc32 ]);
  ]
