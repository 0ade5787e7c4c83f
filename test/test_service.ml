(* Tests for the durable placement service: journal codec and torn-tail
   handling, snapshot round trips, crash recovery (the keystone property:
   recovery from any prefix of the journal, followed by replaying the
   remaining events, is bit-identical to an uninterrupted session), the
   server's line protocol with per-request error isolation, and the load
   generator. *)

open Dvbp_service
module Vec = Dvbp_vec.Vec
module Rng = Dvbp_prelude.Rng
module Session = Dvbp_engine.Session
module Uniform_model = Dvbp_workload.Uniform_model

let v = Vec.of_list
let cap = v [ 100; 100 ]
let dflt = Tenant.default
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains_sub msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

(* first-occurrence textual replacement, for doctoring serialised state *)
let replace_sub text ~sub ~by =
  let n = String.length text and m = String.length sub in
  let rec find i = if i + m > n then None
    else if String.sub text i m = sub then Some i else find (i + 1) in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i -> String.sub text 0 i ^ by ^ String.sub text (i + m) (n - i - m)

let ok_or_fail = function Ok x -> x | Error e -> Alcotest.fail e

let with_tmp_dir f =
  let dir = Filename.temp_file "dvbp_service" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let header ?(policy = "mtf") ?(seed = 7) ?(capacity = cap) ?(base = 0) () =
  { Journal.policy; seed; capacity; base }

(* the segmented journal's files for a journal configured at [path]; tests
   that doctor bytes on disk target the active segment — the only file the
   torn-tail rules allow to heal *)
let active_seg ?(idx = 0) path = Printf.sprintf "%s.%06d.seg.open" path idx
let sealed_seg ~idx path = Printf.sprintf "%s.%06d.seg" path idx

(* A deterministic little event script exercising placements across several
   bins, departures, and bin reuse. The recorded placements are computed by
   a real mtf session, so they are exactly what a server would journal. *)
let sample_raw =
  [
    `Arrive (0.0, 0, v [ 60; 10 ]);
    `Arrive (1.0, 1, v [ 50; 50 ]);
    `Arrive (1.5, 2, v [ 30; 20 ]);
    `Depart (3.0, 0);
    `Depart (4.0, 2);
    `Depart (5.5, 1);
  ]

let record_raw ?(policy = "mtf") ?(seed = 7) ?(capacity = cap) raw =
  let p =
    match
      Dvbp_core.Policy.of_name ~rng:(Rng.create ~seed) policy
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let s = Session.create ~capacity ~policy:p () in
  List.map
    (function
      | `Arrive (time, item_id, size) ->
          let p = Session.arrive s ~at:time ~id:item_id ~size () in
          Journal.Arrive
            {
              tenant = dflt;
              time;
              item_id;
              size;
              bin_id = p.Session.bin_id;
              opened_new_bin = p.Session.opened_new_bin;
            }
      | `Depart (time, item_id) ->
          Session.depart s ~at:time ~item_id;
          Journal.Depart { tenant = dflt; time; item_id })
    raw

let sample_events = record_raw sample_raw

(* v2 record bytes, pinned: integer extremes and every float class the
   hex-time writer distinguishes (signed zeros, subnormals, the largest
   finite, inf and nan). They are the on-disk format, so any encoder
   change must reproduce them byte for byte. *)
let pinned_records =
  let arrive ?(tenant = dflt) time item_id size bin_id opened_new_bin =
    Journal.Arrive { tenant; time; item_id; size = v size; bin_id; opened_new_bin }
  in
  let depart ?(tenant = dflt) time item_id = Journal.Depart { tenant; time; item_id } in
  let third = 1.0 /. 3.0 and big = (2.0 ** 53.0) +. 2.0 in
  let min_normal = 2.2250738585072014e-308 in
  [
    (arrive 0.0 0 [ 1; 2 ] 0 true, "arrive,default,0x0p+0,0,0,1,1,2,~37c5");
    (arrive ~tenant:"t1" (-0.0) 9 [ 10; 99 ] 9 false, "arrive,t1,-0x0p+0,9,9,0,10,99,~435f");
    ( arrive 0.1 10 [ 100; 1000; 12345 ] 10 true,
      "arrive,default,0x1.999999999999ap-4,10,10,1,100,1000,12345,~614d" );
    (arrive third (-1) [ 0 ] (-1) false, "arrive,default,0x1.5555555555555p-2,-1,-1,0,0,~b0ed");
    ( arrive 5e-324 max_int [ max_int; 0 ] max_int true,
      "arrive,default,0x0.0000000000001p-1022,4611686018427387903,4611686018427387903,1,\
       4611686018427387903,0,~5866" );
    ( arrive big min_int [ 987654321; 1 ] min_int false,
      "arrive,default,0x1.0000000000001p+53,-4611686018427387904,-4611686018427387904,0,\
       987654321,1,~3357" );
    ( arrive ~tenant:"tenant_B.9-x" 1e300 123456789
        [ 4611686018427387903; 20; 300; 4000; 50000 ] 42 true,
      "arrive,tenant_B.9-x,0x1.7e43c8800759cp+996,123456789,42,1,4611686018427387903,20,300,\
       4000,50000,~aac2" );
    (arrive infinity 7 [ 3; 3 ] 1 false, "arrive,default,inf,7,1,0,3,3,~ea83");
    (arrive Float.nan 8 [ 5; 6 ] 2 true, "arrive,default,nan,8,2,1,5,6,~0485");
    (arrive 1.0 11 [ 9; 10 ] 3 false, "arrive,default,0x1p+0,11,3,0,9,10,~3bf3");
    (arrive (-1.5) 12 [ 99; 100 ] 4 true, "arrive,default,-0x1.8p+0,12,4,1,99,100,~1fa6");
    (depart 0.0 0, "depart,default,0x0p+0,0,~59f4");
    (depart (-0.0) 9, "depart,default,-0x0p+0,9,~9a04");
    (depart 0.1 10, "depart,default,0x1.999999999999ap-4,10,~3c0d");
    (depart third (-1), "depart,default,0x1.5555555555555p-2,-1,~a6a8");
    (depart 5e-324 max_int, "depart,default,0x0.0000000000001p-1022,4611686018427387903,~b356");
    (depart big min_int, "depart,default,0x1.0000000000001p+53,-4611686018427387904,~0b5c");
    (depart 1e300 99, "depart,default,0x1.7e43c8800759cp+996,99,~f3e7");
    (depart neg_infinity 100, "depart,default,-inf,100,~5e9c");
    (depart Float.nan 1000, "depart,default,nan,1000,~d813");
    (depart (-.Float.nan) 1001, "depart,default,-nan,1001,~181b");
    (depart min_normal (-10), "depart,default,0x1p-1022,-10,~6102");
    (depart max_float (-9), "depart,default,0x1.fffffffffffffp+1023,-9,~329f");
    ( depart (-.Float.pred min_normal) 1_000_000,
      "depart,default,-0x0.fffffffffffffp-1022,1000000,~3df7" );
    (depart ~tenant:"t1" 3.0 12345678901, "depart,t1,0x1.8p+1,12345678901,~31a4");
  ]

(* random finite events over the full int range and every float class the
   decoder accepts: normals of any magnitude, subnormals, signed zeros *)
let finite_event_gen =
  QCheck2.Gen.(
    let any_int = oneof [ int; oneofl [ 0; 9; 10; -1; max_int; min_int ] ] in
    let time =
      oneof
        [
          float_range (-1e6) 1e6;
          map
            (fun bits ->
              let f = Int64.float_of_bits bits in
              if Float.is_finite f then f else 0.5)
            ui64;
          oneofl [ 0.0; -0.0; 5e-324; max_float; -.min_float ];
        ]
    in
    let tenant = oneofl [ dflt; "t1"; "tenant_B.9-x" ] in
    oneof
      [
        (let* tenant = tenant and* time = time and* item_id = any_int in
         let* bin_id = any_int and* opened_new_bin = bool in
         let+ sizes = list_size (1 -- 6) (oneof [ nat; int_bound max_int ]) in
         Journal.Arrive { tenant; time; item_id; size = v sizes; bin_id; opened_new_bin });
        (let+ tenant = tenant and+ time = time and+ item_id = any_int in
         Journal.Depart { tenant; time; item_id });
      ])

let prop_codec_round_trip =
  QCheck2.Test.make ~name:"decode_event inverts encode_event on finite events"
    ~count:2000
    ~print:(Fmt.to_to_string Journal.pp_event)
    finite_event_gen
    (fun e ->
      match Journal.decode_event (Journal.encode_event e) with
      | Ok e' ->
          Journal.equal_event e e'
          && Int64.equal
               (Int64.bits_of_float (Journal.event_time e))
               (Int64.bits_of_float (Journal.event_time e'))
      | Error _ -> false)

let journal_tests =
  [
    Alcotest.test_case "record bytes are pinned" `Quick (fun () ->
        List.iter
          (fun (e, want) -> check_string "record" want (Journal.encode_event e))
          pinned_records);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0DEC |]) prop_codec_round_trip;
    Alcotest.test_case "event codec round trips" `Quick (fun () ->
        List.iter
          (fun e ->
            match Journal.decode_event (Journal.encode_event e) with
            | Ok e' -> check_bool "event" true (Journal.equal_event e e')
            | Error msg -> Alcotest.fail msg)
          sample_events);
    Alcotest.test_case "codec survives awkward floats" `Quick (fun () ->
        List.iter
          (fun time ->
            let e = Journal.Depart { tenant = dflt; time; item_id = 3 } in
            match Journal.decode_event (Journal.encode_event e) with
            | Ok e' -> check_bool "time" true (Journal.equal_event e e')
            | Error msg -> Alcotest.fail msg)
          [ 0.1; 1.0 /. 3.0; 1e-300; 12345678.875; 0.0 ]);
    Alcotest.test_case "checksum rejects a corrupted body" `Quick (fun () ->
        let line = Journal.encode_event (List.hd sample_events) in
        let corrupted = Bytes.of_string line in
        (* flip a digit in the body, keep the checksum *)
        Bytes.set corrupted 7 (if Bytes.get corrupted 7 = '0' then '1' else '0');
        match Journal.decode_event (Bytes.to_string corrupted) with
        | Error msg -> check_bool "mentions checksum" true (contains_sub msg "checksum")
        | Ok _ -> Alcotest.fail "corrupted record accepted");
    Alcotest.test_case "truncated record is rejected" `Quick (fun () ->
        let line = Journal.encode_event (List.hd sample_events) in
        check_bool "error" true
          (Result.is_error
             (Journal.decode_event (String.sub line 0 (String.length line - 3)))));
    Alcotest.test_case "group commit allocates only its final string" `Quick
      (fun () ->
        (* an [Io] whose files swallow their bytes: what remains of an
           [append_batch] is encoding and bookkeeping. Words allocated
           straight into the major heap (not promoted from the minor one)
           are the oversized blocks a call creates; one 64-record batch's
           final string is ~500 words, a fresh 64 KiB buffer 8,192 *)
        let discard = { Io.write = ignore; flush = ignore; fsync = ignore; close = ignore } in
        let io =
          {
            Io.read_file = (fun p -> Error (p ^ ": no such file"));
            file_exists = (fun _ -> false);
            file_size = (fun _ -> None);
            open_out = (fun ~append:_ _ -> discard);
            rename = (fun ~src:_ ~dst:_ -> ());
            fsync_dir = ignore;
            remove = ignore;
            list_dir = (fun _ -> []);
          }
        in
        let w = Journal.create ~io ~path:"d/j.log" (header ()) in
        let batch =
          List.init 64 (fun i ->
              if i mod 4 = 3 then Journal.Depart { tenant = dflt; time = float i /. 3.0; item_id = i - 3 }
              else
                Journal.Arrive
                  { tenant = dflt; time = float i /. 3.0; item_id = i; size = v [ 1 + i; 99 - i ];
                    bin_id = i / 2; opened_new_bin = i mod 2 = 0 })
        in
        Journal.append_batch w batch;
        let calls = 1000 in
        let direct () =
          let s = Gc.quick_stat () in
          s.Gc.major_words -. s.Gc.promoted_words
        in
        let before = direct () in
        for _ = 1 to calls do Journal.append_batch w batch done;
        let per_call = (direct () -. before) /. float_of_int calls in
        Journal.close w;
        if per_call >= 1024.0 then
          Alcotest.failf "append_batch allocated %.0f words per call directly in the major heap"
            per_call);
    Alcotest.test_case "writer / read_file round trip" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            check_int "appended" (List.length sample_events) (Journal.appended w);
            Journal.close w;
            let r = ok_or_fail (Journal.read_file path) in
            check_string "policy" "mtf" r.Journal.header.Journal.policy;
            check_int "seed" 7 r.Journal.header.Journal.seed;
            check_int "base" 0 r.Journal.header.Journal.base;
            check_bool "capacity" true (Vec.equal cap r.Journal.header.Journal.capacity);
            check_bool "no torn tail" false r.Journal.dropped_torn;
            check_bool "events" true
              (List.equal Journal.equal_event sample_events r.Journal.events)));
    Alcotest.test_case "unterminated torn tail is detected and dropped" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let full = In_channel.with_open_bin (active_seg path) In_channel.input_all in
            (* chop mid-way through the final record: no trailing newline *)
            Out_channel.with_open_bin (active_seg path) (fun oc ->
                Out_channel.output_string oc (String.sub full 0 (String.length full - 5)));
            let r = ok_or_fail (Journal.read_file path) in
            check_bool "torn flagged" true r.Journal.dropped_torn;
            check_bool "prefix kept" true
              (List.equal Journal.equal_event
                 (List.filteri (fun i _ -> i < List.length sample_events - 1) sample_events)
                 r.Journal.events)));
    Alcotest.test_case "terminated corrupt record is a hard error" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            (* a malformed line *with* its newline cannot be a torn write *)
            Out_channel.with_open_gen [ Open_append ] 0o600 (active_seg path)
              (fun oc -> Out_channel.output_string oc "arrive,gibberish,~0000\n");
            check_bool "error" true (Result.is_error (Journal.read_file path))));
    Alcotest.test_case "corrupt mid-file record is a hard error even with torn tail"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let full = In_channel.with_open_bin (active_seg path) In_channel.input_all in
            (* corrupt a record in the middle; the file still ends torn *)
            let b = Bytes.of_string (String.sub full 0 (String.length full - 5)) in
            let mid = Bytes.length b - 40 in
            Bytes.set b mid (if Bytes.get b mid = '0' then '1' else '0');
            Out_channel.with_open_bin (active_seg path) (fun oc ->
                Out_channel.output_string oc (Bytes.to_string b));
            check_bool "error" true (Result.is_error (Journal.read_file path))));
    Alcotest.test_case "missing magic line rejected" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            Out_channel.with_open_bin (active_seg path) (fun oc ->
                Out_channel.output_string oc "policy,mtf\nseed,1\ncapacity,10\nbase,0\n");
            match Journal.read_file path with
            | Ok _ -> Alcotest.fail "a segment without its magic line was read"
            | Error msg -> check_bool msg true (contains_sub msg "expected")));
    Alcotest.test_case "append_to validates the existing header" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            (match Journal.append_to ~path (header ~policy:"ff" ()) with
            | Error msg -> check_bool "names policy" true (contains_sub msg "policy")
            | Ok _ -> Alcotest.fail "policy mismatch accepted");
            let w, r = ok_or_fail (Journal.append_to ~path (header ())) in
            check_int "existing events" (List.length sample_events)
              (List.length r.Journal.events);
            Journal.append w (Journal.Depart { tenant = dflt; time = 9.0; item_id = 99 });
            Journal.close w;
            let r = ok_or_fail (Journal.read_file path) in
            check_int "one more" (List.length sample_events + 1)
              (List.length r.Journal.events)));
    Alcotest.test_case "append_to a torn file heals the tail first" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let full = In_channel.with_open_bin (active_seg path) In_channel.input_all in
            Out_channel.with_open_bin (active_seg path) (fun oc ->
                Out_channel.output_string oc (String.sub full 0 (String.length full - 5)));
            let w, r = ok_or_fail (Journal.append_to ~path (header ())) in
            check_bool "torn reported" true r.Journal.dropped_torn;
            Journal.append w (Journal.Depart { tenant = dflt; time = 9.0; item_id = 99 });
            Journal.close w;
            (* the new record must not weld onto the dropped fragment *)
            let r = ok_or_fail (Journal.read_file path) in
            check_bool "clean now" false r.Journal.dropped_torn;
            check_int "events" (List.length sample_events) (List.length r.Journal.events)));
    Alcotest.test_case "truncate restarts the file at the new base" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.truncate w ~new_base:(List.length sample_events);
            Journal.append w (Journal.Depart { tenant = dflt; time = 9.0; item_id = 99 });
            Journal.close w;
            let r = ok_or_fail (Journal.read_file path) in
            check_int "base" (List.length sample_events) r.Journal.header.Journal.base;
            check_int "only the suffix" 1 (List.length r.Journal.events)));
    Alcotest.test_case "create rejects bad fsync_every" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            check_bool "raises" true
              (try
                 ignore (Journal.create ~fsync_every:0 ~path (header ()));
                 false
               with Invalid_argument _ -> true)));
  ]

(* -------------------------------------------------------------------- *)
(* The segmented on-disk layout: rolling, sealing, the chain read and
   retirement. At
   [segment_bytes = 64] the ~60-byte header alone nearly fills a segment,
   so every append seals — the densest possible chain. *)

let segment_tests =
  [
    Alcotest.test_case "appends roll into sealed segments; reads chain them"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~segment_bytes:64 ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            let n = List.length sample_events in
            check_int "every append sealed its segment" n
              (Journal.sealed_segments w);
            check_int "frontier" n (Journal.frontier w);
            (* the writer's byte accounting agrees with the directory *)
            let on_disk =
              Array.fold_left
                (fun acc f ->
                  acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
                0 (Sys.readdir dir)
            in
            check_int "live_bytes matches disk" on_disk (Journal.live_bytes w);
            Journal.close w;
            check_bool "sealed file present" true
              (Sys.file_exists (sealed_seg ~idx:0 path));
            check_bool "active file present" true
              (Sys.file_exists (active_seg ~idx:n path));
            let r = ok_or_fail (Journal.read_file path) in
            check_int "chain base" 0 r.Journal.header.Journal.base;
            check_bool "all events, journal order" true
              (List.equal Journal.equal_event sample_events r.Journal.events)));
    Alcotest.test_case "append_to resumes a multi-segment chain" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let first, rest =
              (List.filteri (fun i _ -> i < 3) sample_events,
               List.filteri (fun i _ -> i >= 3) sample_events)
            in
            let w = Journal.create ~segment_bytes:64 ~path (header ()) in
            List.iter (Journal.append w) first;
            Journal.close w;
            let w, r =
              ok_or_fail (Journal.append_to ~segment_bytes:64 ~path (header ()))
            in
            check_int "existing events" 3 (List.length r.Journal.events);
            check_int "resumed frontier" 3 (Journal.frontier w);
            List.iter (Journal.append w) rest;
            Journal.close w;
            let r = ok_or_fail (Journal.read_file path) in
            check_bool "full history" true
              (List.equal Journal.equal_event sample_events r.Journal.events)));
    Alcotest.test_case "retire_sealed unlinks only covered segments, oldest first"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~segment_bytes:64 ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            (* one record per segment: event frontier 3 covers segments 0-2 *)
            check_int "covered segments retired" 3 (Journal.retire_sealed w ~upto:3);
            check_int "survivors" 3 (Journal.sealed_segments w);
            check_bool "oldest gone" false (Sys.file_exists (sealed_seg ~idx:0 path));
            check_bool "uncovered kept" true (Sys.file_exists (sealed_seg ~idx:3 path));
            (* the bound caps one call's work; a second call finishes *)
            check_int "bounded call" 2
              (Journal.retire_sealed ~max_segments:2 w ~upto:6);
            check_int "remainder" 1 (Journal.retire_sealed w ~upto:6);
            check_int "nothing left to retire" 0 (Journal.retire_sealed w ~upto:6);
            Journal.close w;
            (* the surviving chain reads back with its base above the gap *)
            let r = ok_or_fail (Journal.read_file path) in
            check_int "base" 6 r.Journal.header.Journal.base;
            check_int "events" 0 (List.length r.Journal.events)));
    Alcotest.test_case "exists: absent / segmented / unreadable" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            check_bool "absent" false (Journal.exists path);
            let w = Journal.create ~path (header ()) in
            Journal.close w;
            check_bool "segmented" true (Journal.exists path);
            (* wreck the active segment's header: the journal must still
               "exist" so a resume surfaces the corruption instead of
               silently starting fresh over it *)
            Out_channel.with_open_bin (active_seg path) (fun oc ->
                Out_channel.output_string oc "garbage\n");
            check_bool "unreadable still exists" true (Journal.exists path);
            check_bool "and reading it fails" true
              (Result.is_error (Journal.read_file path))));
  ]

(* Replays [events] through fresh sessions, asserting each recorded
   placement; returns the default tenant's session. *)
let replay_exn events =
  match Recovery.replay ~policy:"mtf" ~seed:7 ~capacity:cap events with
  | Ok sessions -> List.assoc dflt sessions
  | Error e -> Alcotest.fail e

let last_event events = match List.rev events with e :: _ -> Some e | [] -> None

(* a v3 snapshot of the default tenant's [session] after [history] *)
let snap_of ?(history = sample_events) session =
  Snapshot.of_sessions ~policy:"mtf" ~seed:7 ~capacity:cap ~events:(List.length history)
    ~last:(last_event history) [ (dflt, session) ]

let section_of (snap : Snapshot.t) =
  match snap.Snapshot.sections with
  | [ sec ] -> sec
  | _ -> Alcotest.fail "expected one section"

let snapshot_tests =
  [
    Alcotest.test_case "string round trip" `Quick (fun () ->
        List.iter
          (fun k ->
            let history = List.filteri (fun i _ -> i < k) sample_events in
            let snap = snap_of ~history (replay_exn history) in
            let text = Snapshot.to_string snap in
            check_bool "v3 magic" true (String.starts_with ~prefix:"# dvbp-snapshot v3\n" text);
            let snap' = ok_or_fail (Snapshot.of_string text) in
            check_string "policy" snap.Snapshot.policy snap'.Snapshot.policy;
            check_int "events" k snap'.Snapshot.events;
            check_bool "last" true
              (Option.equal Journal.equal_event snap.Snapshot.last snap'.Snapshot.last);
            let d = section_of snap and d' = section_of snap' in
            check_string "tenant" d.Snapshot.tenant d'.Snapshot.tenant;
            check_string "fingerprint" d.Snapshot.fingerprint d'.Snapshot.fingerprint;
            check_bool "saved state" true (d.Snapshot.state = d'.Snapshot.state);
            check_string "rewritten byte for byte" text (Snapshot.to_string snap'))
          [ 0; 3; 6 ]);
    Alcotest.test_case "digest reflects the live session" `Quick (fun () ->
        (* cut before the departures: bins 0 and 1 still open *)
        let prefix = List.filteri (fun i _ -> i < 3) sample_events in
        let session = replay_exn prefix in
        let d = section_of (snap_of ~history:prefix session) in
        let st = d.Snapshot.state in
        check_int "bins opened" 2 st.Session.Saved.next_bin;
        check_string "fingerprint" (Session.fingerprint session) d.Snapshot.fingerprint;
        (* mtf keeps bin 1 at the front after placing item 1, so item 2 lands
           there too; items in placement order *)
        check_bool "occupants" true
          (List.map
             (fun (b : Session.Saved.bin) ->
               ( b.Session.Saved.bin_id,
                 List.map (fun (r : Session.Saved.item) -> r.Session.Saved.item_id)
                   b.Session.Saved.items ))
             st.Session.Saved.bins
          = [ (0, [ 0 ]); (1, [ 1; 2 ]) ]);
        check_bool "accepted ids" true (st.Session.Saved.accepted = [ (0, 2) ]));
    Alcotest.test_case "file round trip" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "s.snap" in
            Snapshot.write ~path (snap_of (replay_exn sample_events));
            let snap' = ok_or_fail (Snapshot.load ~path ()) in
            check_int "events" (List.length sample_events) snap'.Snapshot.events));
    Alcotest.test_case "event count mismatch rejected" `Quick (fun () ->
        (* the crc row covers the events row *)
        let text = Snapshot.to_string (snap_of (replay_exn sample_events)) in
        let doctored = replace_sub text ~sub:"events,6" ~by:"events,7" in
        check_bool "v3 error" true (Result.is_error (Snapshot.of_string doctored)));
    Alcotest.test_case "v3: spread ids are written as a bitmap and read back" `Quick
      (fun () ->
        (* every third id, as a tenant sees ids dealt over three clients *)
        let p = Dvbp_core.Policy.of_name_exn ~rng:(Rng.create ~seed:7) "mtf" in
        let s = Session.create ~capacity:cap ~policy:p () in
        for i = 0 to 99 do
          ignore (Session.arrive s ~at:(float_of_int i) ~id:(3 * i) ~size:(v [ 10; 10 ]) ());
          if i >= 2 then Session.depart s ~at:(float_of_int i +. 0.5) ~item_id:(3 * (i - 2))
        done;
        let snap =
          Snapshot.of_sessions ~policy:"mtf" ~seed:7 ~capacity:cap ~events:0 ~last:None
            [ (dflt, s) ]
        in
        let text = Snapshot.to_string snap in
        check_bool "bitmap row" true (contains_sub text "\nidbits,0,");
        let d = section_of snap and d' = section_of (ok_or_fail (Snapshot.of_string text)) in
        check_bool "same ids" true
          (d.Snapshot.state.Session.Saved.accepted = d'.Snapshot.state.Session.Saved.accepted);
        check_int "one range per id" 100 (List.length d'.Snapshot.state.Session.Saved.accepted);
        let r =
          ok_or_fail
            (Session.restore ~capacity:cap
               ~policy:(Dvbp_core.Policy.of_name_exn ~rng:(Rng.create ~seed:7) "mtf")
               d'.Snapshot.state)
        in
        let refused id =
          match Session.arrive r ~at:200.0 ~id ~size:(v [ 1; 1 ]) () with
          | _ -> false
          | exception Session.Session_error _ -> true
        in
        check_bool "a departed id stays refused" true (refused 150);
        check_bool "an id never seen is accepted" false (refused 151));
    Alcotest.test_case "v3: the crc row refuses every damaged byte and a cut" `Quick
      (fun () ->
        let prefix = List.filteri (fun i _ -> i < 3) sample_events in
        let text = Snapshot.to_string (snap_of ~history:prefix (replay_exn prefix)) in
        let n = String.length text in
        for i = String.length "# dvbp-snapshot v3\n" to n - 1 do
          let b = Bytes.of_string text in
          Bytes.set b i (Char.chr (Char.code text.[i] lxor 0x10));
          check_bool (Printf.sprintf "byte %d" i) true
            (Result.is_error (Snapshot.of_string (Bytes.to_string b)))
        done;
        for k = String.length "# dvbp-snapshot v3\n" to n - 2 do
          check_bool (Printf.sprintf "cut at %d" k) true
            (Result.is_error (Snapshot.of_string (String.sub text 0 k)))
        done);
    Alcotest.test_case "v3: a negative size under a valid crc is an Error" `Quick
      (fun () ->
        (* the crc guards against damage, not against a file written
           wrong: the parser still checks every field *)
        let prefix = List.filteri (fun i _ -> i < 3) sample_events in
        let text = Snapshot.to_string (snap_of ~history:prefix (replay_exn prefix)) in
        let rows = String.split_on_char '\n' text in
        let rows = List.filteri (fun i _ -> i < List.length rows - 2) rows in
        let doctored_one = ref false in
        let rows =
          List.map
            (fun r ->
              if (not !doctored_one) && String.starts_with ~prefix:"item," r then begin
                doctored_one := true;
                let fields = String.split_on_char ',' r in
                String.concat ","
                  (List.filteri (fun i _ -> i < List.length fields - 1) fields @ [ "-5" ])
              end
              else r)
            rows
        in
        check_bool "an item row was doctored" true !doctored_one;
        let body = String.concat "\n" rows ^ "\n" in
        let crc =
          Dvbp_tracestore.Crc32.update 0 (Bytes.of_string body) ~pos:0
            ~len:(String.length body)
        in
        let doctored = Printf.sprintf "%scrc,%08x\n" body crc in
        match Snapshot.of_string doctored with
        | Ok _ -> Alcotest.fail "a negative size was accepted"
        | Error msg -> check_bool msg true (contains_sub msg "negative size")
        | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e));
  ]

let event_of_record = function
  | Journal.Arrive { time; item_id; size; _ } -> `Arrive (time, item_id, size)
  | Journal.Depart { time; item_id; _ } -> `Depart (time, item_id)

(* Applies the raw (unrecorded) side of [events] to [session], returning the
   observed placements for arrivals. *)
let apply_raw session events =
  List.filter_map
    (fun e ->
      match event_of_record e with
      | `Arrive (at, id, size) ->
          Some (Session.arrive session ~at ~id ~size ())
      | `Depart (at, item_id) ->
          Session.depart session ~at ~item_id;
          None)
    events

(* A bigger, policy-exercising event history: run a generated workload
   through [Server.handle_line] so the recorded placements are the server's
   own, journal and all. *)
let server_history ~policy ~n ~dir =
  let journal = Filename.concat dir "j.log" in
  let snapshot = Filename.concat dir "s.snap" in
  let config =
    {
      Server.policy;
      seed = 7;
      capacity = v [ 100; 100 ];
      journal = Some journal;
      snapshot = Some snapshot;
      snapshot_every = None;
      fsync_every = 1000;
      jobs = 1;
      segment_bytes = None;
      retain_segments = None;
    }
  in
  let server = ok_or_fail (Server.create config) in
  let inst =
    Uniform_model.generate
      { Uniform_model.d = 2; n; mu = 10; span = 60; bin_size = 100 }
      ~rng:(Rng.create ~seed:3)
  in
  let replies =
    List.map
      (fun line ->
        let reply, quit = Server.handle_line server line in
        check_bool "no quit" false quit;
        reply)
      (Loadgen.script inst)
  in
  List.iter
    (fun r -> check_bool "accepted" true
        (String.length r > 0 && (r.[0] = 'P' || r.[0] = 'O')))
    replies;
  Server.close server;
  (journal, snapshot, ok_or_fail (Journal.read_file journal))

let recovery_tests =
  [
    Alcotest.test_case "replay verifies recorded placements" `Quick (fun () ->
        let session = replay_exn sample_events in
        check_int "all departed" 0 (Session.active_items session);
        check_int "bins" 2 (Session.bins_opened session));
    Alcotest.test_case "replay rejects a wrong recorded bin id" `Quick (fun () ->
        let doctored =
          List.map
            (function
              | Journal.Arrive ({ item_id = 2; _ } as a) ->
                  (* mtf really places item 2 in bin 1 *)
                  Journal.Arrive { a with bin_id = 0; opened_new_bin = false }
              | e -> e)
            sample_events
        in
        match Recovery.replay ~policy:"mtf" ~seed:7 ~capacity:cap doctored with
        | Error msg ->
            check_bool "names the event" true (contains_sub msg "item 2");
            check_bool "names the cause" true (contains_sub msg "mismatch")
        | Ok _ -> Alcotest.fail "doctored journal accepted");
    Alcotest.test_case "recover without snapshot replays the whole journal" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let st = ok_or_fail (Recovery.recover ~journal:path ()) in
            check_int "from journal" (List.length sample_events) st.Recovery.from_journal;
            check_int "from snapshot" 0 st.Recovery.from_snapshot;
            check_int "events" (List.length sample_events) st.Recovery.events;
            check_bool "last event" true
              (Option.equal Journal.equal_event (last_event sample_events)
                 st.Recovery.last)));
    Alcotest.test_case "recover requires base=0 without a snapshot" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ~base:3 ()) in
            Journal.close w;
            check_bool "error" true
              (Result.is_error (Recovery.recover ~journal:path ()))));
    Alcotest.test_case "recover rejects policy mismatch between files" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let w = Journal.create ~path:journal (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let snap = snap_of ~history:[] (replay_exn []) in
            Snapshot.write ~path:snapshot { snap with Snapshot.policy = "ff" };
            check_bool "error" true
              (Result.is_error (Recovery.recover ~snapshot ~journal ()))));
    Alcotest.test_case "keystone: every journal prefix cut recovers and replays
       bit-identically (mtf)" `Slow (fun () ->
        with_tmp_dir (fun dir ->
            let _, _, full = server_history ~policy:"mtf" ~n:40 ~dir in
            let events = full.Journal.events in
            let total = List.length events in
            (* the uninterrupted run: replay everything in one session *)
            let uncut = replay_exn events in
            let uncut_cost = Session.cost_so_far uncut in
            let cut_dir = Filename.concat dir "cuts" in
            Unix.mkdir cut_dir 0o700;
            for k = 0 to total do
              (* crash after record k: journal holds only the first k records *)
              let path = Filename.concat cut_dir (Printf.sprintf "j%d.log" k) in
              let w = Journal.create ~path (header ()) in
              List.iteri (fun i e -> if i < k then Journal.append w e) events;
              Journal.close w;
              let st = ok_or_fail (Recovery.recover ~journal:path ()) in
              check_int "events recovered" k st.Recovery.from_journal;
              (* replay the remaining raw events; placements must equal the
                 recorded ones bit for bit *)
              let rest = List.filteri (fun i _ -> i >= k) events in
              let observed = apply_raw (Recovery.session st) rest in
              let recorded =
                List.filter_map
                  (function
                    | Journal.Arrive { item_id; bin_id; opened_new_bin; _ } ->
                        Some (item_id, bin_id, opened_new_bin)
                    | Journal.Depart _ -> None)
                  rest
              in
              List.iter2
                (fun (p : Session.placement) (item_id, bin_id, opened) ->
                  check_int "item" item_id p.Session.item_id;
                  check_int "bin" bin_id p.Session.bin_id;
                  check_bool "opened" opened p.Session.opened_new_bin)
                observed recorded;
              check_bool
                (Printf.sprintf "cost identical at cut %d" k)
                true
                (Session.cost_so_far (Recovery.session st) = uncut_cost);
              Sys.remove (active_seg path)
            done;
            Unix.rmdir cut_dir));
    Alcotest.test_case "keystone holds for the seeded random-fit policy" `Slow
      (fun () ->
        (* rf draws from its rng on every placement: recovery must replay the
           stream identically from the seed alone *)
        with_tmp_dir (fun dir ->
            let _, _, full = server_history ~policy:"rf" ~n:30 ~dir in
            let events = full.Journal.events in
            let total = List.length events in
            let cut_dir = Filename.concat dir "cuts" in
            Unix.mkdir cut_dir 0o700;
            List.iter
              (fun k ->
                let path = Filename.concat cut_dir (Printf.sprintf "j%d.log" k) in
                let w = Journal.create ~path (header ~policy:"rf" ()) in
                List.iteri (fun i e -> if i < k then Journal.append w e) events;
                Journal.close w;
                let st = ok_or_fail (Recovery.recover ~journal:path ()) in
                let rest = List.filteri (fun i _ -> i >= k) events in
                ignore (apply_raw (Recovery.session st) rest);
                Sys.remove (active_seg path))
              [ 0; 1; total / 2; total - 1; total ];
            Unix.rmdir cut_dir));
    Alcotest.test_case "recovery across a snapshot matches the journal-only run"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let prefix = List.filteri (fun i _ -> i < 3) sample_events in
            let suffix = List.filteri (fun i _ -> i >= 3) sample_events in
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            Snapshot.write ~path:snapshot (snap_of ~history:prefix (replay_exn prefix));
            let w = Journal.create ~path:journal (header ~base:3 ()) in
            List.iter (Journal.append w) suffix;
            Journal.close w;
            let st = ok_or_fail (Recovery.recover ~snapshot ~journal ()) in
            check_int "from snapshot" 3 st.Recovery.from_snapshot;
            check_int "from journal" 3 st.Recovery.from_journal;
            let direct = replay_exn sample_events in
            check_bool "same cost" true
              (Session.cost_so_far (Recovery.session st) = Session.cost_so_far direct);
            check_int "same bins" (Session.bins_opened direct)
              (Session.bins_opened (Recovery.session st))));
    Alcotest.test_case "crash between snapshot and truncation is survivable"
      `Quick (fun () ->
        (* snapshot written, but the journal still holds the whole history
           (base 0): the overlap must be verified and skipped, not re-applied *)
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let prefix = List.filteri (fun i _ -> i < 4) sample_events in
            Snapshot.write ~path:snapshot (snap_of ~history:prefix (replay_exn prefix));
            let w = Journal.create ~path:journal (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let st = ok_or_fail (Recovery.recover ~snapshot ~journal ()) in
            check_int "from snapshot" 4 st.Recovery.from_snapshot;
            check_int "journal suffix only" 2 st.Recovery.from_journal;
            check_int "nothing double-applied" 0
              (Session.active_items (Recovery.session st))));
    Alcotest.test_case "overlap divergence between the files is a hard error"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let prefix = List.filteri (fun i _ -> i < 4) sample_events in
            Snapshot.write ~path:snapshot (snap_of ~history:prefix (replay_exn prefix));
            (* journal claims a different event where the snapshot's history
               ends: the files disagree about the past *)
            let doctored =
              List.mapi
                (fun i e ->
                  if i = 3 then Journal.Depart { tenant = dflt; time = 3.0; item_id = 2 }
                  else e)
                sample_events
            in
            let w = Journal.create ~path:journal (header ()) in
            List.iter (Journal.append w) doctored;
            Journal.close w;
            check_bool "error" true
              (Result.is_error (Recovery.recover ~snapshot ~journal ()))));
    Alcotest.test_case "render names the essentials" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w)
              (List.filteri (fun i _ -> i < 3) sample_events);
            Journal.close w;
            let st = ok_or_fail (Recovery.recover ~journal:path ()) in
            let out = Recovery.render st in
            check_bool "policy" true (contains_sub out "mtf");
            check_bool "counts" true (contains_sub out "3");
            check_bool "open bins" true (contains_sub out "bin ")));
  ]

let fresh_server ?journal ?snapshot ?snapshot_every ?segment_bytes
    ?retain_segments () =
  ok_or_fail
    (Server.create
       {
         Server.policy = "mtf";
         seed = 7;
         capacity = cap;
         journal;
         snapshot;
         snapshot_every;
         fsync_every = 64;
         jobs = 1;
         segment_bytes;
         retain_segments;
       })

let expect t line reply =
  let got, _quit = Server.handle_line t line in
  check_string line reply got

let server_tests =
  [
    Alcotest.test_case "protocol happy path" `Quick (fun () ->
        let t = fresh_server () in
        expect t "ARRIVE 0 0 60,10" "PLACED 0 1";
        expect t "ARRIVE 1 1 50,50" "PLACED 1 1";
        expect t "DEPART 2 0" "OK";
        let reply, quit = Server.handle_line t "QUIT" in
        check_string "quit reply" "BYE" reply;
        check_bool "quit flag" true quit;
        Server.close t);
    Alcotest.test_case "CRLF requests are tolerated" `Quick (fun () ->
        let t = fresh_server () in
        expect t "ARRIVE 0 0 60,10\r" "PLACED 0 1";
        Server.close t);
    Alcotest.test_case "session refusals answer REJECT and keep serving" `Quick
      (fun () ->
        let t = fresh_server () in
        expect t "ARRIVE 0 0 60,10" "PLACED 0 1";
        (* duplicate id *)
        let reply, _ = Server.handle_line t "ARRIVE 1 0 5,5" in
        check_bool "REJECT" true (contains_sub reply "REJECT");
        check_bool "names the item" true (contains_sub reply "0");
        (* oversized *)
        let reply, _ = Server.handle_line t "ARRIVE 2 9 500,5" in
        check_bool "REJECT oversized" true (contains_sub reply "REJECT");
        (* time going backwards *)
        expect t "ARRIVE 5 2 10,10" "PLACED 0 0";
        let reply, _ = Server.handle_line t "ARRIVE 4 3 10,10" in
        check_bool "REJECT stale" true (contains_sub reply "REJECT");
        (* the session is untouched by refusals: serving continues cleanly *)
        expect t "ARRIVE 6 4 10,10" "PLACED 0 0";
        let m = Server.metrics t in
        check_int "placements" 3 m.Server.placements;
        check_int "rejections" 3 m.Server.rejections;
        Server.close t);
    Alcotest.test_case "malformed requests answer ERR and keep serving" `Quick
      (fun () ->
        (* the same answers through both entry points; non-finite
           timestamps are malformed input (ERR), not session refusals *)
        let malformed =
          [
            "";
            "FROB 1 2";
            "ARRIVE";
            "ARRIVE x 0 10,10";
            "ARRIVE 0 zero 10,10";
            "ARRIVE 0 0";
            "ARRIVE 0 0 10,ten";
            "ARRIVE 0 0 10,-3";
            "DEPART 1";
            "DEPART one 0";
            "ARRIVE nan 0 10,10";
            "ARRIVE inf 0 10,10";
            "ARRIVE -inf 0 10,10";
            "DEPART nan 0";
          ]
        in
        List.iter
          (fun (entry, handle) ->
            let t = fresh_server () in
            List.iter
              (fun line ->
                let reply, quit = handle t line in
                check_bool (entry ^ ": ERR for " ^ line) true (contains_sub reply "ERR");
                check_bool "no quit" false quit)
              malformed;
            check_string "non-finite time" "ERR bad timestamp \"inf\""
              (fst (handle t "ARRIVE inf 0 10,10"));
            check_string "serving continues" "PLACED 0 1" (fst (handle t "ARRIVE 0 0 10,10"));
            let m = Server.metrics t in
            check_int "errors counted" 15 m.Server.errors;
            check_int "no rejections" 0 m.Server.rejections;
            check_int "requests counted" 16 m.Server.requests;
            Server.close t)
          [
            ("handle_line", Server.handle_line);
            ("handle_batch", fun t line -> (Server.handle_batch t [| line |]).(0));
          ]);
    Alcotest.test_case "rejected arrivals are not journaled" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let t = fresh_server ~journal () in
            expect t "ARRIVE 0 0 60,10" "PLACED 0 1";
            let reply, _ = Server.handle_line t "ARRIVE 1 0 5,5" in
            check_bool "REJECT" true (contains_sub reply "REJECT");
            expect t "DEPART 2 0" "OK";
            Server.close t;
            let r = ok_or_fail (Journal.read_file journal) in
            check_int "only applied events" 2 (List.length r.Journal.events)));
    Alcotest.test_case "STATS reports the counters" `Quick (fun () ->
        let t = fresh_server () in
        expect t "ARRIVE 0 0 60,10" "PLACED 0 1";
        expect t "DEPART 1 0" "OK";
        let reply, _ = Server.handle_line t "STATS" in
        check_bool "requests" true (contains_sub reply "requests=3");
        check_bool "placements" true (contains_sub reply "placements=1");
        check_bool "departures" true (contains_sub reply "departures=1");
        check_bool "open bins" true (contains_sub reply "open_bins=0");
        check_bool "cost" true (contains_sub reply "cost=1.0000");
        Server.close t);
    Alcotest.test_case "SNAPSHOT without a configured path is an ERR" `Quick
      (fun () ->
        let t = fresh_server () in
        let reply, _ = Server.handle_line t "SNAPSHOT" in
        check_bool "ERR" true (contains_sub reply "ERR");
        Server.close t);
    Alcotest.test_case "SNAPSHOT truncates the journal; recovery still exact"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let t = fresh_server ~journal ~snapshot () in
            expect t "ARRIVE 0 0 60,10" "PLACED 0 1";
            expect t "ARRIVE 1 1 50,50" "PLACED 1 1";
            let reply, _ = Server.handle_line t "SNAPSHOT" in
            check_bool "ok" true (contains_sub reply "OK snapshot");
            expect t "DEPART 2 0" "OK";
            Server.close t;
            let r = ok_or_fail (Journal.read_file journal) in
            check_int "base" 2 r.Journal.header.Journal.base;
            check_int "suffix" 1 (List.length r.Journal.events);
            let st = ok_or_fail (Recovery.recover ~snapshot ~journal ()) in
            check_int "from snapshot" 2 st.Recovery.from_snapshot;
            check_int "from journal" 1 st.Recovery.from_journal;
            check_int "one bin left" 1
              (List.length (Session.open_bins (Recovery.session st)))));
    Alcotest.test_case "snapshot_every auto-checkpoints" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let t = fresh_server ~journal ~snapshot ~snapshot_every:2 () in
            expect t "ARRIVE 0 0 60,10" "PLACED 0 1";
            expect t "ARRIVE 1 1 50,50" "PLACED 1 1";
            expect t "DEPART 2 0" "OK";
            let m = Server.metrics t in
            check_int "snapshots" 1 m.Server.snapshots;
            Server.close t;
            let r = ok_or_fail (Journal.read_file journal) in
            check_int "base" 2 r.Journal.header.Journal.base));
    Alcotest.test_case "config validation" `Quick (fun () ->
        let base =
          {
            Server.policy = "mtf";
            seed = 7;
            capacity = cap;
            journal = None;
            snapshot = None;
            snapshot_every = None;
            fsync_every = 64;
            jobs = 1;
            segment_bytes = None;
            retain_segments = None;
          }
        in
        check_bool "unknown policy" true
          (Result.is_error (Server.create { base with Server.policy = "zzz" }));
        check_bool "fsync_every 0" true
          (Result.is_error (Server.create { base with Server.fsync_every = 0 }));
        check_bool "jobs 0" true
          (Result.is_error (Server.create { base with Server.jobs = 0 }));
        check_bool "snapshot_every without snapshot path" true
          (Result.is_error
             (Server.create { base with Server.snapshot_every = Some 5 }));
        check_bool "snapshot_every 0" true
          (Result.is_error
             (Server.create
                {
                  base with
                  Server.snapshot_every = Some 0;
                  snapshot = Some "/tmp/s.snap";
                  journal = Some "/tmp/j.log";
                }));
        check_bool "segment_bytes below the floor" true
          (Result.is_error
             (Server.create
                {
                  base with
                  Server.segment_bytes = Some 32;
                  journal = Some "/tmp/j.log";
                }));
        check_bool "segment_bytes without journal path" true
          (Result.is_error
             (Server.create { base with Server.segment_bytes = Some 4096 }));
        check_bool "retain_segments negative" true
          (Result.is_error
             (Server.create
                {
                  base with
                  Server.retain_segments = Some (-1);
                  snapshot = Some "/tmp/s.snap";
                  journal = Some "/tmp/j.log";
                }));
        check_bool "retain_segments without snapshot path" true
          (Result.is_error
             (Server.create
                {
                  base with
                  Server.retain_segments = Some 2;
                  journal = Some "/tmp/j.log";
                }));
        check_bool "retain_segments without journal path" true
          (Result.is_error
             (Server.create
                {
                  base with
                  Server.retain_segments = Some 2;
                  snapshot = Some "/tmp/s.snap";
                })));
    Alcotest.test_case "resume validates config against the recovered state"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let t = fresh_server ~journal () in
            expect t "ARRIVE 0 0 60,10" "PLACED 0 1";
            Server.close t;
            let st = ok_or_fail (Recovery.recover ~journal ()) in
            let config =
              {
                Server.policy = "ff";
                seed = 7;
                capacity = cap;
                journal = Some journal;
                snapshot = None;
                snapshot_every = None;
                fsync_every = 64;
                jobs = 1;
                segment_bytes = None;
                retain_segments = None;
              }
            in
            check_bool "policy mismatch" true
              (Result.is_error (Server.resume config st));
            let t =
              ok_or_fail (Server.resume { config with Server.policy = "mtf" } st)
            in
            (* the resumed session carries on where the journal ended *)
            expect t "ARRIVE 1 1 30,30" "PLACED 0 0";
            Server.close t;
            let r = ok_or_fail (Journal.read_file journal) in
            check_int "both events" 2 (List.length r.Journal.events)));
    Alcotest.test_case "serve loop over channels" `Quick (fun () ->
        (* request/reply through real channels, exercising serve's IO path *)
        let req_r, req_w = Unix.pipe ~cloexec:false () in
        let rep_r, rep_w = Unix.pipe ~cloexec:false () in
        let t = fresh_server () in
        let domain =
          Domain.spawn (fun () ->
              Server.serve t (Unix.in_channel_of_descr req_r)
                (Unix.out_channel_of_descr rep_w))
        in
        let oc = Unix.out_channel_of_descr req_w in
        let ic = Unix.in_channel_of_descr rep_r in
        output_string oc "ARRIVE 0 0 60,10\nSTATS\nQUIT\n";
        flush oc;
        check_string "placed" "PLACED 0 1" (input_line ic);
        check_bool "stats" true (contains_sub (input_line ic) "placements=1");
        check_string "bye" "BYE" (input_line ic);
        Domain.join domain;
        check_bool "latency recorded" true
          ((Server.latency_summary t).Dvbp_obs.Histogram.n >= 3);
        close_out_noerr oc;
        close_in_noerr ic);
  ]

let loadgen_tests =
  [
    Alcotest.test_case "script orders events and formats requests" `Quick
      (fun () ->
        let inst =
          Dvbp_core.Instance.of_specs_exn ~capacity:(v [ 10; 10 ])
            [
              (0.0, 5.0, v [ 2; 2 ]);
              (1.0, 2.0, v [ 3; 3 ]);
            ]
        in
        let script = Loadgen.script inst in
        check_int "two arrivals, two departures" 4 (List.length script);
        check_bool "first is arrive at 0" true
          (contains_sub (List.nth script 0) "ARRIVE 0 0");
        (* departure at t=2 precedes nothing else; arrival at t=1 comes second *)
        check_bool "second is arrive at 1" true
          (contains_sub (List.nth script 1) "ARRIVE 1 1");
        check_bool "third departs item 1" true
          (contains_sub (List.nth script 2) "DEPART 2 1"));
    Alcotest.test_case "live run verifies every reply and reports" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let inst =
              Uniform_model.generate
                { Uniform_model.d = 2; n = 60; mu = 8; span = 50; bin_size = 40 }
                ~rng:(Rng.create ~seed:11)
            in
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let report =
              ok_or_fail
                (Loadgen.run ~policy:"mtf" ~seed:7 ~journal ~snapshot
                   ~snapshot_every:25 inst)
            in
            check_int "all events" 120 report.Loadgen.events;
            check_bool "throughput positive" true (report.Loadgen.events_per_sec > 0.0);
            check_int "latency samples" 120 report.Loadgen.latency_us.Dvbp_obs.Histogram.n;
            check_bool "server stats attached" true
              (contains_sub report.Loadgen.server_stats "placements=60");
            (* the METRICS reply captured at the end of the run parses and
               agrees with the server-side counters *)
            let rows =
              ok_or_fail
                (Result.map_error
                   (fun e -> "server_metrics: " ^ e)
                   (Dvbp_obs.Prom.parse report.Loadgen.server_metrics))
            in
            (match Dvbp_obs.Prom.find rows "dvbp_engine_placements_total" with
            | Some r -> check_int "metrics placements" 60 (int_of_float r.Dvbp_obs.Prom.value)
            | None -> Alcotest.fail "dvbp_engine_placements_total missing");
            (* and what the run journaled must recover cleanly *)
            let st = ok_or_fail (Recovery.recover ~snapshot ~journal ()) in
            check_int "all recovered" 120
              (st.Recovery.from_snapshot + st.Recovery.from_journal);
            let out = Loadgen.render report in
            check_bool "render mentions events/s" true (contains_sub out "events/s")));
    Alcotest.test_case "tiny segments + compaction keep journal bytes bounded"
      `Quick (fun () ->
        (* the disk-bound regression: a run that writes ~12 KiB of records
           through 256-byte segments with retain_segments=2 must end with
           the journal's on-disk footprint near the retention window — and
           still recover every event through the compaction snapshots *)
        with_tmp_dir (fun dir ->
            let inst =
              Uniform_model.generate
                { Uniform_model.d = 2; n = 150; mu = 8; span = 50; bin_size = 40 }
                ~rng:(Rng.create ~seed:5)
            in
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let report =
              ok_or_fail
                (Loadgen.run ~policy:"mtf" ~seed:7 ~journal ~snapshot
                   ~segment_bytes:256 ~retain_segments:2 inst)
            in
            check_int "all events" 300 report.Loadgen.events;
            let journal_bytes =
              Array.fold_left
                (fun acc f ->
                  if f = "s.snap" then acc
                  else acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
                0 (Sys.readdir dir)
            in
            check_bool
              (Printf.sprintf "journal bytes bounded (%d on disk)" journal_bytes)
              true
              (journal_bytes < 4096);
            let st = ok_or_fail (Recovery.recover ~snapshot ~journal ()) in
            check_int "every event recovered" 300
              (st.Recovery.from_snapshot + st.Recovery.from_journal)));
    Alcotest.test_case "unknown policy is a clean error" `Quick (fun () ->
        let inst =
          Dvbp_core.Instance.of_specs_exn ~capacity:(v [ 10; 10 ])
            [ (0.0, 1.0, v [ 2; 2 ]) ]
        in
        check_bool "error" true
          (Result.is_error (Loadgen.run ~policy:"zzz" ~seed:7 inst)));
  ]

(* -------------------------------------------------------------------- *)
(* Observability: the METRICS exposition, journal hooks, and the frozen
   STATS contract. *)

let metric_rows m =
  match Dvbp_obs.Prom.parse (Metrics.render_text m) with
  | Ok rows -> rows
  | Error e -> Alcotest.failf "metrics exposition unparseable: %s" e

let metric_value rows ?labels name =
  match Dvbp_obs.Prom.find rows ?labels name with
  | Some r -> int_of_float r.Dvbp_obs.Prom.value
  | None -> Alcotest.failf "metric %s missing" name

let metrics_tests =
  [
    Alcotest.test_case "STATS line shape is frozen" `Quick (fun () ->
        (* Scripts parse STATS; its field list, order and formatting are a
           compatibility contract. If this test fails, you have broken that
           contract — add new telemetry to METRICS instead. *)
        let t = fresh_server () in
        expect t "ARRIVE 0 0 60,10" "PLACED 0 1";
        expect t "DEPART 1 0" "OK";
        let reply, _ = Server.handle_line t "STATS" in
        check_string "exact line"
          "STATS requests=3 placements=1 rejections=0 departures=1 errors=0 \
           snapshots=0 events=2 open_bins=0 bins_opened=1 active_items=0 \
           clock=1 cost=1.0000 latency_mean_us=0.0 latency_max_us=0.0"
          reply;
        Server.close t);
    Alcotest.test_case "METRICS replies with a parseable exposition" `Quick
      (fun () ->
        let t = fresh_server () in
        expect t "ARRIVE 0 0 60,10" "PLACED 0 1";
        expect t "ARRIVE 1 1 50,50" "PLACED 1 1";
        let reply, _ = Server.handle_line t "ARRIVE 2 0 5,5" in
        check_bool "dup rejected" true (contains_sub reply "REJECT");
        expect t "DEPART 3 0" "OK";
        let text, quit = Server.handle_line t "METRICS" in
        check_bool "no quit" false quit;
        check_bool "terminated" true (contains_sub text "# EOF");
        let rows = ok_or_fail (Dvbp_obs.Prom.parse text) in
        let engine name = metric_value rows ~labels:[ ("policy", "mtf") ] name in
        check_int "engine placements" 2 (engine "dvbp_engine_placements_total");
        check_int "engine rejects" 1 (engine "dvbp_engine_rejects_total");
        check_int "engine departures" 1 (engine "dvbp_engine_departures_total");
        check_int "engine bins opened" 2 (engine "dvbp_engine_bins_opened_total");
        check_int "engine bins closed" 1 (engine "dvbp_engine_bins_closed_total");
        check_int "engine open bins" 1 (engine "dvbp_engine_open_bins");
        check_int "server placements" 2
          (metric_value rows "dvbp_server_placements_total");
        check_int "server rejections" 1
          (metric_value rows "dvbp_server_rejections_total");
        check_int "arrive requests" 3
          (metric_value rows ~labels:[ ("kind", "arrive") ]
             "dvbp_server_requests_total");
        check_int "depart requests" 1
          (metric_value rows ~labels:[ ("kind", "depart") ]
             "dvbp_server_requests_total");
        (* the METRICS request itself is counted before rendering *)
        check_int "metrics requests" 1
          (metric_value rows ~labels:[ ("kind", "metrics") ]
             "dvbp_server_requests_total");
        Server.close t);
    Alcotest.test_case "journal hooks count appends, bytes and fsyncs" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let m = Metrics.create () in
            let w = Journal.create ~metrics:m ~fsync_every:1 ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let rows = metric_rows m in
            let n = List.length sample_events in
            check_int "appends" n (metric_value rows "dvbp_journal_records_appended_total");
            (* one fsync per append (fsync_every=1) plus one on close *)
            check_int "fsyncs" (n + 1) (metric_value rows "dvbp_journal_fsyncs_total");
            check_int "fsync latencies sampled" (n + 1)
              (metric_value rows "dvbp_journal_fsync_seconds_count");
            check_bool "bytes counted" true
              (metric_value rows "dvbp_journal_bytes_written_total" > n);
            check_int "no heals" 0 (metric_value rows "dvbp_journal_torn_heals_total")));
    Alcotest.test_case "healing a torn tail increments the heal counter" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let full = In_channel.with_open_bin (active_seg path) In_channel.input_all in
            Out_channel.with_open_bin (active_seg path) (fun oc ->
                Out_channel.output_string oc
                  (String.sub full 0 (String.length full - 5)));
            let m = Metrics.create () in
            let w, r = ok_or_fail (Journal.append_to ~metrics:m ~path (header ())) in
            check_bool "torn reported" true r.Journal.dropped_torn;
            Journal.close w;
            check_int "heal counted" 1
              (metric_value (metric_rows m) "dvbp_journal_torn_heals_total")));
    Alcotest.test_case "truncation is counted" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let m = Metrics.create () in
            let w = Journal.create ~metrics:m ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.truncate w ~new_base:(List.length sample_events);
            Journal.close w;
            check_int "truncates" 1
              (metric_value (metric_rows m) "dvbp_journal_truncates_total")));
    Alcotest.test_case "fit-scan metrics agree across kernels on one trace" `Quick
      (fun () ->
        (* same deterministic event stream into a SWAR session and a forced
           scalar one: the scan-stats metric families must not drift between
           kernels (OPERATIONS.md documents them kernel-independently) *)
        let drive fit_kernel =
          let m = Metrics.create () in
          let s =
            Session.create ~fit_kernel ~capacity:cap
              ~policy:(Dvbp_core.Policy.of_name_exn "bf") ()
          in
          Metrics.attach_session m ~policy:"bf" s;
          let sizes =
            [| (60, 10); (10, 60); (40, 40); (25, 75); (90, 5); (5, 90) |]
          in
          for i = 0 to 39 do
            let a, b = sizes.(i mod 6) in
            ignore (Session.arrive s ~at:(float_of_int i) ~size:(v [ a; b ]) ());
            if i >= 5 then
              Session.depart s ~at:(float_of_int i +. 0.5) ~item_id:(i - 5)
          done;
          (m, s)
        in
        let m_swar, s_swar = drive `Auto and m_scalar, s_scalar = drive `Scalar in
        check_string "kernels differ" "swar" (Session.fit_kernel s_swar);
        check_string "forced scalar" "scalar" (Session.fit_kernel s_scalar);
        check_string "identical session state" (Session.fingerprint s_swar)
          (Session.fingerprint s_scalar);
        let rows_swar = metric_rows m_swar and rows_scalar = metric_rows m_scalar in
        List.iter
          (fun fam ->
            check_int fam
              (metric_value rows_scalar ~labels:[ ("policy", "bf") ] fam)
              (metric_value rows_swar ~labels:[ ("policy", "bf") ] fam))
          [
            "dvbp_engine_fit_scans_total"; "dvbp_engine_fit_scan_candidates_total";
            "dvbp_engine_recheck_memo_hits_total"; "dvbp_engine_placements_total";
            "dvbp_engine_bins_opened_total";
          ];
        check_int "info gauge (swar)" 1
          (metric_value rows_swar
             ~labels:[ ("policy", "bf"); ("kernel", "swar") ]
             "dvbp_engine_fit_kernel_info");
        check_int "info gauge (scalar)" 1
          (metric_value rows_scalar
             ~labels:[ ("policy", "bf"); ("kernel", "scalar") ]
             "dvbp_engine_fit_kernel_info"));
    Alcotest.test_case "noop metrics render empty and cost no clock reads" `Quick
      (fun () ->
        let m = Metrics.noop () in
        check_bool "is_noop" true (Metrics.is_noop m);
        Metrics.on_append m ~bytes:10;
        Metrics.observe_request m Metrics.Arrive ~seconds:0.5;
        check_string "render" "# EOF" (Metrics.render_text m);
        Alcotest.(check (float 0.0)) "now" 0.0 (Metrics.now m));
  ]

(* -------------------------------------------------------------------- *)
(* Online compaction: the snapshot-then-retire pass, its bounded steps,
   its metric families, and the serve loop keeping disk usage flat. The
   64-byte segment target seals on every append (header ~60 bytes), so a
   six-event script leaves six sealed segments to compact. *)

let drive_sample_protocol t =
  expect t "ARRIVE 0 0 60,10" "PLACED 0 1";
  expect t "ARRIVE 1 1 50,50" "PLACED 1 1";
  expect t "ARRIVE 1.5 2 30,20" "PLACED 1 0";
  expect t "DEPART 3 0" "OK";
  expect t "DEPART 4 2" "OK";
  expect t "DEPART 5.5 1" "OK"

let compaction_tests =
  [
    Alcotest.test_case "compact snapshots the frontier and retires the chain"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let t = fresh_server ~journal ~snapshot ~segment_bytes:64 () in
            drive_sample_protocol t;
            (match Server.compact t with
            | Error e -> Alcotest.fail e
            | Ok (path, retired) ->
                check_string "snapshot path" snapshot path;
                check_int "all sealed segments retired" 6 retired);
            (* the active segment keeps its tail: serving continues and new
               appends chain onto the snapshotted frontier *)
            let reply, _ = Server.handle_line t "ARRIVE 7 9 5,5" in
            check_bool "still serving" true (contains_sub reply "PLACED");
            Server.close t;
            let st = ok_or_fail (Recovery.recover ~snapshot ~journal ()) in
            check_int "snapshot covers the compacted prefix" 6
              st.Recovery.from_snapshot;
            check_int "post-compact tail replays from the journal" 1
              st.Recovery.from_journal));
    Alcotest.test_case "compact without snapshot or journal is a clean error"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let t = fresh_server ~journal () in
            check_bool "no snapshot path" true (Result.is_error (Server.compact t));
            Server.close t;
            let t = fresh_server () in
            check_bool "no journal" true (Result.is_error (Server.compact t));
            Server.close t));
    Alcotest.test_case "retain_segments arms pending; bounded steps converge"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let t =
              fresh_server ~journal ~snapshot ~segment_bytes:64
                ~retain_segments:1 ()
            in
            drive_sample_protocol t;
            check_bool "six sealed > retain 1" true (Server.compaction_pending t);
            (* first step writes the snapshot and arms the retire pass *)
            Server.compaction_step t;
            check_bool "snapshot written" true (Sys.file_exists snapshot);
            check_bool "pass mid-flight" true (Server.compaction_pending t);
            let steps = ref 1 in
            while Server.compaction_pending t && !steps < 32 do
              Server.compaction_step t;
              incr steps
            done;
            (* 6 segments at 4 per retire step: snapshot + two retire steps *)
            check_int "converges in bounded steps" 3 !steps;
            Server.compaction_step t;  (* idle: a spurious step is a no-op *)
            Server.close t;
            let st = ok_or_fail (Recovery.recover ~snapshot ~journal ()) in
            check_int "nothing lost" 6
              (st.Recovery.from_snapshot + st.Recovery.from_journal)));
    Alcotest.test_case "compaction updates the segment metric families" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let m = Metrics.create () in
            let t =
              ok_or_fail
                (Server.create ~metrics:m
                   {
                     Server.policy = "mtf";
                     seed = 7;
                     capacity = cap;
                     journal = Some journal;
                     snapshot = Some snapshot;
                     snapshot_every = None;
                     fsync_every = 64;
                     jobs = 1;
                     segment_bytes = Some 64;
                     retain_segments = Some 1;
                   })
            in
            drive_sample_protocol t;
            let rows = metric_rows m in
            check_int "seals counted" 6
              (metric_value rows "dvbp_journal_segments_sealed_total");
            check_bool "lag tracks unsnapshotted events" true
              (metric_value rows "dvbp_server_compaction_lag_events" > 0);
            while Server.compaction_pending t do
              Server.compaction_step t
            done;
            let rows = metric_rows m in
            check_int "segments gauge: active only" 1
              (metric_value rows "dvbp_journal_segments");
            check_int "retirements counted" 6
              (metric_value rows "dvbp_journal_segments_retired_total");
            check_bool "retired bytes counted" true
              (metric_value rows "dvbp_journal_retired_bytes_total" > 0);
            check_int "one compaction pass" 1
              (metric_value rows "dvbp_server_compactions_total");
            check_int "pass duration sampled" 1
              (metric_value rows "dvbp_server_compaction_seconds_count");
            check_int "lag reset by the pass" 0
              (metric_value rows "dvbp_server_compaction_lag_events");
            check_bool "live bytes back to the active segment" true
              (metric_value rows "dvbp_journal_live_bytes" < 128);
            Server.close t));
  ]

(* -------------------------------------------------------------------- *)
(* Group commit and the multi-client front end: handle_batch isolation,
   the fsync-per-batch ceiling, shard-count determinism and the event
   loop's ordering guarantees. *)

let fresh_server_jobs ?io ?journal ?metrics ~jobs () =
  ok_or_fail
    (Server.create ?io ?metrics
       {
         Server.policy = "mtf";
         seed = 7;
         capacity = cap;
         journal;
         snapshot = None;
         snapshot_every = None;
         fsync_every = 64;
         jobs;
         segment_bytes = None;
         retain_segments = None;
       })

(* the same deterministic multi-tenant request mix used by the shard
   determinism tests: four tenants, interleaved arrivals and departures *)
let tenant_mix_lines () =
  let lines = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let tenants = [| "alpha"; "beta"; "gamma"; "delta" |] in
  for i = 0 to 39 do
    let tn = tenants.(i mod 4) in
    let t = i / 4 in
    if i >= 24 && i mod 8 < 2 then emit "DEPART %s %d %d" tn t (i mod 8)
    else emit "ARRIVE %s %d %d %d,%d" tn t i ((i * 13 mod 50) + 5) ((i * 7 mod 40) + 5)
  done;
  Array.of_list (List.rev !lines)

let batch_tests =
  [
    Alcotest.test_case "handle_batch isolates failures and interleaves control"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let t = fresh_server ~journal () in
            let replies =
              Server.handle_batch t
                [|
                  "ARRIVE 0 0 60,10";
                  "ARRIVE t1 0 0 60,10";  (* same id, own tenant: placed *)
                  "BOGUS LINE";
                  "ARRIVE 1 0 5,5";  (* duplicate id in default tenant *)
                  "STATS";
                  "DEPART t1 2 0";
                  "QUIT";
                |]
            in
            check_int "every line answered" 7 (Array.length replies);
            let reply i = fst replies.(i) in
            check_string "default placed" "PLACED 0 1" (reply 0);
            check_string "tenant t1 isolated" "PLACED 0 1" (reply 1);
            check_bool "malformed is ERR" true (contains_sub (reply 2) "ERR");
            check_bool "duplicate is REJECT" true (contains_sub (reply 3) "REJECT");
            check_bool "STATS mid-batch" true (contains_sub (reply 4) "placements=2");
            check_string "t1 departure" "OK" (reply 5);
            check_string "quit reply" "BYE" (reply 6);
            check_bool "quit flag only on QUIT" true
              (Array.for_all (fun (_, q) -> not q) (Array.sub replies 0 6)
              && snd replies.(6));
            Server.close t;
            (* only the three applied events were journaled, tenants intact *)
            let r = ok_or_fail (Journal.read_file journal) in
            let tenants =
              List.map
                (function
                  | Journal.Arrive { tenant; _ } | Journal.Depart { tenant; _ } ->
                      tenant)
                r.Journal.events
            in
            check_bool "journal holds applied events with tenants" true
              (tenants = [ dflt; "t1"; "t1" ])));
    Alcotest.test_case "group commit fsyncs at the per-batch ceiling" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let m = Metrics.create () in
            let t =
              ok_or_fail
                (Server.create ~metrics:m
                   {
                     Server.policy = "mtf";
                     seed = 7;
                     capacity = cap;
                     journal = Some journal;
                     snapshot = None;
                     snapshot_every = None;
                     fsync_every = 4;
                     jobs = 1;
                     segment_bytes = None;
                     retain_segments = None;
                   })
            in
            let arrive i = Printf.sprintf "ARRIVE %d %d 5,5" i i in
            let batch_of lo n = Array.init n (fun k -> arrive (lo + k)) in
            let fsyncs () = metric_value (metric_rows m) "dvbp_journal_fsyncs_total" in
            (* 10 events at ceiling 4 -> ceil(10/4) = 3 commits *)
            ignore (Server.handle_batch t (batch_of 0 10));
            check_int "ceil(10/4) fsyncs" 3 (fsyncs ());
            (* exactly one ceiling's worth -> exactly one more *)
            ignore (Server.handle_batch t (batch_of 10 4));
            check_int "one full chunk" 4 (fsyncs ());
            (* control-only batches commit nothing *)
            ignore (Server.handle_batch t [| "STATS"; "BOGUS" |]);
            check_int "no events, no fsync" 4 (fsyncs ());
            let rows = metric_rows m in
            check_int "batch size histogram counts chunks" 4
              (metric_value rows "dvbp_journal_batch_size_count");
            check_int "batch size histogram sums events" 14
              (metric_value rows "dvbp_journal_batch_size_sum");
            check_int "waiters gauge resets after release" 0
              (metric_value rows "dvbp_journal_group_commit_waiters");
            Server.close t));
    Alcotest.test_case "a leading-blank event is group-committed before its reply"
      `Quick (fun () ->
        let fs = Dvbp_sim.Sim_fs.create () in
        let io = Dvbp_sim.Sim_fs.io fs in
        let m = Metrics.create () in
        let t = fresh_server_jobs ~io ~journal:"d/j.log" ~metrics:m ~jobs:1 () in
        let fsyncs () = metric_value (metric_rows m) "dvbp_journal_fsyncs_total" in
        let before = fsyncs () in
        let replies = Server.handle_batch t [| " ARRIVE 0 0 10,10"; " DEPART 1 0" |] in
        check_string "placed" "PLACED 0 1" (fst replies.(0));
        check_string "departed" "OK" (fst replies.(1));
        check_bool "fsynced before the replies were released" true (fsyncs () > before);
        (* power cut right after the replies: only fsynced bytes survive *)
        Dvbp_sim.Sim_fs.crash fs ~mode:Dvbp_sim.Sim_fs.Lose_unsynced;
        let st = ok_or_fail (Recovery.recover ~io ~journal:"d/j.log" ()) in
        check_int "both acked events survive" 2 st.Recovery.events);
    Alcotest.test_case "jobs=4 batch results are bit-identical to jobs=1" `Quick
      (fun () ->
        let lines = tenant_mix_lines () in
        let t1 = fresh_server_jobs ~jobs:1 () in
        let t4 = fresh_server_jobs ~jobs:4 () in
        let r1 = Server.handle_batch t1 lines in
        let r4 = Server.handle_batch t4 lines in
        Array.iteri
          (fun i (reply, _) -> check_string lines.(i) reply (fst r4.(i)))
          r1;
        (* everything up to the wall-clock latency fields is deterministic *)
        let counters line =
          let marker = " latency_mean_us" in
          let n = String.length line and m = String.length marker in
          let rec find i =
            if i + m > n then line
            else if String.sub line i m = marker then String.sub line 0 i
            else find (i + 1)
          in
          find 0
        in
        check_string "aggregate STATS agree"
          (counters (Server.stats_line t1))
          (counters (Server.stats_line t4));
        List.iter2
          (fun (tn1, s1) (tn4, s4) ->
            check_string "tenant order" tn1 tn4;
            check_string ("fingerprint " ^ tn1) (Session.fingerprint s1)
              (Session.fingerprint s4))
          (Server.sessions t1) (Server.sessions t4);
        Server.close t1;
        Server.close t4);
    Alcotest.test_case "event loop: per-connection FIFO, tenants isolated"
      `Quick (fun () ->
        (* two clients over socketpairs issue the same script under their
           own tenants: each must see its own replies, in its own order,
           with identical placements (isolation = same fresh packing) *)
        let s_a, c_a = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let s_b, c_b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let t = fresh_server () in
        let loop =
          Domain.spawn (fun () -> Event_loop.serve ~conns:[ s_a; s_b ] t)
        in
        let script tn =
          Printf.sprintf
            "ARRIVE %s 0 0 60,10\nARRIVE %s 1 1 50,50\nDEPART %s 2 0\nQUIT\n" tn
            tn tn
        in
        let send fd s =
          ignore (Unix.write_substring fd s 0 (String.length s))
        in
        send c_a (script "a");
        send c_b (script "b");
        let read_all fd =
          let buf = Bytes.create 4096 in
          let out = Buffer.create 256 in
          let rec go () =
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> Buffer.contents out
            | n ->
                Buffer.add_subbytes out buf 0 n;
                go ()
          in
          go ()
        in
        let got_a = read_all c_a and got_b = read_all c_b in
        Domain.join loop;
        let expected = "PLACED 0 1\nPLACED 1 1\nOK\nBYE\n" in
        check_string "client a FIFO replies" expected got_a;
        check_string "client b FIFO replies" expected got_b;
        Unix.close c_a;
        Unix.close c_b);
    Alcotest.test_case "event loop: chunked input answers like one write" `Quick
      (fun () ->
        (* the same script, sent whole or in seeded 1-4096-byte pieces,
           must draw byte-identical replies: lines split across reads, a
           60 KiB line (within the 64 KiB request-line bound) spanning many
           reads, and an unterminated final line answered at EOF *)
        let script =
          let rng = Random.State.make [| 0xC4A7 |] in
          let b = Buffer.create 131072 in
          for i = 0 to 299 do
            (match i mod 10 with
            | 7 -> Buffer.add_string b "ARRIVE a b c 1,1"
            | 8 -> Printf.bprintf b "DEPART %d %d" i (i - 8)
            | 9 -> Buffer.add_string b "FROB 1 2"
            | _ ->
                Printf.bprintf b "ARRIVE %d %d %d,%d" i i
                  (1 + Random.State.int rng 60) (1 + Random.State.int rng 60));
            Buffer.add_char b '\n';
            if i = 150 then begin
              Buffer.add_string b "ARRIVE ";
              Buffer.add_string b (String.make (60 * 1024) '7');
              Buffer.add_char b '\n'
            end
          done;
          Buffer.add_string b "ARRIVE 400 400 5,5";
          Buffer.contents b
        in
        let write_all fd s pos len =
          let off = ref pos in
          while !off < pos + len do
            off := !off + Unix.write_substring fd s !off (pos + len - !off)
          done
        in
        let serve_in pieces =
          let s, c = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          let t = fresh_server () in
          let loop = Domain.spawn (fun () -> Event_loop.serve ~conns:[ s ] t) in
          let pos = ref 0 in
          List.iter
            (fun len ->
              write_all c script !pos len;
              pos := !pos + len;
              Unix.sleepf 0.0002)
            pieces;
          Unix.shutdown c Unix.SHUTDOWN_SEND;
          let buf = Bytes.create 65536 and out = Buffer.create 65536 in
          let rec go () =
            match Unix.read c buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes out buf 0 n;
                go ()
          in
          go ();
          Domain.join loop;
          Unix.close c;
          Buffer.contents out
        in
        let n = String.length script in
        let whole = serve_in [ n ] in
        check_int "every line answered" 302
          (List.length (String.split_on_char '\n' whole) - 1);
        List.iter
          (fun seed ->
            let rng = Random.State.make [| seed |] in
            let rec pieces pos =
              if pos >= n then []
              else
                let len = min (n - pos) (1 + Random.State.int rng 4096) in
                len :: pieces (pos + len)
            in
            check_string (Printf.sprintf "seed %d replies" seed) whole
              (serve_in (pieces 0)))
          [ 1; 2; 3 ]);
    Alcotest.test_case "event loop: an overlong request line is refused and bounded"
      `Quick (fun () ->
        (* a client streams 1 MiB with no newline: it gets one ERR and its
           connection closes, the input buffer never exceeds twice the
           64 KiB line bound, a well-behaved client beside it gets
           byte-for-byte the replies it gets alone, and the blocking stdin
           loop answers an overlong line exactly as the event loop does *)
        let script =
          "ARRIVE 0 0 60,10\nARRIVE 1 1 50,50\nSTATS\nDEPART 2 0\nARRIVE 3 2 10,10\nQUIT\n"
        in
        let read_all fd =
          let buf = Bytes.create 4096 and out = Buffer.create 256 in
          let rec go () =
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> Buffer.contents out
            | n ->
                Buffer.add_subbytes out buf 0 n;
                go ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Buffer.contents out
          in
          go ()
        in
        let strip_latency reply =
          String.split_on_char ' ' reply
          |> List.filter (fun f -> not (String.starts_with ~prefix:"latency" f))
          |> String.concat " "
        in
        let run ~hostile =
          let t = fresh_server_jobs ~jobs:1 () in
          let s_g, c_g = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          let pairs =
            if hostile then [ Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 ] else []
          in
          let loop =
            Domain.spawn (fun () -> Event_loop.serve ~conns:(List.map fst pairs @ [ s_g ]) t)
          in
          let flood =
            List.map
              (fun (_, c_h) ->
                Domain.spawn (fun () ->
                    let chunk = String.make 65536 'A' in
                    (try
                       for _ = 1 to 16 do
                         let off = ref 0 in
                         while !off < 65536 do
                           off := !off + Unix.write_substring c_h chunk !off (65536 - !off)
                         done
                       done
                     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
                    (* end of input: an unbounded server answers now instead of hanging *)
                    try Unix.shutdown c_h Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()))
              pairs
          in
          if hostile then Unix.sleepf 0.05;
          ignore (Unix.write_substring c_g script 0 (String.length script));
          let got_g = read_all c_g in
          List.iter Domain.join flood;
          let got_h = List.map (fun (_, c_h) -> read_all c_h) pairs in
          Domain.join loop;
          Unix.close c_g;
          List.iter (fun (_, c_h) -> Unix.close c_h) pairs;
          (String.split_on_char '\n' got_g |> List.map strip_latency, got_h)
        in
        let alone, _ = run ~hostile:false in
        let beside, hostile_replies = run ~hostile:true in
        check_bool "the other client's replies are unchanged" true (alone = beside);
        check_bool "its replies are real" true (List.length alone = 7);
        check_bool "one ERR, then the connection closed" true
          (hostile_replies = [ "ERR request line exceeds 65536 bytes\n" ]);
        (* the framing alone: 4 KiB writes with no newline until refused *)
        let s, c = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let conn = Event_loop.make_conn s in
        let chunk = String.make 4096 'A' in
        let sent = ref 0 and peak = ref 0 in
        while (not (Event_loop.refused conn)) && !sent < 1 lsl 20 do
          sent := !sent + Unix.write_substring c chunk 0 4096;
          Event_loop.read_chunk conn;
          peak := max !peak (Event_loop.input_capacity conn)
        done;
        Unix.close s;
        Unix.close c;
        check_bool "refused within the line bound" true
          (Event_loop.refused conn && !sent <= 65536 + 4096);
        check_bool (Printf.sprintf "input buffer peak %d <= 131072" !peak) true
          (!peak <= 2 * 65536);
        (* both transports: the lines before the overlong one answered,
           then the ERR, then nothing *)
        let script =
          "ARRIVE 0 0 60,10\nARRIVE 1 1 50,50\nARRIVE 2 " ^ String.make 70000 '9'
          ^ " 5,5\nARRIVE 3 2 10,10\nQUIT\n"
        in
        let via_stdin =
          let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
          let t = fresh_server () in
          let srv =
            Domain.spawn (fun () ->
                let oc = Unix.out_channel_of_descr resp_w in
                Server.serve t (Unix.in_channel_of_descr req_r) oc;
                close_out oc)
          in
          let writer =
            Domain.spawn (fun () ->
                (try ignore (Unix.write_substring req_w script 0 (String.length script))
                 with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
                Unix.close req_w)
          in
          let got = read_all resp_r in
          Domain.join srv;
          Domain.join writer;
          Unix.close req_r;
          Unix.close resp_r;
          got
        in
        let via_loop =
          let s, c = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          let loop = Domain.spawn (fun () -> Event_loop.serve ~conns:[ s ] (fresh_server ())) in
          (try ignore (Unix.write_substring c script 0 (String.length script))
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
          let got = read_all c in
          Domain.join loop;
          Unix.close c;
          got
        in
        check_string "stdin and event loop answer alike" via_loop via_stdin;
        check_int "two replies, then the ERR" 3
          (List.length (String.split_on_char '\n' via_stdin) - 1));
  ]

(* The two entry points share one parser and one request path: any line
   stream, answered line by line, as one batch or as one-line batches,
   yields byte-identical replies, counters, journals and packings. The
   generator mixes valid events (with and without a tenant), every numeric
   spelling the stdlib accepts or refuses, blanks and CRLF, wrong arity,
   bad tenants, unknown or lowercase commands and control words with
   arguments. *)
let protocol_line_gen =
  QCheck2.Gen.(
    let spelled = oneofl [ "+7"; "0x10"; "1_000"; "-0"; "nan"; "inf"; "-inf"; "1e1"; "-3" ] in
    let num lo hi = frequency [ (5, map string_of_int (lo -- hi)); (1, spelled) ] in
    let sizes =
      frequency
        [
          (6, map2 (fun a b -> a ^ "," ^ b) (num 0 60) (num 0 60));
          (1, oneofl [ "10,"; ",10"; "10,,10"; "5"; "5,5,5"; "-3,4"; "x,1" ]);
        ]
    in
    let tenant =
      frequency
        [ (3, return []); (2, oneofl [ [ "t1" ]; [ "t2" ]; [ "42" ] ]);
          (1, oneofl [ [ "bad!" ]; [ "-" ] ]) ]
    in
    let event =
      let* cmd = frequency [ (5, return "ARRIVE"); (3, return "DEPART");
                             (1, oneofl [ "arrive"; "Depart" ]) ] in
      let* tn = tenant in
      let* time = num 0 20 in
      let* id = num 0 8 in
      let* size = sizes in
      let fields = (cmd :: tn) @ [ time; id ] @ (if cmd = "ARRIVE" then [ size ] else []) in
      frequency
        [ (8, return fields); (1, return (List.filteri (fun k _ -> k <> 1) fields));
          (1, return (fields @ [ "x" ])) ]
    in
    let control =
      oneof
        [ oneofl [ [ "STATS" ]; [ "METRICS" ]; [ "SNAPSHOT" ]; [ "QUIT" ]; []; [ "FROB"; "1" ] ];
          map (fun w -> [ w; "now" ]) (oneofl [ "STATS"; "METRICS"; "SNAPSHOT"; "QUIT" ]) ]
    in
    let* fields = frequency [ (6, event); (1, control) ] in
    let* sep = frequency [ (4, return " "); (1, return "  ") ] in
    let* lead = frequency [ (4, return ""); (1, return " ") ] in
    let* trail = frequency [ (3, return ""); (1, oneofl [ " "; "\r"; " \r" ]) ] in
    return (lead ^ String.concat sep fields ^ trail))

(* replies, counters, per-tenant fingerprints and journal of one server
   driven by [answer] *)
let protocol_outcome answer lines =
  let fs = Dvbp_sim.Sim_fs.create () in
  let io = Dvbp_sim.Sim_fs.io fs in
  let t = fresh_server_jobs ~io ~journal:"d/j.log" ~metrics:(Metrics.noop ()) ~jobs:1 () in
  let replies = answer t lines in
  let metrics = Server.metrics t in
  let prints = List.map (fun (tn, s) -> (tn, Session.fingerprint s)) (Server.sessions t) in
  Server.close t;
  let journal = (ok_or_fail (Journal.read_file ~io "d/j.log")).Journal.events in
  (replies, metrics, prints, journal)

let prop_one_request_path =
  QCheck2.Test.make ~name:"handle_line and handle_batch answer every line alike"
    ~count:300
    ~print:QCheck2.Print.(list string)
    QCheck2.Gen.(list_size (1 -- 40) protocol_line_gen)
    (fun lines ->
      let by_line = protocol_outcome (fun t -> List.map (Server.handle_line t)) lines in
      let one_batch =
        protocol_outcome
          (fun t ls -> Array.to_list (Server.handle_batch t (Array.of_list ls)))
          lines
      in
      let singles =
        protocol_outcome
          (fun t -> List.concat_map (fun l -> Array.to_list (Server.handle_batch t [| l |])))
          lines
      in
      by_line = one_batch && by_line = singles)

let protocol_tests =
  [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5E4E |]) prop_one_request_path ]

(* ---------- one-pass resume: the in-place decoder and one read per file ---------- *)

let time_bits e = Int64.bits_of_float (Journal.event_time e)

(* the in-place decoder against the split-based reference: the same event
   (times bit for bit) or the same error message. The line is decoded
   both alone and inside a larger text, so a read outside its extent
   shows. *)
let decoders_agree line =
  let padded = "arrive,x,~0000\n" ^ line ^ ",9,~" in
  let inner = Record.decode padded 15 (String.length line) in
  let expected = Record_reference.decode_event line in
  let same got =
    match (expected, got) with
    | Ok a, Ok b -> Journal.equal_event a b && Int64.equal (time_bits a) (time_bits b)
    | Error a, Error b -> String.equal a b
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  same (Journal.decode_event line) && same inner

let seal body = Printf.sprintf "%s,~%04x" body (Record_reference.checksum body)

(* the body of an encoded record: everything before its ",~xxxx" *)
let body_of line = String.sub line 0 (String.length line - 6)

let differential_event_gen =
  QCheck2.Gen.(
    let id =
      oneof [ int; int_range (-1000) 1000; oneofl [ 0; -1; 9; 10; max_int; min_int ] ]
    in
    let time =
      oneof
        [
          float_range (-1e6) 1e6;
          map float_of_int (int_range (-100000) 100000);
          map (fun m -> Float.ldexp (float_of_int m) (-1074)) (int_range 1 ((1 lsl 52) - 1));
          map
            (fun bits ->
              let f = Int64.float_of_bits bits in
              if Float.is_finite f then f else 1.5)
            ui64;
          oneofl
            [ 0.0; -0.0; 5e-324; -5e-324; Float.ldexp 1.0 1022; Float.ldexp 1.0 (-1022);
              -.Float.ldexp 1.0 1023; max_float; min_float; 1e15; 3.0 ];
        ]
    in
    let tenant = oneofl [ dflt; "t0"; String.make 64 'z'; "A.b-c_9" ] in
    oneof
      [
        (let* tenant = tenant and* time = time and* item_id = id in
         let* bin_id = id and* opened_new_bin = bool in
         let+ sizes = list_size (1 -- 8) (oneof [ int_bound 100; int_bound max_int ]) in
         Journal.Arrive { tenant; time; item_id; size = v sizes; bin_id; opened_new_bin });
        (let+ tenant = tenant and+ time = time and+ item_id = id in
         Journal.Depart { tenant; time; item_id });
      ])

(* a replacement for one body field: a non-canonical spelling the
   fallbacks must read exactly as before, or plain junk *)
let field_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ "0x1f"; "1_000"; "+5"; "1e3"; "0x1.8P+1"; "0X1p+0"; "0x1.80p+1"; "0x1.8p+01";
            "0x1p-1023"; "0x1p+1024"; "0x0.8p-1021"; "0x0p+5"; "0x0.0p-1022"; "-0x0p+0";
            "0x1.fffffffffffff8p+0"; "0x1.p+0"; "0x0.8p+0"; "0x1.0000000000000p+0";
            "0x1p+"; "0x1p"; "0x"; " 7"; "7 "; "-0"; "007"; "-"; "--5"; ""; "nan";
            "inf"; "-inf"; "3.5"; "1_0.5"; "0"; "1"; "2";
            "-1"; "4611686018427387903"; "-4611686018427387904"; "4611686018427387904";
            "99999999999999999999"; "bad!"; "default"; "t0"; "Arrive"; "depart"; "frob";
            String.make 65 'a' ];
        string_size
          ~gen:(oneofl [ '0'; '1'; '9'; 'a'; 'f'; 'x'; 'p'; 'P'; '.'; '+'; '-'; '_'; ' '; 'e' ])
          (0 -- 8);
        (* near misses of the canonical hex-float spelling *)
        (let* sign = oneofl [ ""; "-"; "+" ] and* lead = oneofl [ "0"; "1"; "2" ] in
         let* frac =
           oneof
             [ return "";
               map (fun s -> "." ^ s)
                 (string_size ~gen:(oneofl [ '0'; '1'; '8'; 'f'; 'F' ]) (0 -- 14)) ]
         in
         let* p = oneofl [ "p"; "p"; "P" ] and* esign = oneofl [ "+"; "-"; "" ] in
         let+ exp = oneof [ int_range 0 1080; oneofl [ 0; 1022; 1023; 1024; 1074; 99999 ] ] in
         Printf.sprintf "%s0x%s%s%s%s%d" sign lead frac p esign exp);
      ])

(* encoded records, then re-sealed after field-level edits so the edits
   reach the field parsers instead of failing the checksum *)
let mutated_record_gen =
  QCheck2.Gen.(
    let* e = differential_event_gen in
    let fields = String.split_on_char ',' (body_of (Journal.encode_event e)) in
    let* edit = int_bound 5 and* i = int_bound (List.length fields - 1) and* f = field_gen in
    let body =
      match edit with
      | 0 -> fields
      | 1 -> List.filteri (fun j _ -> j <> i) fields
      | 2 -> fields @ [ f ]
      | _ -> List.mapi (fun j x -> if j = i then f else x) fields
    in
    return (seal (String.concat "," body)))

let prop_decoder_differential =
  QCheck2.Test.make ~name:"in-place decoder agrees with the split-based reference"
    ~count:5000
    ~print:QCheck2.Print.string mutated_record_gen decoders_agree

(* records every byte-level mutation below starts from *)
let differential_seeds () =
  List.map Journal.encode_event
    [
      Journal.Arrive
        { tenant = dflt; time = 3.0; item_id = -5; size = v [ 30; 20 ]; bin_id = 0;
          opened_new_bin = true };
      Journal.Arrive
        { tenant = String.make 64 'q'; time = 5e-324; item_id = max_int;
          size = v [ 1; 2; 3; 4; 5; 6; 7; 8 ]; bin_id = min_int; opened_new_bin = false };
      Journal.Depart { tenant = "t0"; time = -0.0; item_id = min_int };
      Journal.Depart { tenant = dflt; time = Float.ldexp 1.0 (-1022); item_id = 12 };
      Journal.Arrive
        { tenant = "t0"; time = 1e15; item_id = 0; size = v [ 0 ]; bin_id = 7;
          opened_new_bin = true };
    ]

let upper_checksum line =
  let n = String.length line in
  String.sub line 0 (n - 4) ^ String.uppercase_ascii (String.sub line (n - 4) 4)

let check_agree line =
  if not (decoders_agree line) then Alcotest.failf "decoders disagree on %S" line

(* an [Io] over the real filesystem that counts [read_file] per path *)
let counting_io () =
  let reads = Hashtbl.create 8 in
  let read_file path =
    Hashtbl.replace reads path (1 + Option.value ~default:0 (Hashtbl.find_opt reads path));
    Real_io.v.Io.read_file path
  in
  ({ Real_io.v with Io.read_file }, reads)

let check_read_once reads paths =
  List.iter
    (fun p ->
      check_int ("reads of " ^ Filename.basename p) 1
        (Option.value ~default:0 (Hashtbl.find_opt reads p)))
    paths;
  check_int "no other file read" (List.length paths) (Hashtbl.length reads)

let resume_config ~journal ~snapshot =
  {
    Server.policy = "mtf";
    seed = 7;
    capacity = cap;
    journal = Some journal;
    snapshot = Some snapshot;
    snapshot_every = None;
    fsync_every = 64;
    jobs = 1;
    segment_bytes = Some 256;
    retain_segments = None;
  }

(* the journal's segment files on disk *)
let segment_files journal =
  let dir = Filename.dirname journal and base = Filename.basename journal ^ "." in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:base f)
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

(* A two-tenant journal behind a snapshot: events, SNAPSHOT, then enough
   events after it to seal several 256-byte segments. Returns the segment
   files on disk. *)
let build_resume_fixture ~journal ~snapshot =
  let t = ok_or_fail (Server.create (resume_config ~journal ~snapshot)) in
  let arrive i =
    let tenant = if i mod 2 = 0 then "" else "t1 " in
    let reply, _ = Server.handle_line t (Printf.sprintf "ARRIVE %s%d %d 5,5" tenant i i) in
    check_bool "placed" true (contains_sub reply "PLACED")
  in
  for i = 0 to 9 do arrive i done;
  let reply, _ = Server.handle_line t "SNAPSHOT" in
  check_bool "snapshot" true (contains_sub reply "OK");
  for i = 10 to 49 do arrive i done;
  Server.close t;
  segment_files journal

let resume_tests =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xDEC0DE |])
      prop_decoder_differential;
    Alcotest.test_case "decoders agree on every single-byte change and truncation"
      `Quick (fun () ->
        List.iter
          (fun line ->
            let n = String.length line in
            for i = 0 to n - 1 do
              for c = 0 to 255 do
                let b = Bytes.of_string line in
                Bytes.set b i (Char.chr c);
                check_agree (Bytes.to_string b)
              done
            done;
            for k = 0 to n do
              check_agree (String.sub line 0 k)
            done;
            List.iter check_agree
              [ " " ^ line; line ^ " "; "\t" ^ line ^ "\r"; line ^ "\r"; upper_checksum line ])
          (differential_seeds ()));
    Alcotest.test_case "a run of one tenant's records shares its name" `Quick (fun () ->
        let decoder = Record.decoder () in
        let line =
          Journal.encode_event (Journal.Depart { tenant = "t9"; time = 1.0; item_id = 1 })
        in
        let decode () =
          match Record.decode ~decoder line 0 (String.length line) with
          | Ok e -> Journal.event_tenant e
          | Error msg -> Alcotest.fail msg
        in
        let a = decode () in
        check_bool "same string" true (a == decode ()));
    Alcotest.test_case "serve --resume, recover and compact read each file once"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let segments = build_resume_fixture ~journal ~snapshot in
            check_bool "several sealed segments" true
              (List.length (List.filter (fun f -> Filename.check_suffix f ".seg") segments) >= 3);
            (* serve --resume: one recovery read, the writer reopened from it *)
            let io, reads = counting_io () in
            (match ok_or_fail (Server.restart ~io (resume_config ~journal ~snapshot)) with
            | None -> Alcotest.fail "nothing to resume"
            | Some t ->
                check_int "every event recovered" 50 (Server.metrics t).Server.events;
                Server.close t);
            check_read_once reads (snapshot :: segments);
            (* dvbp recover *)
            let io, reads = counting_io () in
            let st = ok_or_fail (Recovery.load ~io ~snapshot ~journal ()) in
            check_bool "recovered" true (st <> None);
            check_read_once reads (snapshot :: segment_files journal);
            (* dvbp compact *)
            let segments = segment_files journal in
            let io, reads = counting_io () in
            ignore
              (ok_or_fail
                 (Dvbp_cli_lib.Service_cli.compact ~io ~journal ~snapshot ~segment_bytes:256 ()));
            check_read_once reads (snapshot :: segments)));
    Alcotest.test_case "a journal source is trusted only while its files are unchanged"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j.log" in
            let n = List.length sample_events in
            let w = Journal.create ~path (header ()) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let source = Option.get (ok_or_fail (Journal.load path)) in
            let io, reads = counting_io () in
            let w, r = ok_or_fail (Journal.append_to ~io ~source ~path (header ())) in
            check_int "reopened from the source" n (List.length r.Journal.events);
            check_int "no file read" 0 (Hashtbl.length reads);
            Journal.append w (List.hd sample_events);
            Journal.close w;
            (* written since the load: the files are read again and show
               the new record *)
            let w, r = ok_or_fail (Journal.append_to ~source ~path (header ())) in
            check_int "read afresh" (n + 1) (List.length r.Journal.events);
            Journal.close w;
            (* a write between a load and a resume that goes on to seal:
               a writer reopened from the stale count and CRC would write
               a footer the next read rejects *)
            let source = Option.get (ok_or_fail (Journal.load path)) in
            let w, _ = ok_or_fail (Journal.append_to ~segment_bytes:64 ~path (header ())) in
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let w, r =
              ok_or_fail (Journal.append_to ~segment_bytes:64 ~source ~path (header ()))
            in
            check_int "sees the later write" ((2 * n) + 1) (List.length r.Journal.events);
            List.iter (Journal.append w) sample_events;
            Journal.close w;
            let r = ok_or_fail (Journal.read_file path) in
            check_int "every record readable" ((3 * n) + 1) (List.length r.Journal.events);
            let other = Filename.concat dir "k.log" in
            let source = Option.get (ok_or_fail (Journal.load path)) in
            let w, r = ok_or_fail (Journal.append_to ~source ~path:other (header ())) in
            check_int "another path starts fresh" 0 (List.length r.Journal.events);
            Journal.close w));
    Alcotest.test_case "a journal with nothing durable resumes as nothing" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            let config = resume_config ~journal ~snapshot in
            check_bool "absent" true (Result.get_ok (Server.restart config) = None);
            (* a crashed genesis: the header never completed *)
            Out_channel.with_open_bin (active_seg journal) (fun oc ->
                Out_channel.output_string oc "# dvbp-segment v1\npolicy,mtf\nseed,7\n");
            check_bool "exists: header-incomplete" false (Journal.exists journal);
            check_bool "load: header-incomplete" true
              (Result.get_ok (Recovery.load ~journal ()) = None);
            Out_channel.with_open_bin (active_seg journal) (fun oc ->
                Out_channel.output_string oc "# dvbp-segment v1\npolicy,mtf\nseed,x\n");
            check_bool "exists: unreadable" true (Journal.exists journal);
            check_bool "restart: unreadable" true (Result.is_error (Server.restart config))));
    Alcotest.test_case "METRICS after a resume reports the recovery gauges" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let journal = Filename.concat dir "j.log" in
            let snapshot = Filename.concat dir "s.snap" in
            ignore (build_resume_fixture ~journal ~snapshot);
            let st = ok_or_fail (Recovery.recover ~snapshot ~journal ()) in
            let metrics = Metrics.create () in
            let t =
              Option.get
                (ok_or_fail (Server.restart ~metrics (resume_config ~journal ~snapshot)))
            in
            let text, _ = Server.handle_line t "METRICS" in
            Server.close t;
            let rows = ok_or_fail (Dvbp_obs.Prom.parse text) in
            let value ?labels name =
              match Dvbp_obs.Prom.find rows ?labels name with
              | Some r -> r.Dvbp_obs.Prom.value
              | None -> Alcotest.failf "metric %s missing" name
            in
            let seconds = value "dvbp_recovery_seconds" in
            check_bool "finite, non-negative seconds" true
              (Float.is_finite seconds && seconds >= 0.0);
            let events source =
              value ~labels:[ ("source", source) ] "dvbp_recovery_events"
            in
            check_int "from snapshot" st.Recovery.from_snapshot
              (int_of_float (events "snapshot"));
            check_int "from journal" st.Recovery.from_journal
              (int_of_float (events "journal"));
            check_int "split" 10 st.Recovery.from_snapshot));
  ]

(* {1 State snapshots: size follows the live state; retired formats are refused} *)

(* [n] events of one tenant ending with the same live shape whatever [n]:
   item [i] arrives at time [i] and item [i - 3] departs just before it,
   so three 40,40 items are live at the end *)
let sliding_lines n =
  let arrivals = (n + 3) / 2 in
  List.concat
    (List.init arrivals (fun i ->
         (if i >= 3 then [ Printf.sprintf "DEPART %d %d" i (i - 3) ] else [])
         @ [ Printf.sprintf "ARRIVE %d %d 40,40" i i ]))

let compacting_snapshot_bytes ~dir n =
  let journal = Filename.concat dir "j.log" and snapshot = Filename.concat dir "s.snap" in
  let t =
    ok_or_fail
      (Server.create ~metrics:(Metrics.noop ())
         {
           Server.policy = "mtf";
           seed = 7;
           capacity = cap;
           journal = Some journal;
           snapshot = Some snapshot;
           snapshot_every = None;
           fsync_every = 1024;
           jobs = 1;
           segment_bytes = Some 65536;
           retain_segments = Some 1;
         })
  in
  let rec feed = function
    | [] -> ()
    | lines ->
        let chunk = List.filteri (fun i _ -> i < 1024) lines in
        Array.iter
          (fun (reply, _) ->
            if reply.[0] <> 'P' && reply.[0] <> 'O' then Alcotest.failf "refused: %s" reply)
          (Server.handle_batch t (Array.of_list chunk));
        Server.compaction_step t;
        feed (List.filteri (fun i _ -> i >= 1024) lines)
  in
  let lines = sliding_lines n in
  feed lines;
  ignore (ok_or_fail (Server.compact t));
  let fp = Session.fingerprint (Server.session t) in
  Server.close t;
  let st = ok_or_fail (Recovery.recover ~snapshot ~journal ()) in
  check_int "recovered every event" (List.length lines) st.Recovery.events;
  check_int "all from the snapshot" (List.length lines) st.Recovery.from_snapshot;
  check_string "restored state" fp (Session.fingerprint (Recovery.session st));
  let bytes = (Unix.stat snapshot).Unix.st_size in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  bytes

(* One file per retired format: the v2 snapshot is one a server wrote
   before format v3 (with the segment that continues it), the others are
   written by hand. *)
let fixture = Filename.concat "fixtures" "v2-upgrade"
let read_fixture name =
  In_channel.with_open_bin (Filename.concat fixture name) In_channel.input_all

let retired_inputs () =
  let journal magic = magic ^ "\npolicy,mtf\nseed,7\ncapacity,100,100\nbase,0\n" in
  [
    (`Snapshot, "# dvbp-snapshot v1",
     "# dvbp-snapshot v1\npolicy,mtf\nseed,7\ncapacity,100,100\nevents,0\nclock,0\n\
      cost,0\nbins_opened,0\n");
    (`Snapshot, "# dvbp-snapshot v2", read_fixture "s.snap");
    (`Journal, "# dvbp-journal v1",
     journal "# dvbp-journal v1" ^ seal "arrive,0.5,0,0,1,60,10" ^ "\n");
    (`Journal, "# dvbp-journal v2",
     journal "# dvbp-journal v2"
     ^ String.concat "" (List.map (fun e -> Journal.encode_event e ^ "\n") sample_events));
  ]

let state_snapshot_tests =
  [
    Alcotest.test_case "snapshot bytes follow the live state, not the history" `Slow
      (fun () ->
        with_tmp_dir (fun dir ->
            let small = compacting_snapshot_bytes ~dir 10_000 in
            let large = compacting_snapshot_bytes ~dir 100_000 in
            Printf.printf "v3 snapshot bytes: %d after 10k events, %d after 100k\n" small
              large;
            check_bool
              (Printf.sprintf "%d and %d bytes differ by at most 64" small large)
              true
              (abs (large - small) <= 64)));
    Alcotest.test_case "retired formats are refused, naming the format and dvbp compact"
      `Quick (fun () ->
        let refused ~what ~format = function
          | Ok _ -> Alcotest.failf "%s read a %s file" what format
          | Error msg ->
              check_bool (what ^ " names the format: " ^ msg) true (contains_sub msg format);
              check_bool (what ^ " gives the upgrade step: " ^ msg) true
                (contains_sub msg "dvbp compact");
              msg
        in
        List.iter
          (fun (kind, format, text) ->
            with_tmp_dir (fun dir ->
                let journal = Filename.concat dir "j.log"
                and snapshot = Filename.concat dir "s.snap" in
                let write path text =
                  Out_channel.with_open_bin path (fun oc -> output_string oc text)
                in
                (match kind with
                | `Snapshot ->
                    ignore
                      (refused ~what:"Snapshot.of_string" ~format (Snapshot.of_string text));
                    write snapshot text;
                    write (active_seg ~idx:1 journal) (read_fixture "j.log.000001.seg.open")
                | `Journal ->
                    write journal text;
                    ignore (refused ~what:"Journal.load" ~format (Journal.load journal));
                    (* so a resume cannot start fresh over it *)
                    check_bool "the file counts as a journal" true (Journal.exists journal));
                (* every file's name and bytes *)
                let contents () =
                  Sys.readdir dir |> Array.to_list |> List.sort compare
                  |> List.map (fun f ->
                         let path = Filename.concat dir f in
                         (f, In_channel.with_open_bin path In_channel.input_all))
                in
                let before = contents () in
                let msg =
                  refused ~what:"Recovery.load" ~format (Recovery.load ~snapshot ~journal ())
                in
                let named = match kind with `Snapshot -> snapshot | `Journal -> journal in
                check_bool ("Recovery.load names the path: " ^ msg) true
                  (contains_sub msg named);
                check_bool "no file written or removed" true (before = contents ())))
          (retired_inputs ()));
  ]

let suites =
  [
    ("service.journal", journal_tests);
    ("service.segments", segment_tests);
    ("service.snapshot", snapshot_tests);
    ("service.recovery", recovery_tests);
    ("service.server", server_tests);
    ("service.compaction", compaction_tests);
    ("service.batch", batch_tests);
    ("service.protocol", protocol_tests);
    ("service.loadgen", loadgen_tests);
    ("service.metrics", metrics_tests);
    ("service.resume", resume_tests);
    ("service.state_snapshot", state_snapshot_tests);
  ]
