(* Deterministic simulation testing of the crash–recovery path.

   Everything here runs the real service code — [Server], [Journal],
   [Snapshot], [Recovery] — over [Sim_fs], an in-memory filesystem that
   tracks synced vs. unsynced bytes and un-dirsynced directory entries and
   injects power cuts from a seeded rng:

   - sim.fs          the simulated filesystem's own fault semantics;
   - sim.sweep       exhaustive crash-point sweep: crash at *every* I/O
                     boundary x every crash mode, recover, replay the rest,
                     demand a bit-identical final state — plus a sensitivity
                     smoke proving the sweep fails when the journal's
                     torn-record guard is sabotaged, and the
                     crash-after-rename-before-dirsync regression;
   - sim.statemachine qcheck: random ARRIVE/DEPART/SNAPSHOT/crash/recover
                     schedules checked against a pure in-memory model;
   - sim.corruption  byte-flip properties for the journal record codec;
   - sim.hygiene     ".tmp" leftovers are never read and always overwritten;
   - sim.env         DVBP_SIM_BUDGET validation.

   All qcheck tests run with a fixed rng, so CI is deterministic; a failure
   prints the generated schedule (fault seed included), which reproduces the
   counterexample by itself. *)

open Dvbp_sim
module Io = Dvbp_service.Io
module Journal = Dvbp_service.Journal
module Snapshot = Dvbp_service.Snapshot
module Recovery = Dvbp_service.Recovery
module Server = Dvbp_service.Server
module Loadgen = Dvbp_service.Loadgen
module Metrics = Dvbp_service.Metrics
module Session = Dvbp_engine.Session
module Tenant = Dvbp_service.Tenant
module Uniform_model = Dvbp_workload.Uniform_model
module Vec = Dvbp_vec.Vec
module Rng = Dvbp_prelude.Rng

let v = Vec.of_list
let cap = v [ 100; 100 ]
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let ok_or_fail = function Ok x -> x | Error e -> Alcotest.fail e

(* read once, before the sim.env tests mutate the variable *)
let budget = Sim_env.budget ()

let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xD5B9 |]) t

let with_tmp_dir f =
  let dir = Filename.temp_file "dvbp_sim" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let all_modes = [ Sim_fs.Lose_unsynced; Sim_fs.Keep_unsynced; Sim_fs.Torn ]

(* ------------------------------------------------------------------ *)
(* sim.fs: the simulated filesystem's fault semantics                  *)
(* ------------------------------------------------------------------ *)

let write_file io path content =
  let o = io.Io.open_out ~append:false path in
  o.Io.write content;
  o.Io.fsync ();
  o.Io.close ();
  io.Io.fsync_dir (Filename.dirname path)

let fs_tests =
  [
    Alcotest.test_case "buffered, flushed and fsynced bytes at a power cut" `Quick
      (fun () ->
        (* three files, one per durability level *)
        let scenario mode =
          let fs = Sim_fs.create () in
          let io = Sim_fs.io fs in
          let open_at path = io.Io.open_out ~append:false path in
          let buffered = open_at "d/buffered" in
          buffered.Io.write "abc";
          let flushed = open_at "d/flushed" in
          flushed.Io.write "abc";
          flushed.Io.flush ();
          let synced = open_at "d/synced" in
          synced.Io.write "abc";
          synced.Io.fsync ();
          synced.Io.write "tail";
          synced.Io.flush ();
          io.Io.fsync_dir "d";
          Sim_fs.crash fs ~mode;
          ( Option.get (Sim_fs.contents fs "d/buffered"),
            Option.get (Sim_fs.contents fs "d/flushed"),
            Option.get (Sim_fs.contents fs "d/synced") )
        in
        let b, f, s = scenario Sim_fs.Lose_unsynced in
        check_string "lose: buffer gone" "" b;
        check_string "lose: flushed gone" "" f;
        check_string "lose: synced prefix survives" "abc" s;
        let b, f, s = scenario Sim_fs.Keep_unsynced in
        check_string "keep: buffer still gone" "" b;
        check_string "keep: flushed survives" "abc" f;
        check_string "keep: everything flushed survives" "abctail" s;
        let _, _, s = scenario Sim_fs.Torn in
        check_bool "torn: result is a prefix no shorter than the synced part"
          true
          (String.length s >= 3
          && s = String.sub "abctail" 0 (String.length s)));
    Alcotest.test_case "un-dirsynced rename rolls back; dirsynced rename holds"
      `Quick (fun () ->
        let make () =
          let fs = Sim_fs.create () in
          let io = Sim_fs.io fs in
          write_file io "d/a" "old";
          write_file io "d/a.tmp" "new";
          io.Io.rename ~src:"d/a.tmp" ~dst:"d/a";
          (fs, io)
        in
        let fs, _ = make () in
        Sim_fs.crash fs ~mode:Sim_fs.Lose_unsynced;
        check_bool "rollback restores the old destination" true
          (Sim_fs.contents fs "d/a" = Some "old");
        check_bool "rollback resurrects the tmp" true
          (Sim_fs.contents fs "d/a.tmp" = Some "new");
        let fs, _ = make () in
        Sim_fs.crash fs ~mode:Sim_fs.Keep_unsynced;
        check_bool "kept rename installs the new content" true
          (Sim_fs.contents fs "d/a" = Some "new");
        check_bool "kept rename leaves no tmp" true (not (Sim_fs.exists fs "d/a.tmp"));
        let fs, io = make () in
        io.Io.fsync_dir "d";
        Sim_fs.crash fs ~mode:Sim_fs.Lose_unsynced;
        check_bool "dirsynced rename survives even lose-unsynced" true
          (Sim_fs.contents fs "d/a" = Some "new"));
    Alcotest.test_case "un-dirsynced creation vanishes at lose-unsynced" `Quick
      (fun () ->
        let fs = Sim_fs.create () in
        let io = Sim_fs.io fs in
        let o = io.Io.open_out ~append:false "d/fresh" in
        o.Io.write "x";
        o.Io.fsync ();
        o.Io.close ();
        Sim_fs.crash fs ~mode:Sim_fs.Lose_unsynced;
        check_bool "creation rolled back" true (not (Sim_fs.exists fs "d/fresh")));
    Alcotest.test_case "plan_crash fires at the boundary; dead until reboot" `Quick
      (fun () ->
        let fs = Sim_fs.create () in
        let io = Sim_fs.io fs in
        write_file io "d/f" "hello";
        let at = Sim_fs.ops fs in
        Sim_fs.plan_crash fs ~at_op:at;
        check_bool "boundary raises Crash" true
          (try
             ignore (io.Io.open_out ~append:false "d/g");
             false
           with Sim_fs.Crash -> true);
        check_bool "reads raise too once dead" true
          (try
             ignore (io.Io.read_file "d/f");
             false
           with Sim_fs.Crash -> true);
        Sim_fs.crash fs ~mode:Sim_fs.Keep_unsynced;
        check_bool "alive again after reboot" true (io.Io.read_file "d/f" = Ok "hello");
        check_bool "the planted file never came to exist" true
          (not (Sim_fs.exists fs "d/g")));
    Alcotest.test_case "handles are invalidated by a crash" `Quick (fun () ->
        let fs = Sim_fs.create () in
        let io = Sim_fs.io fs in
        let o = io.Io.open_out ~append:false "d/f" in
        o.Io.write "x";
        Sim_fs.crash fs ~mode:Sim_fs.Keep_unsynced;
        check_bool "stale handle is a hard error" true
          (try
             o.Io.write "y";
             false
           with Failure _ -> true));
    Alcotest.test_case "atomic_replace is all-or-nothing at every boundary" `Quick
      (fun () ->
        let count =
          let fs = Sim_fs.create () in
          let io = Sim_fs.io fs in
          Io.atomic_replace io ~path:"d/f" "old";
          let before = Sim_fs.ops fs in
          Io.atomic_replace io ~path:"d/f" "new";
          Sim_fs.ops fs - before
        in
        check_bool "a replace spans several boundaries" true (count >= 5);
        for k = 0 to count - 1 do
          List.iter
            (fun mode ->
              let fs = Sim_fs.create ~seed:(100 + k) () in
              let io = Sim_fs.io fs in
              Io.atomic_replace io ~path:"d/f" "old";
              Sim_fs.plan_crash fs ~at_op:(Sim_fs.ops fs + k);
              (try Io.atomic_replace io ~path:"d/f" "new"
               with Sim_fs.Crash -> ());
              Sim_fs.crash fs ~mode;
              match Sim_fs.contents fs "d/f" with
              | Some "old" | Some "new" -> ()
              | Some other ->
                  Alcotest.failf "partial content %S at boundary %d (%s)" other k
                    (Sim_fs.mode_name mode)
              | None ->
                  Alcotest.failf "file vanished at boundary %d (%s)" k
                    (Sim_fs.mode_name mode))
            all_modes
        done);
  ]

(* ------------------------------------------------------------------ *)
(* sim.sweep: exhaustive crash-point sweep + sensitivity + dirsync     *)
(* ------------------------------------------------------------------ *)

(* Sabotage the torn-final-record guard from outside the journal: report
   every unterminated file as terminated, so a torn tail parses as a
   terminated corrupt record and recovery gives up instead of healing. The
   sweep must notice — this is the "known bug" sensitivity smoke. *)
let defeat_torn_guard io =
  {
    io with
    Io.read_file =
      (fun path ->
        match io.Io.read_file path with
        | Ok s when String.length s > 0 && s.[String.length s - 1] <> '\n' ->
            Ok (s ^ "\n")
        | r -> r);
  }

(* Simulate the backend bug satellite S1 fixed: no parent-directory fsync
   after tmp-write-then-rename, so every rename stays rollback-able. *)
let no_dirsync io = { io with Io.fsync_dir = (fun _ -> ()) }

(* The crash-after-rename-before-dirsync window, made deterministic: keep
   every journal-side op (segment creates, seal renames, truncate removes)
   but roll back the snapshot's rename. *)
let dirsync_window_mode =
  Sim_fs.Directed
    {
      keep_rename = (fun ~dst -> not (Filename.check_suffix dst ".snap"));
      keep_create = (fun ~path:_ -> true);
      keep_remove = (fun ~path:_ -> true);
      tear = (fun ~path:_ ~synced:_ ~length -> length);
    }

(* Run the canonical workload to completion (snapshots included) on a fresh
   simulated fs, returning the fs and the backend used. *)
let completed_run ~wrap n =
  let fs = Sim_fs.create ~seed:9 () in
  let io = wrap (Sim_fs.io fs) in
  let config =
    {
      Server.policy = "mtf";
      seed = 7;
      capacity = cap;
      journal = Some "sim/j.log";
      snapshot = Some "sim/s.snap";
      snapshot_every = Some 4;
      fsync_every = 2;
      jobs = 1;
      segment_bytes = None;
      retain_segments = None;
    }
  in
  let inst =
    Uniform_model.generate
      { Uniform_model.d = 2; n; mu = 10; span = 60; bin_size = 100 }
      ~rng:(Rng.create ~seed:3)
  in
  let server = ok_or_fail (Server.create ~io config) in
  List.iter (fun l -> ignore (Server.handle_line server l)) (Loadgen.script inst);
  check_bool "at least one snapshot+truncate happened" true
    ((Server.metrics server).Server.snapshots >= 1);
  Server.close server;
  (fs, io)

let sweep_tests =
  [
    Alcotest.test_case
      "every boundary x every mode recovers bit-identically (mtf)" `Slow
      (fun () ->
        let o = Sweep.run ~policy:"mtf" ~n:(10 * budget) () in
        Printf.printf "%s\n" (Sweep.render o);
        check_bool "covered at least one boundary" true (o.Sweep.boundaries > 0);
        check_bool "covered some events" true (o.Sweep.events > 0);
        check_int "scenarios = boundaries x modes" (o.Sweep.boundaries * 3)
          o.Sweep.scenarios;
        (match o.Sweep.failures with
        | [] -> ()
        | f :: _ ->
            Alcotest.failf "%d failures, first at boundary %d (%s): %s"
              (List.length o.Sweep.failures) f.Sweep.boundary f.Sweep.mode
              f.Sweep.message));
    Alcotest.test_case
      "every boundary x every mode recovers bit-identically (rf, seeded rng)"
      `Slow (fun () ->
        (* and the other policies with private state a snapshot must carry:
           Next-3 Fit's candidates, Hybrid First Fit's bin classes *)
        List.iter
          (fun policy ->
            let o = Sweep.run ~policy ~seed:23 ~n:8 () in
            Printf.printf "%s %s\n" policy (Sweep.render o);
            check_bool "covered at least one boundary" true (o.Sweep.boundaries > 0);
            check_bool (policy ^ ": no failures") true (o.Sweep.failures = []))
          [ "rf"; "nf3"; "hff" ]);
    Alcotest.test_case
      "group-commit sweep: batched, multi-tenant recovery is bit-identical"
      `Slow (fun () ->
        (* the same exhaustive crash sweep, but lines driven through
           handle_batch (group commit) with the workload spread over three
           tenants — every boundary inside append_batch's write+fsync is
           crashed too *)
        let o = Sweep.run ~batch:4 ~tenants:3 ~n:(6 * budget) () in
        Printf.printf "batched %s\n" (Sweep.render o);
        check_bool "covered at least one boundary" true (o.Sweep.boundaries > 0);
        check_bool "no failures" true (o.Sweep.failures = []));
    Alcotest.test_case
      "group-commit sweep: jobs=4 shards recover bit-identically too" `Slow
      (fun () ->
        let o = Sweep.run ~batch:4 ~tenants:3 ~jobs:4 ~n:(4 * budget) () in
        Printf.printf "sharded %s\n" (Sweep.render o);
        check_bool "no failures" true (o.Sweep.failures = []));
    Alcotest.test_case
      "segmented compaction sweep: every seal/retire boundary recovers, > 133 \
       boundaries" `Slow (fun () ->
        (* tiny segments + an aggressive retention trigger: seals, segment
           opens, snapshot writes and retires all land inside the swept
           window, and compaction interleaves with traffic exactly as the
           event loop interleaves it *)
        let o =
          Sweep.run ~segment_bytes:112 ~retain_segments:1 ~n:16 ()
        in
        Printf.printf "segmented %s\n" (Sweep.render o);
        Printf.printf "segmented sweep boundary count: %d\n%!" o.Sweep.boundaries;
        check_bool
          (Printf.sprintf "swept %d boundaries, need strictly more than 133"
             o.Sweep.boundaries)
          true
          (o.Sweep.boundaries > 133);
        (match o.Sweep.failures with
        | [] -> ()
        | f :: _ ->
            Alcotest.failf "%d failures, first at boundary %d (%s): %s"
              (List.length o.Sweep.failures) f.Sweep.boundary f.Sweep.mode
              f.Sweep.message));
    Alcotest.test_case
      "segmented group-commit sweep: compaction under batches is bit-identical"
      `Slow (fun () ->
        let o =
          Sweep.run ~segment_bytes:112 ~retain_segments:1 ~batch:4 ~tenants:2
            ~n:(8 * budget) ()
        in
        Printf.printf "segmented batched %s\n" (Sweep.render o);
        check_bool "no failures" true (o.Sweep.failures = []));
    Alcotest.test_case "sensitivity smoke: sabotaged torn-record guard is caught"
      `Slow (fun () ->
        let o = Sweep.run ~wrap:defeat_torn_guard ~n:10 () in
        Printf.printf "sabotaged %s\n" (Sweep.render o);
        check_bool "the sweep must fail when the guard is defeated" true
          (o.Sweep.failures <> []);
        check_bool "and only in the mode that tears mid-record" true
          (List.for_all (fun f -> f.Sweep.mode = "torn") o.Sweep.failures));
    Alcotest.test_case "sensitivity smoke: defeated seal-footer check is caught"
      `Slow (fun () ->
        (* With the seal invariant sabotaged — no footer, no pre-rename
           fsync, lenient sealed reads — a power cut after a seal rename
           tears records out of a "sealed" segment silently, the chain
           breaks, and (with no snapshot to fall back on) recovery cannot
           reach event 0. The sweep must demonstrably fail: a sweep that
           still passes would mean the seal check verifies nothing. *)
        Dvbp_service.Log.defeat_seal_check := true;
        Fun.protect
          ~finally:(fun () -> Dvbp_service.Log.defeat_seal_check := false)
          (fun () ->
            let o =
              Sweep.run ~segment_bytes:112 ~snapshot:false ~fsync_every:8 ~n:10 ()
            in
            Printf.printf "seal-sabotaged %s\n" (Sweep.render o);
            check_bool "the sweep must fail when the seal check is defeated" true
              (o.Sweep.failures <> [])));
    Alcotest.test_case
      "dirsync window: without the parent-dir fsync the snapshot can outrun \
       its journal" `Quick (fun () ->
        (* with the fixed backend protocol the window is closed ... *)
        let fs, io = completed_run ~wrap:(fun io -> io) 16 in
        Sim_fs.crash fs ~mode:dirsync_window_mode;
        let st =
          ok_or_fail (Recovery.recover ~io ~snapshot:"sim/s.snap" ~journal:"sim/j.log" ())
        in
        check_bool "recovery succeeds and saw the snapshot" true
          (st.Recovery.from_snapshot > 0);
        (* ... and with fsync_dir stubbed out (the pre-fix behaviour) the
           same power cut strands a truncated journal with no snapshot *)
        let fs, io = completed_run ~wrap:no_dirsync 16 in
        Sim_fs.crash fs ~mode:dirsync_window_mode;
        check_bool "the truncated journal survived" true
          (Journal.exists ~io "sim/j.log");
        check_bool "the snapshot rename was rolled back" true
          (not (Sim_fs.exists fs "sim/s.snap"));
        match Recovery.recover ~io ~snapshot:"sim/s.snap" ~journal:"sim/j.log" () with
        | Error _ -> ()
        | Ok _ ->
            Alcotest.fail
              "recovery accepted a truncated journal whose snapshot vanished");
    Alcotest.test_case
      "metrics survive crash/recovery without double-counting replayed events"
      `Quick (fun () ->
        (* Engine counters are pulled from the live session, so after a
           power cut and journal replay each recovered event is counted
           exactly once — not once at first placement plus once at replay. *)
        let fs = Sim_fs.create ~seed:5 () in
        let io = Sim_fs.io fs in
        let config =
          {
            Server.policy = "mtf";
            seed = 7;
            capacity = cap;
            journal = Some "sim/j.log";
            snapshot = None;
            snapshot_every = None;
            fsync_every = 1;
            jobs = 1;
            segment_bytes = None;
            retain_segments = None;
          }
        in
        let m1 = Metrics.create () in
        let server = ok_or_fail (Server.create ~io ~metrics:m1 config) in
        let expect line reply =
          let got, _ = Server.handle_line server line in
          check_string line reply got
        in
        expect "ARRIVE 0 0 60,10" "PLACED 0 1";
        expect "ARRIVE 1 1 50,50" "PLACED 1 1";
        expect "ARRIVE 2 2 30,20" "PLACED 1 0";
        expect "DEPART 3 0" "OK";
        (* power cut, no clean shutdown; fsync_every=1 made every record
           durable *)
        Sim_fs.crash fs ~mode:Sim_fs.Lose_unsynced;
        let st = ok_or_fail (Recovery.recover ~io ~journal:"sim/j.log" ()) in
        check_int "all four events replayed" 4 st.Recovery.from_journal;
        let m2 = Metrics.create () in
        let server = ok_or_fail (Server.resume ~io ~metrics:m2 config st) in
        let reply, _ = Server.handle_line server "ARRIVE 4 3 10,10" in
        check_string "resumed session keeps serving" "PLACED 1 0" reply;
        let rows =
          ok_or_fail (Dvbp_obs.Prom.parse (Metrics.render_text m2))
        in
        let value ?labels name =
          match Dvbp_obs.Prom.find rows ?labels name with
          | Some r -> int_of_float r.Dvbp_obs.Prom.value
          | None -> Alcotest.failf "metric %s missing" name
        in
        let engine = value ~labels:[ ("policy", "mtf") ] in
        (* 3 replayed placements + 1 new one: counted once each *)
        check_int "placements once" 4 (engine "dvbp_engine_placements_total");
        check_int "departures once" 1 (engine "dvbp_engine_departures_total");
        check_int "bins opened once" 2 (engine "dvbp_engine_bins_opened_total");
        (* the events counter carries on from genesis; per-process request
           counters start over *)
        check_int "events from genesis" 5 (value "dvbp_server_events_total");
        check_int "this process placed one" 1 (value "dvbp_server_placements_total");
        check_int "this process saw one arrive" 1
          (value ~labels:[ ("kind", "arrive") ] "dvbp_server_requests_total");
        Server.close server);
  ]

(* ------------------------------------------------------------------ *)
(* sim.statemachine: qcheck model-checked serve/crash/recover schedules *)
(* ------------------------------------------------------------------ *)

type cmd =
  | Arrive of int * int * int  (* time step, size1, size2 *)
  | Depart of int * int  (* time step, index among live items *)
  | Snap
  | Compact  (* synchronous compaction pass: snapshot + retire sealed *)
  | Crash_now of int  (* crash mode index, power cut between requests *)
  | Crash_at of int * int  (* ops ahead, crash mode index: mid-request cut *)

let mode_of_int = function
  | 0 -> Sim_fs.Lose_unsynced
  | 1 -> Sim_fs.Keep_unsynced
  | _ -> Sim_fs.Torn

let show_cmd = function
  | Arrive (dt, a, b) -> Printf.sprintf "Arrive(+%d,%dx%d)" dt a b
  | Depart (dt, i) -> Printf.sprintf "Depart(+%d,#%d)" dt i
  | Snap -> "Snapshot"
  | Compact -> "Compact"
  | Crash_now m -> Printf.sprintf "Crash_now(%s)" (Sim_fs.mode_name (mode_of_int m))
  | Crash_at (k, m) ->
      Printf.sprintf "Crash_at(+%dops,%s)" k (Sim_fs.mode_name (mode_of_int m))

let sm_journal = "sm/j.log"
let sm_snapshot = "sm/s.snap"
let sm_fsync_every = 3

(* Run one generated schedule against a server over [Sim_fs], mirroring it
   in a pure model. Crashes power-cut the fs, recovery is checked against
   the model (prefix-of-acked history, bounded loss, exact state agreement),
   then the model is rebased onto the surviving history and the schedule
   continues on a resumed server. Raises [Failure] on any mismatch.

   [batch = Some b] drives requests through {!Server.handle_batch}, [b]
   lines at a time (the group-commit path). Acks then carry a stronger
   promise — a reply is only released after the whole batch is fsynced —
   so the durability check tightens from "lose at most the fsync window"
   to "lose {e nothing} acked", under every crash mode. *)
let run_case ?batch (fs_seed, cmds) =
  let fs = Sim_fs.create ~seed:fs_seed () in
  let io = Sim_fs.io fs in
  let config =
    {
      Server.policy = "mtf";
      seed = 5;
      capacity = cap;
      journal = Some sm_journal;
      snapshot = Some sm_snapshot;
      snapshot_every = None;
      fsync_every = sm_fsync_every;
      jobs = 1;
      (* records are ~40 bytes, so segments seal every few events and the
         Compact action has sealed files to retire *)
      segment_bytes = Some 128;
      retain_segments = None;
    }
  in
  let server =
    ref (match Server.create ~io config with Ok s -> s | Error e -> failwith e)
  in
  let model = ref Ref_model.initial in
  let applied = ref [] in
  (* acked events, newest first *)
  let clock = ref 0 in
  let next_id = ref 0 in
  let pending_mode = ref Sim_fs.Lose_unsynced in
  (* request lines handed to the server whose replies have not arrived *)
  let inflight = ref [] in
  (* the first [k] events the in-flight lines apply after [acked]: what a
     recovery that kept un-acked records must hold beyond the acked ones *)
  let inflight_events lines acked k =
    let session =
      match Recovery.replay ~policy:"mtf" ~seed:5 ~capacity:cap acked with
      | Ok sessions -> List.assoc Tenant.default sessions
      | Error e -> failwith ("in-flight replay: " ^ e)
    in
    let applied =
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "ARRIVE"; t; id; sizes ] -> (
              let time = float_of_string t and item_id = int_of_string id in
              let size = Vec.of_list (List.map int_of_string (String.split_on_char ',' sizes)) in
              match Session.arrive session ~at:time ~id:item_id ~size () with
              | p ->
                  Some
                    (Journal.Arrive
                       { tenant = Tenant.default; time; item_id; size;
                         bin_id = p.Session.bin_id;
                         opened_new_bin = p.Session.opened_new_bin })
              | exception Session.Session_error _ -> None)
          | [ "DEPART"; t; id ] -> (
              let time = float_of_string t and item_id = int_of_string id in
              match Session.depart session ~at:time ~item_id with
              | () -> Some (Journal.Depart { tenant = Tenant.default; time; item_id })
              | exception Session.Session_error _ -> None)
          | _ -> None)
        lines
    in
    if List.length applied < k then
      failwith
        (Printf.sprintf "recovered %d un-acked events, but the in-flight lines apply %d" k
           (List.length applied));
    List.filteri (fun i _ -> i < k) applied
  in
  let live_items () =
    List.concat_map snd (Ref_model.find !model Tenant.default).Ref_model.open_bins
  in
  let recover_after mode =
    Sim_fs.crash fs ~mode;
    (* also clears any planted-but-unfired crash *)
    let lines = !inflight in
    inflight := [];
    let acked = List.rev !applied in
    let la = List.length acked in
    if not (Journal.exists ~io sm_journal) then begin
      (* only reachable while the journal's genesis creation is still
         un-dirsynced: nothing durable ever existed, start over *)
      io.Io.remove sm_snapshot;
      (match Server.create ~io config with
      | Ok s -> server := s
      | Error e -> failwith ("fresh restart: " ^ e));
      model := Ref_model.initial;
      applied := []
    end
    else
      match Recovery.recover ~io ~snapshot:sm_snapshot ~journal:sm_journal () with
      | Error e -> failwith ("recovery failed: " ^ e)
      | Ok st ->
          let lh = st.Recovery.events in
          (* durability: what survived is a prefix of what was attempted —
             the acked events plus un-acked in-flight records (at most one
             on the streaming path; up to a whole unreleased batch on the
             group-commit path). The recovered state is checked against
             the model of that prefix below. *)
          let slack = match batch with Some b -> b | None -> 1 in
          if lh > la + slack then
            failwith (Printf.sprintf "recovered %d events but only %d were acked" lh la);
          let history =
            if lh <= la then List.filteri (fun i _ -> i < lh) acked
            else acked @ inflight_events lines acked (lh - la)
          in
          (match batch with
          | Some _ ->
              (* batch-ack invariant: a group-commit reply is released only
                 after its fsync, so no crash mode may lose an acked event *)
              if lh < la then
                failwith
                  (Printf.sprintf "group commit lost %d acked events" (la - lh))
          | None ->
              if lh < la && la - lh > sm_fsync_every then
                failwith
                  (Printf.sprintf
                     "lost %d acked events, more than the fsync window of %d"
                     (la - lh) sm_fsync_every);
              (match mode with
              | Sim_fs.Keep_unsynced ->
                  if lh < la then
                    failwith "keep-unsynced crash lost an acked (flushed) event"
              | _ -> ()));
          let m = Ref_model.of_events history in
          (match Ref_model.agrees_with m st.Recovery.sessions with
          | Ok () -> ()
          | Error e -> failwith ("recovered session: " ^ e));
          (match Server.resume ~io config st with
          | Ok s -> server := s
          | Error e -> failwith ("resume: " ^ e));
          model := m;
          applied := List.rev history
  in
  (* group-commit driver: queue lines and submit them [b] at a time; a
     crash mid-batch releases no replies, so the whole in-flight batch
     goes un-acked (its events may still have reached the journal — the
     recovery slack above) *)
  let pending_batch = Queue.create () in
  let flush_batch () =
    if not (Queue.is_empty pending_batch) then begin
      let items = Array.of_seq (Queue.to_seq pending_batch) in
      Queue.clear pending_batch;
      inflight := Array.to_list (Array.map fst items);
      match Server.handle_batch !server (Array.map fst items) with
      | replies ->
          inflight := [];
          Array.iteri (fun i (reply, _quit) -> snd items.(i) reply) replies
      | exception Sim_fs.Crash -> recover_after !pending_mode
    end
  in
  let exec line on_reply =
    match batch with
    | Some b ->
        Queue.add (line, on_reply) pending_batch;
        if Queue.length pending_batch >= b then flush_batch ()
    | None -> (
        inflight := [ line ];
        match Server.handle_line !server line with
        | reply, _quit ->
            inflight := [];
            on_reply reply
        | exception Sim_fs.Crash -> recover_after !pending_mode)
  in
  List.iter
    (fun cmd ->
      match cmd with
      | Arrive (dt, s1, s2) ->
          clock := !clock + dt;
          let t = !clock in
          let id = !next_id in
          incr next_id;
          exec
            (Printf.sprintf "ARRIVE %d %d %d,%d" t id s1 s2)
            (fun reply ->
              match String.split_on_char ' ' reply with
              | [ "PLACED"; b; o ] ->
                  let e =
                    Journal.Arrive
                      {
                        tenant = Tenant.default;
                        time = float_of_int t;
                        item_id = id;
                        size = v [ s1; s2 ];
                        bin_id = int_of_string b;
                        opened_new_bin = o = "1";
                      }
                  in
                  model := Ref_model.apply !model e;
                  applied := e :: !applied
              | _ -> failwith ("unexpected reply to ARRIVE: " ^ reply))
      | Depart (dt, idx) -> (
          clock := !clock + dt;
          let t = !clock in
          match live_items () with
          | [] ->
              (* no live item: a bogus departure must be an ERR, not an event *)
              exec
                (Printf.sprintf "DEPART %d %d" t 999_999)
                (fun reply ->
                  if String.length reply < 3 || String.sub reply 0 3 <> "ERR" then
                    failwith ("expected ERR for a bogus DEPART, got " ^ reply))
          | live ->
              let id = List.nth live (idx mod List.length live) in
              exec
                (Printf.sprintf "DEPART %d %d" t id)
                (fun reply ->
                  if reply = "OK" then begin
                    let e =
                      Journal.Depart
                        { tenant = Tenant.default; time = float_of_int t; item_id = id }
                    in
                    model := Ref_model.apply !model e;
                    applied := e :: !applied
                  end
                  else if
                    (* batch mode picks the victim before earlier queued
                       lines apply: a double departure inside one batch is
                       refused, which is itself the isolation contract *)
                    not
                      (batch <> None
                      && (String.length reply >= 3 && String.sub reply 0 3 = "ERR"))
                  then failwith ("unexpected reply to DEPART: " ^ reply)))
      | Snap ->
          exec "SNAPSHOT" (fun reply ->
              if String.length reply < 2 || String.sub reply 0 2 <> "OK" then
                failwith ("unexpected reply to SNAPSHOT: " ^ reply))
      | Compact -> (
          (* not a protocol line: drain queued requests first so the
             snapshot covers everything acked, then run a whole pass *)
          flush_batch ();
          match Server.compact !server with
          | Ok _ -> ()
          | Error e -> failwith ("compact: " ^ e)
          | exception Sim_fs.Crash -> recover_after !pending_mode)
      | Crash_now m ->
          flush_batch ();
          recover_after (mode_of_int m)
      | Crash_at (ahead, m) ->
          pending_mode := mode_of_int m;
          Sim_fs.plan_crash fs ~at_op:(Sim_fs.ops fs + ahead))
    cmds;
  flush_batch ();
  (* defuse any unfired planted crash, then check the live session *)
  Sim_fs.plan_crash fs ~at_op:max_int;
  (match Ref_model.agrees_with !model (Server.sessions !server) with
  | Ok () -> ()
  | Error e -> failwith ("live session: " ^ e));
  (* end with one more power cut: the final state must recover too *)
  recover_after Sim_fs.Torn;
  Server.close !server;
  true

let sm_gen =
  QCheck2.Gen.(
    let* fs_seed = 0 -- 9999 in
    let* n = 5 -- 40 in
    let* cmds =
      list_repeat n
        (frequency
           [
             ( 6,
               let* dt = 1 -- 3 in
               let* s1 = 1 -- 60 in
               let* s2 = 1 -- 60 in
               return (Arrive (dt, s1, s2)) );
             ( 3,
               let* dt = 1 -- 3 in
               let* idx = 0 -- 7 in
               return (Depart (dt, idx)) );
             (1, return Snap);
             (1, return Compact);
             ( 1,
               let* m = 0 -- 2 in
               return (Crash_now m) );
             ( 1,
               let* m = 0 -- 2 in
               let* ahead = 1 -- 30 in
               return (Crash_at (ahead, m)) );
           ])
    in
    return (fs_seed, cmds))

let sm_print (fs_seed, cmds) =
  Printf.sprintf "fs_seed=%d schedule=[%s]" fs_seed
    (String.concat "; " (List.map show_cmd cmds))

let prop_state_machine =
  QCheck2.Test.make
    ~name:"random serve/crash/recover schedules agree with the pure model"
    ~count:(200 * budget) ~print:sm_print sm_gen
    (fun case -> run_case case)

let sm_batch_gen =
  QCheck2.Gen.(
    let* b = 2 -- 7 in
    let* case = sm_gen in
    return (b, case))

let prop_state_machine_batch =
  QCheck2.Test.make
    ~name:"group-commit schedules: every batch-acked event survives any crash"
    ~count:(120 * budget)
    ~print:(fun (b, case) -> Printf.sprintf "batch=%d %s" b (sm_print case))
    sm_batch_gen
    (fun (b, case) -> run_case ~batch:b case)

let statemachine_tests = [ qcheck prop_state_machine; qcheck prop_state_machine_batch ]

(* ------------------------------------------------------------------ *)
(* sim.corruption: the record codec rejects single-byte corruption     *)
(* ------------------------------------------------------------------ *)

let event_gen =
  QCheck2.Gen.(
    let* half_t = 0 -- 80 in
    let time = float_of_int half_t /. 2.0 in
    let* id = 0 -- 50 in
    let* tenant = oneofl [ Tenant.default; "t1"; "acme-2"; "a.b_c" ] in
    let* is_arrive = bool in
    if is_arrive then
      let* d = 1 -- 3 in
      let* sizes = list_repeat d (1 -- 100) in
      let* bin_id = 0 -- 20 in
      let* opened_new_bin = bool in
      return
        (Journal.Arrive
           { tenant; time; item_id = id; size = v sizes; bin_id; opened_new_bin })
    else return (Journal.Depart { tenant; time; item_id = id }))

(* The checksum field is parsed case-insensitively ("0x" prefix hex), so a
   flip inside it can yield a cosmetically different record that decodes to
   the *same* event — harmless. What must never happen is decoding to a
   different event: the 16-bit rolling checksum has odd byte weights, so any
   single-byte change of the body is detected unconditionally. *)
let prop_byte_flip =
  QCheck2.Test.make
    ~name:"a flipped byte is rejected (or decodes to the identical event)"
    ~count:(400 * budget)
    QCheck2.Gen.(triple event_gen (0 -- 10_000) (1 -- 255))
    (fun (e, pos, mask) ->
      let line = Journal.encode_event e in
      let pos = pos mod String.length line in
      let b = Bytes.of_string line in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
      match Journal.decode_event (Bytes.to_string b) with
      | Error _ -> true
      | Ok e' -> Journal.equal_event e e')

let corruption_tests =
  [
    qcheck prop_byte_flip;
    Alcotest.test_case
      "terminated corrupt record stays a hard error under the sim backend"
      `Quick (fun () ->
        let fs = Sim_fs.create () in
        let io = Sim_fs.io fs in
        let header = { Journal.policy = "mtf"; seed = 1; capacity = cap; base = 0 } in
        let w = Journal.create ~io ~path:"sim/j.log" header in
        Journal.append w
          (Journal.Arrive
             { tenant = Tenant.default; time = 0.0; item_id = 0;
               size = v [ 30; 20 ]; bin_id = 0; opened_new_bin = true });
        Journal.append w
          (Journal.Depart { tenant = Tenant.default; time = 2.0; item_id = 0 });
        Journal.close w;
        (* the records live in the active segment — the file the torn-tail
           heuristics apply to *)
        let seg0 = "sim/j.log.000000.seg.open" in
        let content = Option.get (Sim_fs.contents fs seg0) in
        let len = String.length content in
        check_bool "journal is newline-terminated" true (content.[len - 1] = '\n');
        (* flip the last body byte of the final record, keep the terminator:
           a terminated corrupt line must be a hard error, not healed *)
        let b = Bytes.of_string content in
        let pos = len - 8 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
        write_file io seg0 (Bytes.to_string b);
        (match Journal.read_file ~io "sim/j.log" with
        | Error e ->
            check_bool "error names the checksum" true
              (String.length e > 0)
        | Ok _ -> Alcotest.fail "terminated corrupt record was accepted");
        (* whereas the same corruption *unterminated* is a torn tail: healed
           by dropping the final record *)
        write_file io seg0 (String.sub content 0 (len - 5));
        let r = ok_or_fail (Journal.read_file ~io "sim/j.log") in
        check_bool "torn tail dropped" true r.Journal.dropped_torn;
        check_int "only the intact record survives" 1 (List.length r.Journal.events));
    Alcotest.test_case
      "a sealed segment never heals: torn tail inside it is a hard error"
      `Quick (fun () ->
        (* Build a journal whose tiny segment size forces at least one
           seal, then truncate bytes off a *sealed* file. The active
           segment's healing heuristics must not apply: content fsynced
           before the seal rename means a short sealed file is corruption,
           and reading has to fail loudly. *)
        let fs = Sim_fs.create () in
        let io = Sim_fs.io fs in
        let header = { Journal.policy = "mtf"; seed = 1; capacity = cap; base = 0 } in
        let w = Journal.create ~io ~segment_bytes:64 ~path:"sim/j.log" header in
        for i = 0 to 3 do
          Journal.append w
            (Journal.Arrive
               { tenant = Tenant.default; time = float_of_int i; item_id = i;
                 size = v [ 10; 10 ]; bin_id = 0; opened_new_bin = (i = 0) })
        done;
        Journal.close w;
        check_bool "at least one segment sealed" true (Journal.sealed_segments w >= 1);
        let sealed = "sim/j.log.000000.seg" in
        let content = Option.get (Sim_fs.contents fs sealed) in
        ignore (ok_or_fail (Journal.read_file ~io "sim/j.log"));
        (* drop the footer line: complete records, missing seal *)
        let no_footer =
          let cut = String.rindex_from content (String.length content - 2) '\n' in
          String.sub content 0 (cut + 1)
        in
        write_file io sealed no_footer;
        (match Journal.read_file ~io "sim/j.log" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "sealed segment without its footer was accepted");
        (* tear mid-record: must also be a hard error, never healed *)
        write_file io sealed (String.sub content 0 (String.length content - 9));
        (match Journal.read_file ~io "sim/j.log" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "torn sealed segment was healed"));
  ]

(* ------------------------------------------------------------------ *)
(* sim.hygiene: ".tmp" leftovers                                       *)
(* ------------------------------------------------------------------ *)

let hygiene_tests =
  [
    Alcotest.test_case "a completed run leaves no .tmp files (sim backend)"
      `Quick (fun () ->
        let fs, _ = completed_run ~wrap:(fun io -> io) 16 in
        List.iter
          (fun (path, _) ->
            check_bool (path ^ " is not a leftover tmp") false
              (Filename.check_suffix path ".tmp"))
          (Sim_fs.dump fs));
    Alcotest.test_case "Snapshot.write leaves no .tmp file (real backend)"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "s.snap" in
            let session = Dvbp_engine.Session.create ~capacity:cap
                ~policy:(ok_or_fail (Dvbp_core.Policy.of_name
                                        ~rng:(Rng.create ~seed:1) "mtf")) () in
            let snap =
              Snapshot.of_sessions ~policy:"mtf" ~seed:1 ~capacity:cap ~events:0 ~last:None
                [ (Tenant.default, session) ]
            in
            Snapshot.write ~path snap;
            check_bool "snapshot written" true (Sys.file_exists path);
            check_bool "no tmp leftover" false (Sys.file_exists (path ^ ".tmp"))));
    Alcotest.test_case
      "stale .tmp files from an earlier crash are overwritten, never read"
      `Quick (fun () ->
        (* a completed run, then garbage tmps appear (as a crash between
           tmp-write and rename would leave them) *)
        let fs, io = completed_run ~wrap:(fun io -> io) 16 in
        let before =
          ok_or_fail (Recovery.recover ~io ~snapshot:"sim/s.snap" ~journal:"sim/j.log" ())
        in
        write_file io "sim/s.snap.tmp" "GARBAGE";
        write_file io "sim/j.log.tmp" "GARBAGE";
        let after =
          ok_or_fail (Recovery.recover ~io ~snapshot:"sim/s.snap" ~journal:"sim/j.log" ())
        in
        check_int "recovery never reads the tmps: same history"
          before.Recovery.events after.Recovery.events;
        check_string "same recovered state"
          (Session.fingerprint (Recovery.session before))
          (Session.fingerprint (Recovery.session after));
        (* resume serving and snapshot again: the stale tmps are overwritten
           harmlessly and renamed away *)
        let server = ok_or_fail (Server.resume ~io
          { Server.policy = "mtf"; seed = 7; capacity = cap;
            journal = Some "sim/j.log"; snapshot = Some "sim/s.snap";
            snapshot_every = Some 4; fsync_every = 2; jobs = 1;
            segment_bytes = None; retain_segments = None } after) in
        let reply, _ = Server.handle_line server "SNAPSHOT" in
        check_bool "snapshot succeeds over stale tmps" true
          (String.length reply >= 2 && String.sub reply 0 2 = "OK");
        Server.close server;
        check_bool "stale snapshot tmp is gone" true
          (Sim_fs.contents fs "sim/s.snap.tmp" <> Some "GARBAGE");
        (* the stray journal tmp is inert under the segmented layout: it is
           never classified as a segment, so the chain reads clean past it *)
        let r = ok_or_fail (Journal.read_file ~io "sim/j.log") in
        check_int "journal chain unaffected by the stray tmp" 0
          (List.length r.Journal.events));
  ]

(* ------------------------------------------------------------------ *)
(* sim.env: DVBP_SIM_BUDGET validation                                 *)
(* ------------------------------------------------------------------ *)

let env_tests =
  [
    Alcotest.test_case "DVBP_SIM_BUDGET parses like DVBP_JOBS" `Quick (fun () ->
        check_int "plain integer" 4 (Sim_env.parse "4");
        check_int "whitespace tolerated" 2 (Sim_env.parse " 2 ");
        List.iter
          (fun bad ->
            check_bool (Printf.sprintf "%S rejected" bad) true
              (try
                 ignore (Sim_env.parse bad);
                 false
               with Invalid_argument _ -> true))
          [ "0"; "-3"; "1.5"; "many"; "" ]);
    Alcotest.test_case "budget reads the environment, defaulting to 1" `Quick
      (fun () ->
        let original = Sys.getenv_opt Sim_env.var in
        Fun.protect
          ~finally:(fun () ->
            (* putenv cannot unset: leave a valid value behind *)
            Unix.putenv Sim_env.var (Option.value original ~default:"1"))
          (fun () ->
            Unix.putenv Sim_env.var "3";
            check_int "set to 3" 3 (Sim_env.budget ());
            Unix.putenv Sim_env.var "nope";
            check_bool "invalid value is loud" true
              (try
                 ignore (Sim_env.budget ());
                 false
               with Invalid_argument _ -> true)));
  ]

let suites =
  [
    ("sim.fs", fs_tests);
    ("sim.sweep", sweep_tests);
    ("sim.statemachine", statemachine_tests);
    ("sim.corruption", corruption_tests);
    ("sim.hygiene", hygiene_tests);
    ("sim.env", env_tests);
  ]
