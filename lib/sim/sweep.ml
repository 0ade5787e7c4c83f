module Rng = Dvbp_prelude.Rng
module Io = Dvbp_service.Io
module Journal = Dvbp_service.Journal
module Recovery = Dvbp_service.Recovery
module Server = Dvbp_service.Server
module Metrics = Dvbp_service.Metrics
module Loadgen = Dvbp_service.Loadgen
module Session = Dvbp_engine.Session
module Uniform_model = Dvbp_workload.Uniform_model

type failure = { boundary : int; mode : string; message : string }

type outcome = {
  boundaries : int;
  scenarios : int;
  events : int;
  failures : failure list;
}

let journal_path = "sim/j.log"
let snapshot_path = "sim/s.snap"
let modes = [ Sim_fs.Lose_unsynced; Sim_fs.Keep_unsynced; Sim_fs.Torn ]

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let rec take n l =
  if n <= 0 then [] else match l with [] -> [] | x :: tl -> x :: take (n - 1) tl

let check_applied line reply quit =
  if quit then failwith "unexpected QUIT reply";
  match reply.[0] with
  | 'P' | 'O' -> ()
  | _ -> failwith (Printf.sprintf "request %S refused: %s" line reply)

(* Drive one protocol line and insist it was applied: the canonical workload
   is all-accepting, so a REJECT/ERR anywhere means the recovered session
   diverged from the uninterrupted one. *)
let apply_line server line =
  let reply, quit = Server.handle_line server line in
  check_applied line reply quit

(* Drive the whole script. [batch = Some b] exercises the group-commit path
   ({!Server.handle_batch}, [b] lines per call); [None] the streaming one.
   [check] is off while a planned crash is pending (replies then never
   arrive — the run dies mid-script by design). [tick] runs after every
   line (or chunk) — the compaction sweeps pass {!Server.compaction_step}
   so segment retirement interleaves with traffic exactly as the event
   loop interleaves it, and its I/O boundaries are swept like any other. *)
let apply_all ?batch ~check ~tick server lines =
  match batch with
  | None ->
      List.iter
        (fun line ->
          if check then apply_line server line
          else ignore (Server.handle_line server line);
          tick server)
        lines
  | Some b ->
      let rec go = function
        | [] -> ()
        | lines ->
            let chunk = take b lines in
            let arr = Array.of_list chunk in
            let replies = Server.handle_batch server arr in
            if check then
              Array.iteri
                (fun i (reply, quit) -> check_applied arr.(i) reply quit)
                replies;
            tick server;
            go (drop b lines)
      in
      go lines

(* All tenant sessions folded into one comparable string (sorted by tenant
   so first-appearance order can't mask or fake a divergence). *)
let fingerprint_server server =
  Server.sessions server
  |> List.map (fun (tn, s) -> tn ^ "=" ^ Session.fingerprint s)
  |> List.sort String.compare
  |> String.concat ";"

(* [tenants > 1] round-robins the script across [t0..t{tenants-1}] with the
   tenant-prefixed grammar — every tenant runs the same item schedule in
   its own isolated session. [tenants = 1] keeps the un-prefixed grammar
   (the pre-tenant sweep, byte-for-byte). *)
let make_lines ~tenants inst =
  let base = Loadgen.script inst in
  if tenants <= 1 then base
  else
    let prefixed tn =
      List.map
        (fun line ->
          match String.index_opt line ' ' with
          | Some sp ->
              String.sub line 0 sp
              ^ Printf.sprintf " t%d" tn
              ^ String.sub line sp (String.length line - sp)
          | None -> line)
        base
    in
    let scripts = List.init tenants prefixed in
    let rec interleave acc scripts =
      if List.for_all (( = ) []) scripts then List.rev acc
      else
        let heads, tails =
          List.fold_right
            (fun s (hs, ts) ->
              match s with [] -> (hs, [] :: ts) | h :: t -> (h :: hs, t :: ts))
            scripts ([], [])
        in
        interleave (List.rev_append heads acc) tails
    in
    interleave [] scripts

let run ?(policy = "mtf") ?(seed = 11) ?(n = 12) ?(fsync_every = 3)
    ?(snapshot_every = 5) ?(snapshot = true) ?segment_bytes ?retain_segments
    ?(wrap = fun io -> io) ?batch ?(tenants = 1) ?(jobs = 1) () =
  let params = { Uniform_model.d = 2; n; mu = 10; span = 60; bin_size = 100 } in
  let inst = Uniform_model.generate params ~rng:(Rng.create ~seed:(seed + 1)) in
  let lines = make_lines ~tenants inst in
  let config =
    {
      Server.policy;
      seed;
      capacity = Uniform_model.capacity params;
      journal = Some journal_path;
      snapshot = (if snapshot then Some snapshot_path else None);
      (* with compaction armed, snapshots come from the compaction pass —
         the truncate-everything auto-snapshot would retire every sealed
         segment out from under it *)
      snapshot_every =
        (if snapshot && retain_segments = None then Some snapshot_every else None);
      fsync_every;
      jobs;
      segment_bytes;
      retain_segments;
    }
  in
  (* with a retention trigger configured, step compaction after every
     line/chunk — the event loop's once-per-tick cadence *)
  let tick =
    match retain_segments with
    | None -> fun _ -> ()
    | Some _ -> fun server -> Server.compaction_step server
  in
  (* Uninterrupted run: fixes the boundary count, the event count, and
     the reference final state. Alongside it, a journal-less reference
     server fed one line at a time records the fingerprints after every
     event: [fps.(m)] is the state any recovery of [m] events must
     reproduce (per-tenant packings do not depend on batching or
     sharding). *)
  let fs0 = Sim_fs.create ~seed () in
  let io0 = wrap (Sim_fs.io fs0) in
  let server =
    match Server.create ~io:io0 ~metrics:(Metrics.noop ()) config with
    | Ok s -> s
    | Error e -> failwith ("sweep baseline: " ^ e)
  in
  apply_all ?batch ~check:true ~tick server lines;
  let baseline_fp = fingerprint_server server in
  Server.close server;
  let boundaries = Sim_fs.ops fs0 in
  let events =
    match Recovery.recover ~io:io0 ~snapshot:snapshot_path ~journal:journal_path () with
    | Ok st -> st.Recovery.events
    | Error e -> failwith ("sweep baseline recovery: " ^ e)
  in
  if List.length lines <> events then
    failwith "sweep baseline: not every request became a journaled event";
  let fps =
    let reference =
      match
        Server.create ~metrics:(Metrics.noop ())
          { config with journal = None; snapshot = None; snapshot_every = None;
                        segment_bytes = None; retain_segments = None }
      with
      | Ok s -> s
      | Error e -> failwith ("sweep reference: " ^ e)
    in
    let fp0 = fingerprint_server reference in
    let after =
      List.map
        (fun line ->
          apply_line reference line;
          fingerprint_server reference)
        lines
    in
    Server.close reference;
    Array.of_list (fp0 :: after)
  in
  (* One scenario: crash at boundary [k], power-cut with [mode], recover,
     replay the rest of the workload, compare final fingerprints. *)
  let scenario k mode_idx mode =
    let fs = Sim_fs.create ~seed:(seed + (1000 * (k + 1)) + mode_idx) () in
    let io = wrap (Sim_fs.io fs) in
    Sim_fs.plan_crash fs ~at_op:k;
    (try
       match Server.create ~io ~metrics:(Metrics.noop ()) config with
       | Error e -> failwith ("server create: " ^ e)
       | Ok server ->
           apply_all ?batch ~check:false ~tick server lines;
           Server.close server;
           failwith "planned crash never fired"
     with Sim_fs.Crash -> ());
    Sim_fs.crash fs ~mode;
    let resumed, recovered_events =
      match Recovery.load ~io ~snapshot:snapshot_path ~journal:journal_path () with
      | Error e -> failwith ("recovery: " ^ e)
      | Ok (Some st) -> (
          let m = st.Recovery.events in
          if m > events then
            failwith (Printf.sprintf "recovered %d events of a %d-event run" m events);
          match Server.resume ~io ~metrics:(Metrics.noop ()) config st with
          | Error e -> failwith ("resume: " ^ e)
          | Ok s ->
              let fp = fingerprint_server s in
              if fp <> fps.(m) then
                failwith
                  (Printf.sprintf
                     "recovered state after %d events differs from the baseline's:\n\
                     \  recovered: %s\n  baseline: %s"
                     m fp fps.(m));
              (s, m))
      | Ok None -> (
          (* the journal's creation itself was rolled back: no durable state
             ever existed, so the operator starts from scratch *)
          match Server.create ~io ~metrics:(Metrics.noop ()) config with
          | Ok s -> (s, 0)
          | Error e -> failwith ("fresh restart: " ^ e))
    in
    apply_all ?batch ~check:true ~tick resumed (drop recovered_events lines);
    let fp = fingerprint_server resumed in
    Server.close resumed;
    if fp <> baseline_fp then
      failwith
        (Printf.sprintf "final state diverged after %d recovered events:\n  crashed: %s\n  baseline: %s"
           recovered_events fp baseline_fp)
  in
  let failures = ref [] in
  for k = 0 to boundaries - 1 do
    List.iteri
      (fun mode_idx mode ->
        try scenario k mode_idx mode with
        | Failure message ->
            failures := { boundary = k; mode = Sim_fs.mode_name mode; message } :: !failures
        | e ->
            failures :=
              { boundary = k; mode = Sim_fs.mode_name mode; message = Printexc.to_string e }
              :: !failures)
      modes
  done;
  {
    boundaries;
    scenarios = boundaries * List.length modes;
    events;
    failures = List.rev !failures;
  }

let render o =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "crash-point sweep: %d boundaries x %d modes = %d scenarios over %d events: %s"
       o.boundaries (List.length modes) o.scenarios o.events
       (if o.failures = [] then "all recovered bit-identically"
        else Printf.sprintf "%d FAILURES" (List.length o.failures)));
  List.iteri
    (fun i f ->
      if i < 5 then
        Buffer.add_string b
          (Printf.sprintf "\n  boundary %d, mode %s: %s" f.boundary f.mode f.message))
    o.failures;
  if List.length o.failures > 5 then
    Buffer.add_string b (Printf.sprintf "\n  ... and %d more" (List.length o.failures - 5));
  Buffer.contents b
