(* Tests for the incremental (truly online) session API, including its
   equivalence with the batch engine and its failure modes. *)

open Dvbp_core
open Dvbp_engine
module Vec = Dvbp_vec.Vec
module Rng = Dvbp_prelude.Rng
module Uniform_model = Dvbp_workload.Uniform_model

let v = Vec.of_list
let cap = v [ 100 ]
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let fresh ?(history = false) ?(policy = Policy.first_fit ()) () =
  Session.create ~history ~capacity:cap ~policy ()

let raises_session f =
  try ignore (f ()); false with Session.Session_error _ -> true

let lifecycle_tests =
  [
    Alcotest.test_case "arrive, depart, cost flow" `Quick (fun () ->
        let s = fresh () in
        let p0 = Session.arrive s ~at:0.0 ~size:(v [ 60 ]) () in
        check_bool "opened" true p0.Session.opened_new_bin;
        check_int "bin 0" 0 p0.Session.bin_id;
        let p1 = Session.arrive s ~at:1.0 ~size:(v [ 30 ]) () in
        check_bool "reused" false p1.Session.opened_new_bin;
        check_int "active" 2 (Session.active_items s);
        check_float "cost at 1" 1.0 (Session.cost_so_far s);
        Session.depart s ~at:3.0 ~item_id:p0.Session.item_id;
        check_int "still open for item 1" 1 (List.length (Session.open_bins s));
        Session.depart s ~at:5.0 ~item_id:p1.Session.item_id;
        check_int "all closed" 0 (List.length (Session.open_bins s));
        check_float "final cost" 5.0 (Session.cost_so_far s));
    Alcotest.test_case "max_open_bins tracks the peak across closes" `Quick
      (fun () ->
        let s = fresh () in
        (* three single-occupant bins open simultaneously: peak 3 *)
        let ps =
          List.map (fun at -> Session.arrive s ~at ~size:(v [ 60 ]) ())
            [ 0.0; 1.0; 2.0 ]
        in
        check_int "peak at 3" 3 (Session.max_open_bins s);
        List.iter
          (fun (p : Session.placement) ->
            Session.depart s ~at:3.0 ~item_id:p.Session.item_id)
          ps;
        (* reopening fewer bins must not move the recorded peak *)
        let p = Session.arrive s ~at:4.0 ~size:(v [ 60 ]) () in
        let _ = Session.arrive s ~at:5.0 ~size:(v [ 60 ]) () in
        check_int "peak unchanged" 3 (Session.max_open_bins s);
        Session.depart s ~at:6.0 ~item_id:p.Session.item_id;
        check_int "still the historic peak" 3 (Session.max_open_bins s));
    Alcotest.test_case "record_trace:false skips the trace, nothing else" `Quick
      (fun () ->
        let run record_trace =
          let s =
            Session.create ~record_trace ~history:true ~capacity:cap
              ~policy:(Policy.first_fit ()) ()
          in
          let a = Session.arrive s ~at:0.0 ~size:(v [ 60 ]) () in
          let _ = Session.arrive s ~at:1.0 ~size:(v [ 60 ]) () in
          Session.depart s ~at:2.0 ~item_id:a.Session.item_id;
          let events = List.length (Trace.events (Session.trace s)) in
          let packing = Session.finish s ~at:3.0 in
          (events, Packing.cost packing, Session.bins_opened s)
        in
        let events_on, cost_on, bins_on = run true in
        let events_off, cost_off, bins_off = run false in
        check_bool "trace recorded" true (events_on > 0);
        check_int "trace suppressed" 0 events_off;
        check_float "same cost" cost_on cost_off;
        check_int "same bins" bins_on bins_off);
    Alcotest.test_case "cost_so_far bills open bins to now" `Quick (fun () ->
        let s = fresh () in
        let _ = Session.arrive s ~at:0.0 ~size:(v [ 60 ]) () in
        let _ = Session.arrive s ~at:2.0 ~size:(v [ 60 ]) () in
        (* two bins open since 0 and 2; at t=2 the bill is 2 + 0 *)
        check_float "cost" 2.0 (Session.cost_so_far s));
    Alcotest.test_case "finish departs leftovers and returns a valid packing"
      `Quick (fun () ->
        let s = fresh ~history:true () in
        let _ = Session.arrive s ~at:0.0 ~size:(v [ 60 ]) () in
        let p1 = Session.arrive s ~at:1.0 ~size:(v [ 60 ]) () in
        Session.depart s ~at:2.0 ~item_id:p1.Session.item_id;
        let packing = Session.finish s ~at:4.0 in
        check_int "bins" 2 (Packing.num_bins packing);
        check_float "cost" (4.0 +. 1.0) (Packing.cost packing));
    Alcotest.test_case "session equals batch engine on a real workload" `Quick
      (fun () ->
        let params =
          { Uniform_model.d = 2; n = 120; mu = 8; span = 60; bin_size = 20 }
        in
        let instance = Uniform_model.generate params ~rng:(Rng.create ~seed:5) in
        let batch = Engine.run ~policy:(Policy.move_to_front ()) instance in
        (* replay the same instance through the session by hand *)
        let session =
          Session.create ~history:true ~capacity:instance.Instance.capacity
            ~policy:(Policy.move_to_front ()) ()
        in
        let events =
          List.concat_map
            (fun (r : Item.t) ->
              [ (r.Item.departure, 0, r); (r.Item.arrival, 1, r) ])
            instance.Instance.items
          |> List.sort (fun (ta, ka, ra) (tb, kb, rb) ->
                 compare (ta, ka, ra.Item.id) (tb, kb, rb.Item.id))
        in
        List.iter
          (fun (_, kind, (r : Item.t)) ->
            if kind = 1 then
              ignore
                (Session.arrive session ~at:r.Item.arrival ~id:r.Item.id
                   ~size:r.Item.size ())
            else Session.depart session ~at:r.Item.departure ~item_id:r.Item.id)
          events;
        let packing = Session.finish session ~at:(Session.now session) in
        check_float "same cost" (Packing.cost batch.Engine.packing)
          (Packing.cost packing);
        check_int "same bins" (Packing.num_bins batch.Engine.packing)
          (Packing.num_bins packing);
        match Packing.validate instance packing with
        | Ok () -> ()
        | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es));
    Alcotest.test_case "auto ids skip explicitly claimed ones" `Quick (fun () ->
        let s = fresh () in
        let a = Session.arrive s ~at:0.0 ~id:0 ~size:(v [ 1 ]) () in
        let b = Session.arrive s ~at:0.0 ~size:(v [ 1 ]) () in
        check_int "explicit" 0 a.Session.item_id;
        check_int "auto skips" 1 b.Session.item_id);
    Alcotest.test_case "clairvoyant arrivals feed the policy" `Quick (fun () ->
        let s = Session.create ~capacity:cap ~policy:(Policy.duration_aligned_fit ()) () in
        let _ = Session.arrive s ~at:0.0 ~departure:10.0 ~size:(v [ 40 ]) () in
        let _ = Session.arrive s ~at:0.0 ~departure:2.0 ~size:(v [ 40 ]) () in
        (* a third item departing at 9.8 should join the bin ending at 10 —
           but both fit in bin 0; daf picks the closer departure *)
        let p = Session.arrive s ~at:1.0 ~departure:9.8 ~size:(v [ 20 ]) () in
        check_int "aligned" 0 p.Session.bin_id);
  ]

let error_tests =
  [
    Alcotest.test_case "time cannot go backwards" `Quick (fun () ->
        let s = fresh () in
        let _ = Session.arrive s ~at:5.0 ~size:(v [ 1 ]) () in
        check_bool "raises" true
          (raises_session (fun () -> Session.arrive s ~at:4.0 ~size:(v [ 1 ]) ())));
    Alcotest.test_case "oversized item rejected" `Quick (fun () ->
        let s = fresh () in
        check_bool "raises" true
          (raises_session (fun () -> Session.arrive s ~at:0.0 ~size:(v [ 101 ]) ())));
    Alcotest.test_case "dimension mismatch rejected" `Quick (fun () ->
        let s = fresh () in
        check_bool "raises" true
          (raises_session (fun () -> Session.arrive s ~at:0.0 ~size:(v [ 1; 1 ]) ())));
    Alcotest.test_case "unknown departure rejected" `Quick (fun () ->
        let s = fresh () in
        check_bool "raises" true
          (raises_session (fun () -> Session.depart s ~at:1.0 ~item_id:9; ())));
    Alcotest.test_case "double departure rejected" `Quick (fun () ->
        let s = fresh () in
        let p = Session.arrive s ~at:0.0 ~size:(v [ 1 ]) () in
        Session.depart s ~at:1.0 ~item_id:p.Session.item_id;
        check_bool "raises" true
          (raises_session (fun () ->
               Session.depart s ~at:2.0 ~item_id:p.Session.item_id; ())));
    Alcotest.test_case "zero-duration item rejected" `Quick (fun () ->
        let s = fresh () in
        let p = Session.arrive s ~at:1.0 ~size:(v [ 1 ]) () in
        check_bool "raises" true
          (raises_session (fun () ->
               Session.depart s ~at:1.0 ~item_id:p.Session.item_id; ())));
    Alcotest.test_case "duplicate explicit id rejected" `Quick (fun () ->
        let s = fresh () in
        let _ = Session.arrive s ~at:0.0 ~id:3 ~size:(v [ 1 ]) () in
        check_bool "raises" true
          (raises_session (fun () -> Session.arrive s ~at:0.0 ~id:3 ~size:(v [ 1 ]) ())));
    Alcotest.test_case "use after finish rejected" `Quick (fun () ->
        let s = fresh ~history:true () in
        let _ = Session.arrive s ~at:0.0 ~size:(v [ 1 ]) () in
        let _ = Session.finish s ~at:2.0 in
        check_bool "raises" true
          (raises_session (fun () -> Session.arrive s ~at:3.0 ~size:(v [ 1 ]) ())));
    Alcotest.test_case "bad clairvoyant departure rejected" `Quick (fun () ->
        let s = fresh () in
        check_bool "raises" true
          (raises_session (fun () ->
               Session.arrive s ~at:5.0 ~departure:5.0 ~size:(v [ 1 ]) ())));
    Alcotest.test_case "non-finite time rejected" `Quick (fun () ->
        let s = fresh () in
        check_bool "raises" true
          (raises_session (fun () -> Session.arrive s ~at:nan ~size:(v [ 1 ]) ())));
  ]

(* Every Session_error must name the offending item and timestamp, so an
   operator can locate the event in a journal or trace without a debugger. *)
let message_of f =
  try
    ignore (f ());
    Alcotest.fail "expected Session_error"
  with Session.Session_error msg -> msg

let contains_sub msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let check_mentions what msg subs =
  List.iter
    (fun sub ->
      if not (contains_sub msg sub) then
        Alcotest.failf "%s: %S does not mention %S" what msg sub)
    subs

let message_tests =
  [
    Alcotest.test_case "backwards time names the item and both times" `Quick
      (fun () ->
        let s = fresh () in
        let _ = Session.arrive s ~at:5.0 ~id:7 ~size:(v [ 1 ]) () in
        check_mentions "arrival"
          (message_of (fun () -> Session.arrive s ~at:4.0 ~id:8 ~size:(v [ 1 ]) ()))
          [ "item 8"; "4"; "5" ];
        check_mentions "departure"
          (message_of (fun () -> Session.depart s ~at:4.0 ~item_id:7))
          [ "item 7"; "4"; "5" ]);
    Alcotest.test_case "oversized arrival names the item, time and sizes" `Quick
      (fun () ->
        let s = fresh () in
        check_mentions "oversized"
          (message_of (fun () -> Session.arrive s ~at:2.5 ~id:3 ~size:(v [ 101 ]) ()))
          [ "item 3"; "2.5"; "101"; "100" ]);
    Alcotest.test_case "dimension mismatch names the item and dimensions" `Quick
      (fun () ->
        let s = fresh () in
        check_mentions "dimension"
          (message_of (fun () -> Session.arrive s ~at:1.0 ~id:4 ~size:(v [ 1; 1 ]) ()))
          [ "item 4"; "dimension 2"; "dimension 1" ]);
    Alcotest.test_case "duplicate id names the id and time" `Quick (fun () ->
        let s = fresh () in
        let _ = Session.arrive s ~at:0.0 ~id:3 ~size:(v [ 1 ]) () in
        check_mentions "duplicate"
          (message_of (fun () -> Session.arrive s ~at:1.0 ~id:3 ~size:(v [ 1 ]) ()))
          [ "item id 3"; "at 1" ]);
    Alcotest.test_case "departure failures name the item and time" `Quick
      (fun () ->
        let s = fresh () in
        check_mentions "unknown item"
          (message_of (fun () -> Session.depart s ~at:1.5 ~item_id:9))
          [ "item id 9"; "1.5" ];
        let p = Session.arrive s ~at:2.0 ~id:1 ~size:(v [ 1 ]) () in
        check_mentions "too early"
          (message_of (fun () -> Session.depart s ~at:2.0 ~item_id:p.Session.item_id))
          [ "item 1"; "at 2"; "arrived at 2" ];
        Session.depart s ~at:3.0 ~item_id:1;
        check_mentions "double departure"
          (message_of (fun () -> Session.depart s ~at:4.0 ~item_id:1))
          [ "item 1"; "at 4"; "already departed" ]);
    Alcotest.test_case "bad clairvoyant departure names both timestamps" `Quick
      (fun () ->
        let s = fresh () in
        check_mentions "clairvoyant"
          (message_of (fun () ->
               Session.arrive s ~at:5.0 ~id:2 ~departure:5.0 ~size:(v [ 1 ]) ()))
          [ "item 2"; "at 5"; "departure 5" ]);
    Alcotest.test_case "rejected arrivals leave the session untouched" `Quick
      (fun () ->
        (* the service's REJECT-and-keep-serving path depends on this: a
           refused event must not advance the clock or open a bin *)
        let s = fresh () in
        let _ = Session.arrive s ~at:1.0 ~id:0 ~size:(v [ 60 ]) () in
        check_bool "duplicate id refused" true
          (raises_session (fun () -> Session.arrive s ~at:2.0 ~id:0 ~size:(v [ 1 ]) ()));
        check_bool "oversize refused" true
          (raises_session (fun () -> Session.arrive s ~at:3.0 ~id:1 ~size:(v [ 999 ]) ()));
        check_float "clock unmoved" 1.0 (Session.now s);
        check_int "no stray bins" 1 (Session.bins_opened s);
        (* an event at the original clock is still acceptable *)
        let p = Session.arrive s ~at:1.0 ~id:1 ~size:(v [ 40 ]) () in
        check_bool "same bin" true (p.Session.bin_id = 0));
    Alcotest.test_case "negative times and ids are refused, not crashes" `Quick
      (fun () ->
        (* protocol input reaches these paths unfiltered ("ARRIVE -3 0 5",
           "DEPART 1 -3"): both must raise Session_error and leave the
           session as it was *)
        let s = fresh () in
        check_mentions "negative arrival time"
          (message_of (fun () -> Session.arrive s ~at:(-3.0) ~id:0 ~size:(v [ 1 ]) ()))
          [ "item 0"; "-3"; "negative time" ];
        check_int "no bin opened" 0 (Session.bins_opened s);
        let _ = Session.arrive s ~at:1.0 ~id:0 ~size:(v [ 1 ]) () in
        check_mentions "negative departure id"
          (message_of (fun () -> Session.depart s ~at:2.0 ~item_id:(-3)))
          [ "item id -3"; "at 2" ];
        check_float "clock unmoved" 1.0 (Session.now s));
  ]

(* {1 Restore differential}

   Session A runs a random event stream whole. Session B runs a prefix and
   is exported, written out as v3 snapshot text, read back and restored as
   C, which runs the suffix. A and C must agree at every step — the same
   placement or the same refusal, and equal fingerprints — and then again
   on injected refusals: an arrival reusing a departed id, a departure of
   a departed id, a departure of an id never seen. *)

type op =
  | Op_arrive of float * int * int * float option * int
      (* dt, sizes, clairvoyant duration, ids skipped before this one *)
  | Op_depart of float * int  (* dt, index among live items *)

let restore_policies = [ "ff"; "lf"; "bf"; "wf"; "mtf"; "nf"; "nf3"; "rf"; "daf"; "hff" ]
let restore_cap = v [ 10; 10 ]

let op_gen =
  QCheck2.Gen.(
    let dt = oneof [ pure 0.0; map (fun k -> float_of_int k /. 4.0) (int_range 1 8); float_range 0.01 3.0 ] in
    frequency
      [
        ( 3,
          map
            (fun (dt, a, b, dur, skip) -> Op_arrive (dt, a, b, dur, skip))
            (tup5 dt (int_range 1 10) (int_range 1 10)
               (option (float_range 0.5 20.0))
               (frequency [ (3, pure 0); (1, int_range 1 3) ])) );
        (2, map2 (fun dt i -> Op_depart (dt, i)) dt (int_range 0 1000));
      ])

(* the stream as session events: ids in order, departures of live items
   (or, with no live item, of an id never used — a refusal) *)
let events_of ops =
  let clock = ref 0.0 and next = ref 0 and live = ref [] in
  List.map
    (fun op ->
      match op with
      | Op_arrive (dt, a, b, dur, skip) ->
          clock := !clock +. dt;
          let id = !next + skip in
          next := id + 1;
          live := !live @ [ id ];
          `Arrive (!clock, id, v [ a; b ], Option.map (fun d -> !clock +. d) dur)
      | Op_depart (dt, i) -> (
          clock := !clock +. dt;
          match !live with
          | [] -> `Depart (!clock, 1_000_000 + i)
          | l ->
              let id = List.nth l (i mod List.length l) in
              live := List.filter (fun x -> x <> id) l;
              `Depart (!clock, id)))
    ops

let step s = function
  | `Arrive (at, id, size, departure) -> (
      match Session.arrive s ~at ~id ?departure ~size () with
      | p -> Ok (Some (p.Session.bin_id, p.Session.opened_new_bin))
      | exception Session.Session_error msg -> Error msg)
  | `Depart (at, item_id) -> (
      match Session.depart s ~at ~item_id with
      | () -> Ok None
      | exception Session.Session_error msg -> Error msg)

let through_v3 ~name session =
  let open Dvbp_service in
  let snap =
    Snapshot.of_sessions ~policy:name ~seed:9 ~capacity:restore_cap ~events:0 ~last:None
      [ (Tenant.default, session) ]
  in
  match Snapshot.of_string (Snapshot.to_string snap) with
  | Ok { Snapshot.sections = [ sec ]; _ } -> sec.Snapshot.state
  | Ok _ -> failwith "expected one snapshot section"
  | Error e -> failwith e

let restore_differential =
  QCheck2.Test.make ~name:"a restored session continues exactly like the original"
    ~count:200
    QCheck2.Gen.(pair (list_size (int_range 1 60) op_gen) (float_range 0.0 1.0))
    (fun (ops, cut) ->
      let events = events_of ops in
      let k = int_of_float (cut *. float_of_int (List.length events)) in
      List.iter
        (fun name ->
          List.iter
            (fun fit_kernel ->
              let fresh () =
                Session.create ~fit_kernel ~capacity:restore_cap
                  ~policy:(Policy.of_name_exn ~rng:(Rng.create ~seed:9) name) ()
              in
              let a = fresh () and b = fresh () in
              let fail what i =
                QCheck2.Test.fail_reportf "%s (%s kernel): %s at step %d" name
                  (match fit_kernel with `Auto -> "auto" | `Scalar -> "scalar")
                  what i
              in
              (* the live-item counter against a recount of the open bins *)
              let check_active s i =
                let held =
                  List.fold_left
                    (fun n (bin : Dvbp_core.Bin.t) ->
                      n + List.length bin.Dvbp_core.Bin.active_items)
                    0 (Session.open_bins s)
                in
                if Session.active_items s <> held then fail "active_items" i
              in
              List.iteri
                (fun i e ->
                  if i < k then begin
                    ignore (step a e);
                    ignore (step b e);
                    check_active a i
                  end)
                events;
              let c =
                match
                  Session.restore ~fit_kernel ~capacity:restore_cap
                    ~policy:(Policy.of_name_exn ~rng:(Rng.create ~seed:9) name)
                    (through_v3 ~name b)
                with
                | Ok c -> c
                | Error e -> fail ("restore failed: " ^ e) k
              in
              if Session.fingerprint c <> Session.fingerprint a then fail "fingerprint" k;
              if Session.active_items c <> Session.active_items a then fail "active_items" k;
              check_active c k;
              List.iteri
                (fun i e ->
                  if i >= k then begin
                    if step a e <> step c e then fail "outcome" i;
                    if Session.fingerprint a <> Session.fingerprint c then
                      fail "fingerprint" i;
                    if Session.active_items a <> Session.active_items c then
                      fail "active_items" i;
                    check_active c i
                  end)
                events;
              let departed =
                List.filter_map
                  (function `Depart (_, id) when id < 1_000_000 -> Some id | _ -> None)
                  events
              in
              let at = Session.now a +. 1.0 in
              let injected =
                (match departed with
                | id :: _ -> [ `Arrive (at, id, v [ 1; 1 ], None); `Depart (at, id) ]
                | [] -> [])
                @ [ `Depart (at, 999_999) ]
              in
              List.iter
                (fun e ->
                  let ra = step a e and rc = step c e in
                  (if ra <> rc then
                     let show = function Ok _ -> "ok" | Error m -> m in
                     fail ("injected event: " ^ show ra ^ " vs " ^ show rc)
                       (List.length events));
                  if Session.active_items a <> Session.active_items c then
                    fail "active_items" (List.length events))
                injected;
              if Session.fingerprint a <> Session.fingerprint c then
                fail "fingerprint after refusals" (List.length events))
            [ `Auto; `Scalar ])
        restore_policies;
      true)

(* {1 Live state against history}

   A session that forgets departed items and closed bins must answer
   exactly as one that keeps its whole history: the same placement or
   the same refusal text on every event, and equal fingerprints after
   each. Ids come out of order, reused, unknown, negative and huge
   ([2^40], [max_int]); a twin restored from the live session's snapshot
   at a random step joins the comparison from there on. A model of the
   ids ever accepted and of the live ones checks every outcome's reason,
   and at the end the exported ranges. *)

type live_op =
  | L_arrive of float * int option * int * int  (* dt, id (None: assigned), sizes *)
  | L_depart of float * [ `Live of int | `Id of int ]

let live_id_gen =
  QCheck2.Gen.(
    frequency
      [
        (8, int_range 0 40);
        (1, oneofl [ -1; -7; min_int ]);
        ( 2,
          oneofl
            [ 1 lsl 40; (1 lsl 40) + 1; max_int; max_int - 1; 600; Id_set.max_window_ids;
              Id_set.max_window_ids + 3; (2 * Id_set.max_window_ids) + 5 ] );
      ])

let live_op_gen =
  QCheck2.Gen.(
    let dt = frequency [ (4, pure 0.0); (4, pure 0.5); (2, pure 1.0); (1, pure (-0.5)) ] in
    frequency
      [
        ( 3,
          map
            (fun (dt, id, a, b) -> L_arrive (dt, id, a, b))
            (quad dt (frequency [ (1, pure None); (3, map Option.some live_id_gen) ])
               (int_range 1 10) (int_range 1 11)) );
        ( 2,
          map2
            (fun dt d -> L_depart (dt, d))
            dt
            (frequency
               [ (3, map (fun i -> `Live i) (int_range 0 100)); (1, map (fun i -> `Id i) live_id_gen) ]) );
      ])

let contains msg sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
  go 0

let canonical_ranges ids =
  List.fold_left
    (fun acc id ->
      match acc with (lo, hi) :: rest when id = hi + 1 -> (lo, id) :: rest | _ -> (id, id) :: acc)
    [] (List.sort_uniq Int.compare ids)
  |> List.rev

let live_vs_history =
  QCheck2.Test.make ~name:"a live-state session answers like a history-keeping one" ~count:60
    QCheck2.Gen.(pair (list_size (int_range 1 80) live_op_gen) (float_range 0.0 1.0))
    (fun (ops, cut) ->
      let k = int_of_float (cut *. float_of_int (List.length ops)) in
      List.iter
        (fun name ->
          let policy () = Policy.of_name_exn ~rng:(Rng.create ~seed:9) name in
          let reference = Session.create ~history:true ~capacity:restore_cap ~policy:(policy ()) () in
          let live = Session.create ~capacity:restore_cap ~policy:(policy ()) () in
          let twin = ref None in
          let accepted = Hashtbl.create 64 and live_ids = ref [] in
          let clock = ref 0.0 in
          let fail what i = QCheck2.Test.fail_reportf "%s: %s at step %d" name what i in
          let show = function
            | Ok (Some (id, bin, fresh)) -> Printf.sprintf "item %d in bin %d%s" id bin (if fresh then " (new)" else "")
            | Ok None -> "departed"
            | Error m -> m
          in
          let run s = function
            | `Arrive (at, id, size) -> (
                match Session.arrive s ~at ?id ~size () with
                | p -> Ok (Some (p.Session.item_id, p.Session.bin_id, p.Session.opened_new_bin))
                | exception Session.Session_error m -> Error m)
            | `Depart (at, item_id) -> (
                match Session.depart s ~at ~item_id with
                | () -> Ok None
                | exception Session.Session_error m -> Error m)
          in
          (* the outcome's reason, against the model of ids *)
          let check_model i e outcome =
            let known id = Hashtbl.mem accepted id in
            match (e, outcome) with
            | `Arrive (_, id, _), Ok (Some (got, _, _)) ->
                if known got || (match id with Some x -> x <> got | None -> false) then
                  fail "an arrival took an id accepted before" i;
                Hashtbl.replace accepted got ();
                live_ids := !live_ids @ [ got ]
            | `Arrive (_, Some id, _), Error m when contains m "duplicate item id" ->
                if not (known id) then fail ("refused as duplicate: " ^ m) i
            | `Depart (_, id), Ok None ->
                if not (List.mem id !live_ids) then fail "a departure of an item not live" i;
                live_ids := List.filter (fun x -> x <> id) !live_ids
            | `Depart (_, id), Error m when contains m "already departed" ->
                if not (known id) || List.mem id !live_ids then fail ("refused as departed: " ^ m) i
            | `Depart (_, id), Error m when contains m "unknown item id" ->
                if id >= 0 && known id then fail ("refused as unknown: " ^ m) i
            | _ -> ()
          in
          List.iteri
            (fun i op ->
              if i = k then begin
                match
                  Session.restore ~capacity:restore_cap ~policy:(policy ()) (through_v3 ~name live)
                with
                | Ok c ->
                    if Session.fingerprint c <> Session.fingerprint reference then
                      fail "restored fingerprint" i;
                    twin := Some c
                | Error e -> fail ("restore failed: " ^ e) i
              end;
              let e =
                match op with
                | L_arrive (dt, id, a, b) ->
                    clock := !clock +. dt;
                    `Arrive (!clock, id, v [ a; b ])
                | L_depart (dt, d) ->
                    clock := !clock +. dt;
                    let id =
                      match (d, !live_ids) with
                      | `Live j, (_ :: _ as l) -> List.nth l (j mod List.length l)
                      | `Live j, [] -> j
                      | `Id id, _ -> id
                    in
                    `Depart (!clock, id)
              in
              let expected = run reference e in
              let compare_with label s =
                let got = run s e in
                if got <> expected then
                  fail (Printf.sprintf "%s: %s, reference: %s" label (show got) (show expected)) i;
                if Session.fingerprint s <> Session.fingerprint reference then
                  fail (label ^ " fingerprint") i
              in
              compare_with "live" live;
              Option.iter (compare_with "restored") !twin;
              check_model i e expected)
            ops;
          let ids = Hashtbl.fold (fun id () acc -> id :: acc) accepted [] in
          List.iter
            (fun (label, s) ->
              if (Session.export s).Session.Saved.accepted <> canonical_ranges ids then
                fail (label ^ ": exported ranges differ from the ids accepted") (List.length ops))
            (("live", live) :: Option.to_list (Option.map (fun c -> ("restored", c)) !twin)))
        restore_policies;
      true)

let restore_tests =
  [
    QCheck_alcotest.to_alcotest restore_differential;
    QCheck_alcotest.to_alcotest live_vs_history;
    Alcotest.test_case "a restored session refuses finish and trace" `Quick (fun () ->
        let s = fresh () in
        ignore (Session.arrive s ~at:0.0 ~id:0 ~size:(v [ 5 ]) ());
        Session.depart s ~at:1.0 ~item_id:0;
        let r =
          match
            Session.restore ~capacity:cap ~policy:(Policy.first_fit ()) (Session.export s)
          with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        check_bool "finish refused" true (raises_session (fun () -> Session.finish r ~at:2.0));
        check_bool "trace refused" true (raises_session (fun () -> Session.trace r));
        check_bool "departed id still refused" true
          (raises_session (fun () -> Session.arrive r ~at:2.0 ~id:0 ~size:(v [ 1 ]) ())));
    Alcotest.test_case "restore refuses inconsistent saved state" `Quick (fun () ->
        let s = fresh () in
        ignore (Session.arrive s ~at:0.0 ~id:0 ~size:(v [ 60 ]) ());
        ignore (Session.arrive s ~at:1.0 ~id:1 ~size:(v [ 60 ]) ());
        let st = Session.export s in
        let restore st = Session.restore ~capacity:cap ~policy:(Policy.first_fit ()) st in
        check_bool "as exported" true (Result.is_ok (restore st));
        let bins = st.Session.Saved.bins in
        check_bool "bins out of order" true
          (Result.is_error (restore { st with Session.Saved.bins = List.rev bins }));
        check_bool "item outside the accepted ids" true
          (Result.is_error (restore { st with Session.Saved.accepted = [ (0, 0) ] }));
        List.iter
          (fun accepted ->
            check_bool "accepted ids not sorted disjoint ranges of non-negative ids" true
              (Result.is_error (restore { st with Session.Saved.accepted })))
          [ [ (min_int, 5) ]; [ (0, max_int); (3, 4) ]; [ (0, 1); (2, 3) ]; [ (3, 2) ] ];
        check_bool "bin id beyond next_bin" true
          (Result.is_error (restore { st with Session.Saved.next_bin = 1 }));
        (match bins with
        | b0 :: b1 :: _ ->
            check_bool "an item that does not fit" true
              (Result.is_error
                 (restore
                    {
                      st with
                      Session.Saved.bins =
                        [ { b0 with Session.Saved.items = b0.Session.Saved.items @ b1.Session.Saved.items } ];
                    }))
        | _ -> Alcotest.fail "expected two bins");
        check_bool "a stateless policy given state" true
          (Result.is_error (restore { st with Session.Saved.policy_state = [ 1 ] }));
        check_bool "a negative counter" true
          (Result.is_error (restore { st with Session.Saved.rejects = -1 })));
    Alcotest.test_case "restore refuses an rf draw count beyond its selects" `Quick
      (fun () ->
        (* fast-forwarding the rng costs one step per draw: a count no
           real history could reach is refused, not looped over *)
        let rf () = Policy.random_fit ~rng:(Rng.create ~seed:3) () in
        let s = fresh ~policy:(rf ()) () in
        for i = 0 to 49 do
          ignore (Session.arrive s ~at:(float_of_int i) ~id:i ~size:(v [ 30 ]) ())
        done;
        let st = Session.export s in
        let restore st = Session.restore ~capacity:cap ~policy:(rf ()) st in
        (match restore st with
        | Ok r -> check_bool "as exported" true (Session.fingerprint r = Session.fingerprint s)
        | Error e -> Alcotest.fail e);
        check_bool "a draw count past twice the selects" true
          (Result.is_error
             (restore { st with Session.Saved.policy_state = [ (2 * 50) + 65 ] }));
        check_bool "a huge draw count" true
          (Result.is_error (restore { st with Session.Saved.policy_state = [ max_int ] })));
  ]

(* {1 The set of ids ever accepted} *)

(* canonical ranges with [lo, hi] merged in *)
let ranges_add rs (lo, hi) =
  List.fold_left
    (fun acc (l, h) ->
      match acc with
      | (pl, ph) :: rest when l - 1 <= ph -> (pl, Int.max ph h) :: rest
      | _ -> (l, h) :: acc)
    []
    (List.sort compare ((lo, hi) :: rs))
  |> List.rev

let id_set_model =
  let w = Id_set.max_window_ids in
  (* around the first window's top (512), the widest window's, beyond it *)
  let start =
    QCheck2.Gen.(
      frequency
        [
          (4, int_bound 300);
          (2, map (fun d -> 512 - 150 + d) (int_bound 300));
          (2, map (fun d -> w - 150 + d) (int_bound 300));
          (1, map (fun d -> (2 * w) + d) (int_bound 300));
          (1, oneofl [ 1 lsl 40; (1 lsl 40) + 1; max_int - 5; max_int ]);
          (1, int_bound 2_000_000);
        ])
  in
  let len = QCheck2.Gen.(frequency [ (6, int_range 1 40); (3, int_range 1 400); (1, pure 1100) ]) in
  QCheck2.Test.make ~name:"the id set agrees with a model of ranges" ~count:150
    QCheck2.Gen.(list_size (int_range 1 30) (pair start len))
    (fun fills ->
      let t = Id_set.create () and model = ref [] in
      List.for_all
        (fun (lo, n) ->
          let hi = if lo > max_int - n then max_int else lo + n - 1 in
          (* descending fills put ids ahead of the mark before the ones below them *)
          if n mod 2 = 0 then
            for id = hi downto lo do if not (Id_set.mem t id) then Id_set.add t id done
          else for id = lo to hi do if not (Id_set.mem t id) then Id_set.add t id done;
          model := ranges_add !model (lo, hi);
          let copy = Id_set.of_ranges (Id_set.ranges t) in
          let probes =
            List.concat_map (fun (l, h) -> [ l - 1; l; h; (if h = max_int then h else h + 1) ]) !model
            @ [ 0; w - 1; w; 2 * w; 1 lsl 40; max_int ]
          in
          let in_model id = List.exists (fun (l, h) -> l <= id && id <= h) !model in
          Id_set.ranges t = !model
          && Id_set.ranges copy = !model
          && List.for_all
               (fun id -> Id_set.mem t id = in_model id && Id_set.mem copy id = in_model id)
               probes)
        fills)

let id_set_tests =
  [
    QCheck_alcotest.to_alcotest id_set_model;
    Alcotest.test_case "ascending ids leave one range" `Quick (fun () ->
        let t = Id_set.create () in
        for id = 0 to 299_999 do
          Id_set.add t id
        done;
        Alcotest.(check (list (pair int int))) "ranges" [ (0, 299_999) ] (Id_set.ranges t);
        check_bool "last" true (Id_set.mem t 299_999);
        check_bool "next" false (Id_set.mem t 300_000);
        check_bool "negative" false (Id_set.mem t (-1)));
    Alcotest.test_case "a hole filled joins a huge range at once" `Quick (fun () ->
        (* stepping the mark across [12, 2^50] one byte at a time would take
           2^47 steps; the full window jumps to the range's end instead *)
        let t = Id_set.of_ranges [ (0, 10); (12, 1 lsl 50) ] in
        check_bool "hole" false (Id_set.mem t 11);
        Id_set.add t 11;
        Alcotest.(check (list (pair int int))) "ranges" [ (0, 1 lsl 50) ] (Id_set.ranges t);
        Id_set.add t ((1 lsl 50) + 1);
        check_bool "beyond" true (Id_set.mem t ((1 lsl 50) + 1));
        (* the jump lands the window over the next range, which moves in *)
        let t = Id_set.of_ranges [ (0, 600); (700, 800) ] in
        check_bool "in the next range" true (Id_set.mem t 750);
        check_bool "between" false (Id_set.mem t 650);
        Alcotest.(check (list (pair int int))) "ranges" [ (0, 600); (700, 800) ] (Id_set.ranges t));
    Alcotest.test_case "one far id costs a range, never a wider window" `Quick (fun () ->
        let words t = Obj.reachable_words (Obj.repr t) in
        let fresh = words (Id_set.create ()) in
        let t = Id_set.create () in
        Id_set.add t max_int;
        Id_set.add t (1 lsl 40);
        check_bool "two far ids: a handful of words" true (words t <= fresh + 16);
        let t = Id_set.create () in
        Id_set.add t (Id_set.max_window_ids - 1);
        (* ids within the widest window go into the bitmap, grown to cover
           them; the ids beyond it into ranges *)
        check_bool "an id at the window's limit: the widest window" true
          (words t >= Id_set.max_window_ids / 64
          && words t <= fresh + (Id_set.max_window_ids / 64) + 16);
        Id_set.add t Id_set.max_window_ids;
        check_bool "one past it: a range" true
          (words t <= fresh + (Id_set.max_window_ids / 64) + 32));
    Alcotest.test_case "max_int is an id like any other" `Quick (fun () ->
        let t = Id_set.create () in
        Id_set.add t max_int;
        Alcotest.(check (list (pair int int))) "one id" [ (max_int, max_int) ] (Id_set.ranges t);
        let all = Id_set.of_ranges [ (0, max_int) ] in
        check_bool "max_int" true (Id_set.mem all max_int);
        check_bool "min_int" false (Id_set.mem all min_int);
        Alcotest.(check (list (pair int int))) "all" [ (0, max_int) ] (Id_set.ranges all);
        Alcotest.check_raises "member" (Invalid_argument "Id_set.add: already a member")
          (fun () -> Id_set.add all 7);
        Alcotest.check_raises "negative" (Invalid_argument "Id_set.add: negative id")
          (fun () -> Id_set.add t (-1)));
    Alcotest.test_case "a shuffled permutation beyond the widest window" `Quick (fun () ->
        (* the order the batch engine sees a uniform-model instance's ids in *)
        let n = Id_set.max_window_ids + (Id_set.max_window_ids / 4) in
        let perm = Array.init n Fun.id in
        let rng = Random.State.make [| 23 |] in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- x
        done;
        let fill t =
          Array.iteri
            (fun k id ->
              Id_set.add t id;
              if k = n / 2 then begin
                check_bool "a member" true (Id_set.mem t id);
                check_bool "not yet added" false (Id_set.mem t perm.(k + 1))
              end)
            perm;
          Alcotest.(check (list (pair int int))) "one range" [ (0, n - 1) ] (Id_set.ranges t);
          check_bool "past the end" false (Id_set.mem t n)
        in
        (* the default window leaves a quarter of the ids in ranges beyond it *)
        fill (Id_set.create ());
        (* a window sized for the ids keeps every one in the bitmap (under
           two bits per id, the window a power of two), no range ever *)
        let t = Id_set.create ~expected_ids:n () in
        let words () = Obj.reachable_words (Obj.repr t) in
        let peak = ref 0 in
        Array.iteri
          (fun k id ->
            Id_set.add t id;
            if k land 0xffff = 0 then peak := Int.max !peak (words ()))
          perm;
        check_bool "a bitmap of the ids, no ranges" true (!peak <= (2 * n / 64) + 32);
        Alcotest.(check (list (pair int int))) "sized: one range" [ (0, n - 1) ] (Id_set.ranges t));
  ]

let suites =
  [
    ("session.lifecycle", lifecycle_tests);
    ("session.errors", error_tests);
    ("session.error_messages", message_tests);
    ("session.restore", restore_tests);
    ("session.id_set", id_set_tests);
  ]
