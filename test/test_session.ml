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

let fresh ?(policy = Policy.first_fit ()) () = Session.create ~capacity:cap ~policy ()

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
            Session.create ~record_trace ~capacity:cap
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
        let s = fresh () in
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
          Session.create ~capacity:instance.Instance.capacity
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
        let s = fresh () in
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

let restore_tests =
  [
    QCheck_alcotest.to_alcotest restore_differential;
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

let suites =
  [
    ("session.lifecycle", lifecycle_tests);
    ("session.errors", error_tests);
    ("session.error_messages", message_tests);
    ("session.restore", restore_tests);
  ]
