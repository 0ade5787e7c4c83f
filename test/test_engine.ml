(* Tests for the discrete-event engine: event ordering, bin lifecycle,
   policy-difference scenarios, trace well-formedness and misbehaving
   policies. *)

open Dvbp_core
open Dvbp_engine
module Vec = Dvbp_vec.Vec
module Rng = Dvbp_prelude.Rng

let v = Vec.of_list
let cap = v [ 100 ]
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let inst specs = Instance.of_specs_exn ~capacity:cap specs
let run_ff specs = Engine.run ~policy:(Policy.first_fit ()) (inst specs)

let basic_tests =
  [
    Alcotest.test_case "single item lifecycle" `Quick (fun () ->
        let r = run_ff [ (1.0, 4.0, v [ 10 ]) ] in
        check_int "bins" 1 r.bins_opened;
        check_float "cost" 3.0 (Engine.cost r);
        match Trace.events r.trace with
        | [ Trace.Opened { time = 1.0; bin_id = 0 };
            Trace.Placed { time = 1.0; item_id = 0; bin_id = 0 };
            Trace.Departed { time = 4.0; item_id = 0; bin_id = 0 };
            Trace.Closed { time = 4.0; bin_id = 0 } ] ->
            ()
        | es -> Alcotest.failf "unexpected trace (%d events)" (List.length es));
    Alcotest.test_case "two items share a bin" `Quick (fun () ->
        let r = run_ff [ (0.0, 2.0, v [ 40 ]); (0.0, 3.0, v [ 60 ]) ] in
        check_int "bins" 1 r.bins_opened;
        check_float "cost" 3.0 (Engine.cost r));
    Alcotest.test_case "overflow opens second bin" `Quick (fun () ->
        let r = run_ff [ (0.0, 2.0, v [ 60 ]); (0.0, 3.0, v [ 60 ]) ] in
        check_int "bins" 2 r.bins_opened;
        check_float "cost" 5.0 (Engine.cost r));
    Alcotest.test_case "departure at t frees capacity before arrival at t" `Quick
      (fun () ->
        (* B1 holds items until t=5; a 60-item arriving exactly at 5 must see
           the departed capacity gone — bin closes, so a fresh bin opens, and
           total cost is 5 + 2, not 7+anything. *)
        let r = run_ff [ (0.0, 5.0, v [ 60 ]); (5.0, 7.0, v [ 60 ]) ] in
        check_int "bins" 2 r.bins_opened;
        check_float "cost" 7.0 (Engine.cost r);
        check_int "peak open" 1 r.max_open_bins);
    Alcotest.test_case "closed bins never reused" `Quick (fun () ->
        let r = run_ff [ (0.0, 1.0, v [ 10 ]); (2.0, 3.0, v [ 10 ]) ] in
        check_int "bins" 2 r.bins_opened;
        check_float "cost" 2.0 (Engine.cost r));
    Alcotest.test_case "simultaneous arrivals processed in sequence order" `Quick
      (fun () ->
        let r =
          run_ff [ (0.0, 1.0, v [ 60 ]); (0.0, 1.0, v [ 60 ]); (0.0, 1.0, v [ 40 ]) ]
        in
        (* FF: item0 -> B0; item1 -> B1; item2 -> B0 (60+40=100 fits) *)
        check_int "bins" 2 r.bins_opened;
        let placements = Trace.placements r.trace in
        Alcotest.(check (list (pair int int)))
          "assignments"
          [ (0, 0); (1, 1); (2, 0) ]
          (List.map (fun (_, item, bin) -> (item, bin)) placements));
    Alcotest.test_case "packing validates for every standard policy" `Quick (fun () ->
        let specs =
          [
            (0.0, 3.0, v [ 30 ]); (0.0, 5.0, v [ 50 ]); (1.0, 4.0, v [ 60 ]);
            (2.0, 6.0, v [ 20 ]); (2.0, 7.0, v [ 80 ]); (4.0, 8.0, v [ 40 ]);
            (5.0, 9.0, v [ 90 ]); (6.0, 10.0, v [ 10 ]);
          ]
        in
        let instance = inst specs in
        List.iter
          (fun name ->
            let rng = Rng.create ~seed:5 in
            let policy = Policy.of_name_exn ~rng name in
            let r = Engine.run ~policy instance in
            match Packing.validate instance r.packing with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "%s: invalid packing: %s" name (String.concat "; " es))
          Policy.standard_names);
  ]

let policy_difference_tests =
  [
    Alcotest.test_case "next fit ignores released bins; first fit does not" `Quick
      (fun () ->
        let specs =
          [
            (0.0, 10.0, v [ 60 ]); (0.0, 10.0, v [ 60 ]); (1.0, 10.0, v [ 30 ]);
            (2.0, 10.0, v [ 40 ]);
          ]
        in
        let nf = Engine.run ~policy:(Policy.next_fit ()) (inst specs) in
        let ff = Engine.run ~policy:(Policy.first_fit ()) (inst specs) in
        (* NF: 60->B0; 60 misses B0 ->B1; 30->B1(90); 40 misses B1 -> B2,
           even though B0 had room. FF reuses B0. *)
        check_int "nf bins" 3 nf.bins_opened;
        check_int "ff bins" 2 ff.bins_opened);
    Alcotest.test_case "mtf differs from first fit on the Thm 8 pattern" `Quick
      (fun () ->
        (* Thm 8, n=2 (cap 100): odd items size 50 short, even size 25 long.
           MTF pairs each 50 with a 25 (4 bins); FF packs the three later 25s
           into bin 0 beside the first 50. *)
        let mu = 10.0 in
        let specs =
          [
            (0.0, 1.0, v [ 50 ]); (0.0, mu, v [ 25 ]);
            (0.0, 1.0, v [ 50 ]); (0.0, mu, v [ 25 ]);
            (0.0, 1.0, v [ 50 ]); (0.0, mu, v [ 25 ]);
            (0.0, 1.0, v [ 50 ]); (0.0, mu, v [ 25 ]);
          ]
        in
        let mtf = Engine.run ~policy:(Policy.move_to_front ()) (inst specs) in
        let ff = Engine.run ~policy:(Policy.first_fit ()) (inst specs) in
        check_int "mtf bins" 4 mtf.bins_opened;
        check_float "mtf cost" (4.0 *. mu) (Engine.cost mtf);
        (* FF: B0 {50,25,25} (full at 100), B1 {50,50}, B2 {25,50,25}: the
           two bins holding long items run for mu, B1 for 1. *)
        check_int "ff bins" 3 ff.bins_opened;
        check_float "ff cost" (1.0 +. (2.0 *. mu)) (Engine.cost ff));
    Alcotest.test_case "best fit beats worst fit on a packing-sensitive mix" `Quick
      (fun () ->
        let specs =
          [
            (0.0, 10.0, v [ 70 ]); (0.0, 10.0, v [ 50 ]); (1.0, 10.0, v [ 30 ]);
            (2.0, 10.0, v [ 50 ]);
          ]
        in
        let bf = Engine.run ~policy:(Policy.best_fit ()) (inst specs) in
        let wf = Engine.run ~policy:(Policy.worst_fit ()) (inst specs) in
        (* BF: 30 joins the 70 (fullest fitting), leaving room for the second
           50 beside the first. WF: 30 joins the 50, so the last 50 needs a
           third bin. *)
        check_int "bf bins" 2 bf.bins_opened;
        check_int "wf bins" 3 wf.bins_opened);
    Alcotest.test_case "clairvoyant flag exposes departures to the policy" `Quick
      (fun () ->
        let saw = ref [] in
        let probe =
          {
            Policy.name = "probe";
            describe = "records departure visibility";
            select =
              (fun ~item ~open_bins:_ ->
                saw := item.Policy.departure :: !saw;
                Policy.Fresh);
            on_place = (fun ~bin:_ ~now:_ -> ());
            on_close = (fun ~bin:_ ~now:_ -> ());
            strict_any_fit = false;
            export = (fun () -> []);
            import = (fun _ ~selects:_ ~bin:_ -> Ok ());
          }
        in
        let specs = [ (0.0, 4.0, v [ 10 ]) ] in
        ignore (Engine.run ~policy:probe (inst specs));
        Alcotest.(check (list (option (float 0.0)))) "hidden" [ None ] !saw;
        saw := [];
        ignore (Engine.run ~clairvoyant:true ~policy:probe (inst specs));
        Alcotest.(check (list (option (float 0.0)))) "visible" [ Some 4.0 ] !saw);
    Alcotest.test_case "a departure oracle feeds custom hints to the policy"
      `Quick (fun () ->
        let seen = ref [] in
        let probe =
          {
            Policy.name = "probe";
            describe = "records departure hints";
            select =
              (fun ~item ~open_bins:_ ->
                seen := item.Policy.departure :: !seen;
                Policy.Fresh);
            on_place = (fun ~bin:_ ~now:_ -> ());
            on_close = (fun ~bin:_ ~now:_ -> ());
            strict_any_fit = false;
            export = (fun () -> []);
            import = (fun _ ~selects:_ ~bin:_ -> Ok ());
          }
        in
        let specs = [ (0.0, 4.0, v [ 10 ]); (1.0, 5.0, v [ 10 ]) ] in
        let oracle (r : Item.t) = Some (r.Item.arrival +. 0.5) in
        ignore (Engine.run ~departure_oracle:oracle ~policy:probe (inst specs));
        Alcotest.(check (list (option (float 1e-9))))
          "hints" [ Some 1.5; Some 0.5 ] !seen);
    Alcotest.test_case "duration-aligned fit packs by departure when clairvoyant"
      `Quick (fun () ->
        (* Two long items in separate bins (too big to share), then a small
           item departing with the *later* one: DAF aligns it there. *)
        let specs =
          [
            (0.0, 10.0, v [ 60 ]); (0.0, 3.0, v [ 60 ]); (1.0, 10.0, v [ 20 ]);
          ]
        in
        let daf = Engine.run ~clairvoyant:true ~policy:(Policy.duration_aligned_fit ()) (inst specs) in
        Alcotest.(check (option int))
          "joined the bin departing at 10" (Some 0)
          (Packing.bin_of_item daf.packing 2))
  ]

let variant_policy_tests =
  [
    Alcotest.test_case "next-1 fit behaves exactly like next fit" `Quick (fun () ->
        let specs =
          [
            (0.0, 10.0, v [ 60 ]); (0.0, 10.0, v [ 60 ]); (1.0, 10.0, v [ 30 ]);
            (2.0, 10.0, v [ 40 ]); (3.0, 5.0, v [ 20 ]); (4.0, 9.0, v [ 70 ]);
          ]
        in
        let instance = inst specs in
        let nf = Engine.run ~policy:(Policy.next_fit ()) instance in
        let nf1 = Engine.run ~policy:(Policy.next_k_fit ~k:1 ()) instance in
        check_float "same cost" (Engine.cost nf) (Engine.cost nf1);
        Alcotest.(check (list (pair int int)))
          "same assignments"
          (List.map (fun (_, i, b) -> (i, b)) (Trace.placements nf.Engine.trace))
          (List.map (fun (_, i, b) -> (i, b)) (Trace.placements nf1.Engine.trace)));
    Alcotest.test_case "wide next-k fit matches first fit here" `Quick (fun () ->
        (* with k larger than the number of bins ever open, every open bin is
           a candidate, so NkF degenerates to First Fit *)
        let specs =
          [
            (0.0, 10.0, v [ 60 ]); (0.0, 10.0, v [ 60 ]); (1.0, 10.0, v [ 30 ]);
            (2.0, 10.0, v [ 40 ]); (3.0, 5.0, v [ 20 ]);
          ]
        in
        let instance = inst specs in
        let ff = Engine.run ~policy:(Policy.first_fit ()) instance in
        let nfk = Engine.run ~policy:(Policy.next_k_fit ~k:100 ()) instance in
        check_float "same cost" (Engine.cost ff) (Engine.cost nfk);
        check_int "same bins" ff.Engine.bins_opened nfk.Engine.bins_opened);
    Alcotest.test_case "next-2 fit saves a bin over next fit" `Quick (fun () ->
        (* the 40 fits the first candidate (60), which NF already released *)
        let specs =
          [
            (0.0, 10.0, v [ 60 ]); (0.0, 10.0, v [ 60 ]); (1.0, 10.0, v [ 30 ]);
            (2.0, 10.0, v [ 40 ]);
          ]
        in
        let instance = inst specs in
        let nf = Engine.run ~policy:(Policy.next_fit ()) instance in
        let nf2 = Engine.run ~policy:(Policy.next_k_fit ~k:2 ()) instance in
        check_int "nf bins" 3 nf.Engine.bins_opened;
        check_int "nf2 bins" 2 nf2.Engine.bins_opened);
    Alcotest.test_case "next_k_fit rejects k < 1" `Quick (fun () ->
        check_bool "raises" true
          (try ignore (Policy.next_k_fit ~k:0 ()); false
           with Invalid_argument _ -> true));
    Alcotest.test_case "of_name parses nf<k>" `Quick (fun () ->
        (match Policy.of_name "nf4" with
        | Ok p -> Alcotest.(check string) "name" "nf4" p.Policy.name
        | Error e -> Alcotest.fail e);
        check_bool "nf0 invalid" true (Result.is_error (Policy.of_name "nf0")));
    Alcotest.test_case "harmonic fit separates size classes" `Quick (fun () ->
        (* a 60 (class 0) and a 30 (class 2) never share, even though they
           fit together *)
        let specs = [ (0.0, 10.0, v [ 60 ]); (0.0, 10.0, v [ 30 ]) ] in
        let instance = inst specs in
        let run = Engine.run ~policy:(Policy.harmonic_fit ~capacity:cap ()) instance in
        check_int "two bins" 2 run.Engine.bins_opened);
    Alcotest.test_case "harmonic fit shares within a class" `Quick (fun () ->
        let specs = [ (0.0, 10.0, v [ 30 ]); (0.0, 10.0, v [ 28 ]) ] in
        let instance = inst specs in
        let run = Engine.run ~policy:(Policy.harmonic_fit ~capacity:cap ()) instance in
        check_int "one bin" 1 run.Engine.bins_opened);
    Alcotest.test_case "harmonic fit packs validly on a real workload" `Quick
      (fun () ->
        let params =
          { Dvbp_workload.Uniform_model.d = 2; n = 150; mu = 8; span = 60; bin_size = 20 }
        in
        let instance =
          Dvbp_workload.Uniform_model.generate params ~rng:(Rng.create ~seed:8)
        in
        let capacity = instance.Instance.capacity in
        let run = Engine.run ~policy:(Policy.harmonic_fit ~capacity ()) instance in
        match Packing.validate instance run.Engine.packing with
        | Ok () -> ()
        | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es));
    Alcotest.test_case "harmonic fit rejects bad class count" `Quick (fun () ->
        check_bool "raises" true
          (try ignore (Policy.harmonic_fit ~num_classes:0 ~capacity:cap ()); false
           with Invalid_argument _ -> true));
  ]

let misbehaving_policy_tests =
  [
    Alcotest.test_case "strict policy opening needlessly is rejected" `Quick
      (fun () ->
        let always_fresh =
          {
            Policy.name = "always-fresh";
            describe = "violates the Any Fit law";
            select = (fun ~item:_ ~open_bins:_ -> Policy.Fresh);
            on_place = (fun ~bin:_ ~now:_ -> ());
            on_close = (fun ~bin:_ ~now:_ -> ());
            strict_any_fit = true;
            export = (fun () -> []);
            import = (fun _ ~selects:_ ~bin:_ -> Ok ());
          }
        in
        let specs = [ (0.0, 2.0, v [ 10 ]); (1.0, 2.0, v [ 10 ]) ] in
        check_bool "raises" true
          (try ignore (Engine.run ~policy:always_fresh (inst specs)); false
           with Engine.Policy_error _ -> true));
    Alcotest.test_case "non-strict policy may open needlessly" `Quick (fun () ->
        let always_fresh =
          {
            Policy.name = "spendthrift";
            describe = "one bin per item";
            select = (fun ~item:_ ~open_bins:_ -> Policy.Fresh);
            on_place = (fun ~bin:_ ~now:_ -> ());
            on_close = (fun ~bin:_ ~now:_ -> ());
            strict_any_fit = false;
            export = (fun () -> []);
            import = (fun _ ~selects:_ ~bin:_ -> Ok ());
          }
        in
        let specs = [ (0.0, 2.0, v [ 10 ]); (1.0, 2.0, v [ 10 ]) ] in
        let r = Engine.run ~policy:always_fresh (inst specs) in
        check_int "bins" 2 r.bins_opened);
    Alcotest.test_case "selecting an overfull bin is rejected" `Quick (fun () ->
        let stubborn =
          {
            Policy.name = "stubborn";
            describe = "always the first bin, fitting or not";
            select =
              (fun ~item:_ ~open_bins ->
                match Bin_registry.find open_bins (fun _ -> true) with
                | None -> Policy.Fresh
                | Some b -> Policy.Existing b);
            on_place = (fun ~bin:_ ~now:_ -> ());
            on_close = (fun ~bin:_ ~now:_ -> ());
            strict_any_fit = false;
            export = (fun () -> []);
            import = (fun _ ~selects:_ ~bin:_ -> Ok ());
          }
        in
        let specs = [ (0.0, 2.0, v [ 60 ]); (1.0, 2.0, v [ 60 ]) ] in
        check_bool "raises" true
          (try ignore (Engine.run ~policy:stubborn (inst specs)); false
           with Engine.Policy_error _ -> true));
  ]

let trace_tests =
  [
    Alcotest.test_case "trace is chronological" `Quick (fun () ->
        let specs =
          [ (0.0, 3.0, v [ 30 ]); (1.0, 2.0, v [ 80 ]); (2.0, 4.0, v [ 50 ]) ]
        in
        let r = run_ff specs in
        let times = List.map Trace.time_of (Trace.events r.trace) in
        let rec sorted = function
          | a :: b :: rest -> a <= b && sorted (b :: rest)
          | _ -> true
        in
        check_bool "sorted" true (sorted times));
    Alcotest.test_case "every bin: opened, then placed, finally closed" `Quick
      (fun () ->
        let specs =
          [ (0.0, 3.0, v [ 30 ]); (1.0, 2.0, v [ 80 ]); (2.0, 4.0, v [ 50 ]) ]
        in
        let r = run_ff specs in
        List.iter
          (fun (_, bin_id) ->
            match Trace.events_of_bin r.trace bin_id with
            | Trace.Opened _ :: rest ->
                (match List.rev rest with
                | Trace.Closed _ :: _ -> ()
                | _ -> Alcotest.fail "bin does not end closed")
            | _ -> Alcotest.fail "bin does not start opened")
          (Trace.openings r.trace));
    Alcotest.test_case "trace exports to csv" `Quick (fun () ->
        let r = run_ff [ (0.0, 2.0, v [ 40 ]); (1.0, 3.0, v [ 50 ]) ] in
        let csv = Trace.to_csv r.trace in
        let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
        (* header + 2 opens-worth of events? one bin: open,place,place,depart,depart,close *)
        Alcotest.(check int) "rows" (1 + Trace.length r.trace) (List.length lines);
        Alcotest.(check string) "header" "kind,time,item_id,bin_id" (List.hd lines);
        Alcotest.(check bool) "has place row" true
          (List.exists (fun l -> String.length l > 5 && String.sub l 0 5 = "place") lines));
    Alcotest.test_case "placements match packing assignment" `Quick (fun () ->
        let specs =
          [ (0.0, 3.0, v [ 30 ]); (1.0, 2.0, v [ 80 ]); (2.0, 4.0, v [ 50 ]) ]
        in
        let r = run_ff specs in
        List.iter
          (fun (_, item_id, bin_id) ->
            Alcotest.(check (option int))
              "agrees" (Some bin_id)
              (Packing.bin_of_item r.packing item_id))
          (Trace.placements r.trace));
  ]

let edge_case_tests =
  [
    Alcotest.test_case "item filling a bin exactly" `Quick (fun () ->
        let r = run_ff [ (0.0, 1.0, v [ 100 ]); (0.0, 1.0, v [ 1 ]) ] in
        check_int "bins" 2 r.bins_opened);
    Alcotest.test_case "zero-size item shares any bin" `Quick (fun () ->
        let r = run_ff [ (0.0, 1.0, v [ 100 ]); (0.5, 1.0, v [ 0 ]) ] in
        check_int "bins" 1 r.bins_opened;
        check_float "cost" 1.0 (Engine.cost r));
    Alcotest.test_case "many simultaneous departures close in id order" `Quick
      (fun () ->
        let r =
          run_ff
            [ (0.0, 2.0, v [ 40 ]); (0.0, 2.0, v [ 40 ]); (0.0, 2.0, v [ 40 ]) ]
        in
        let departures =
          List.filter_map
            (function Trace.Departed { item_id; _ } -> Some item_id | _ -> None)
            (Trace.events r.trace)
        in
        Alcotest.(check (list int)) "ordered" [ 0; 1; 2 ] departures);
    Alcotest.test_case "an item spanning the whole horizon" `Quick (fun () ->
        let r =
          run_ff
            [ (0.0, 100.0, v [ 1 ]); (10.0, 11.0, v [ 99 ]); (50.0, 51.0, v [ 99 ]) ]
        in
        (* the two spikes share the long item's bin: 1+99 = 100 *)
        check_int "bins" 1 r.bins_opened;
        check_float "cost" 100.0 (Engine.cost r));
    Alcotest.test_case "chain of back-to-back items keeps one bin alive" `Quick
      (fun () ->
        let specs = List.init 10 (fun k -> (float_of_int k, float_of_int (k + 1), v [ 100 ])) in
        let r = run_ff specs in
        (* each item fills the bin; the previous departs exactly when the
           next arrives, so the bin closes and a new one opens every step *)
        check_int "bins" 10 r.bins_opened;
        check_float "cost" 10.0 (Engine.cost r);
        check_int "peak" 1 r.max_open_bins);
    Alcotest.test_case "fractional times work" `Quick (fun () ->
        let r = run_ff [ (0.25, 0.75, v [ 50 ]); (0.5, 1.25, v [ 60 ]) ] in
        check_int "bins" 2 r.bins_opened;
        check_float "cost" 1.25 (Engine.cost r));
    Alcotest.test_case "large instance smoke test" `Quick (fun () ->
        let params =
          { Dvbp_workload.Uniform_model.d = 5; n = 3000; mu = 50; span = 500; bin_size = 100 }
        in
        let instance =
          Dvbp_workload.Uniform_model.generate params ~rng:(Rng.create ~seed:99)
        in
        let r = Engine.run ~policy:(Policy.move_to_front ()) instance in
        check_bool "ran" true (Engine.cost r > 0.0);
        match Packing.validate instance r.packing with
        | Ok () -> ()
        | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es));
  ]

let suites =
  [
    ("engine.basics", basic_tests);
    ("engine.edge_cases", edge_case_tests);
    ("engine.policy_differences", policy_difference_tests);
    ("engine.policy_variants", variant_policy_tests);
    ("engine.misbehaving_policies", misbehaving_policy_tests);
    ("engine.trace", trace_tests);
  ]
