(* Metamorphic and cross-cutting property tests.

   These laws hold for *every* deterministic policy by the structure of the
   model, so they catch engine bugs that unit tests with known answers
   cannot:
   - scale invariance: multiplying all sizes and the capacity by c changes
     nothing about the execution;
   - time translation: shifting all times by delta shifts the cost report
     but not assignments;
   - time dilation: multiplying all times by c multiplies the cost by c;
   - additivity: two time-separated sub-instances cost the sum of their
     separate runs;
   - trace accounting: cost equals the sum over bins of close - open. *)

open Dvbp_core
open Dvbp_engine
module Vec = Dvbp_vec.Vec
module Rng = Dvbp_prelude.Rng

let deterministic_policies = [ "mtf"; "ff"; "bf"; "nf"; "wf"; "lf" ]

(* random small instance generator shared by the laws *)
let instance_gen =
  QCheck2.Gen.(
    let* d = 1 -- 3 in
    let* n = 1 -- 12 in
    let* specs =
      list_repeat n
        (let* a = 0 -- 8 in
         let* dur = 1 -- 5 in
         let* size = array_repeat d (1 -- 10) in
         return (float_of_int a, float_of_int (a + dur), size))
    in
    let* policy = oneofl deterministic_policies in
    return (d, specs, policy))

let build d specs =
  Instance.of_specs_exn
    ~capacity:(Vec.make ~dim:d 10)
    (List.map (fun (a, e, s) -> (a, e, Vec.of_array s)) specs)

let run_policy name inst =
  Engine.run ~policy:(Policy.of_name_exn name) inst

let assignments run =
  List.map (fun (_, item, bin) -> (item, bin)) (Trace.placements run.Engine.trace)

let prop_scale_invariance =
  QCheck2.Test.make ~name:"scaling sizes+capacity changes nothing" ~count:200
    instance_gen (fun (d, specs, policy) ->
      let inst = build d specs in
      let scaled = Instance.scale_sizes inst ~factor:7 in
      let a = run_policy policy inst and b = run_policy policy scaled in
      assignments a = assignments b
      && Float.abs (Engine.cost a -. Engine.cost b) < 1e-9)

let prop_time_translation =
  QCheck2.Test.make ~name:"shifting time preserves assignments and cost" ~count:200
    instance_gen (fun (d, specs, policy) ->
      let inst = build d specs in
      let shifted = Instance.shift inst ~by:13.5 in
      let a = run_policy policy inst and b = run_policy policy shifted in
      assignments a = assignments b
      && Float.abs (Engine.cost a -. Engine.cost b) < 1e-6)

let prop_time_dilation =
  QCheck2.Test.make ~name:"dilating time scales the cost" ~count:200 instance_gen
    (fun (d, specs, policy) ->
      let inst = build d specs in
      let dilated = Instance.scale_time inst ~factor:3.0 in
      let a = run_policy policy inst and b = run_policy policy dilated in
      assignments a = assignments b
      && Float.abs ((3.0 *. Engine.cost a) -. Engine.cost b) < 1e-6)

let prop_additivity =
  QCheck2.Test.make ~name:"time-separated copies cost the sum" ~count:200
    instance_gen (fun (d, specs, policy) ->
      let inst = build d specs in
      let far = Instance.horizon inst +. 5.0 in
      let copy = Instance.shift inst ~by:far in
      match Instance.merge [ inst; copy ] with
      | Error e -> QCheck2.Test.fail_report e
      | Ok merged ->
          let single = Engine.cost (run_policy policy inst) in
          let double = Engine.cost (run_policy policy merged) in
          Float.abs ((2.0 *. single) -. double) < 1e-6)

let prop_trace_accounting =
  QCheck2.Test.make ~name:"cost = sum over bins of close - open" ~count:200
    instance_gen (fun (d, specs, policy) ->
      let inst = build d specs in
      let run = run_policy policy inst in
      let opens = Trace.openings run.Engine.trace in
      let closes = Trace.closings run.Engine.trace in
      let by_bin = List.map (fun (t, b) -> (b, t)) closes in
      let from_trace =
        List.fold_left
          (fun acc (t_open, bin) -> acc +. (List.assoc bin by_bin -. t_open))
          0.0 opens
      in
      Float.abs (from_trace -. Engine.cost run) < 1e-6)

let prop_bins_opened_consistent =
  QCheck2.Test.make ~name:"bins_opened = #Opened events = #bins in packing"
    ~count:200 instance_gen (fun (d, specs, policy) ->
      let inst = build d specs in
      let run = run_policy policy inst in
      run.Engine.bins_opened = List.length (Trace.openings run.Engine.trace)
      && run.Engine.bins_opened = Packing.num_bins run.Engine.packing)

let prop_every_packing_validates =
  QCheck2.Test.make ~name:"every policy's packing validates" ~count:200
    instance_gen (fun (d, specs, policy) ->
      let inst = build d specs in
      let run = run_policy policy inst in
      Result.is_ok (Packing.validate inst run.Engine.packing))

let prop_rf_validates_too =
  QCheck2.Test.make ~name:"random fit packs validly" ~count:100
    QCheck2.Gen.(pair instance_gen (0 -- 1000))
    (fun ((d, specs, _), seed) ->
      let inst = build d specs in
      let rng = Rng.create ~seed in
      let run = Engine.run ~policy:(Policy.random_fit ~rng ()) inst in
      Result.is_ok (Packing.validate inst run.Engine.packing))

let prop_policies_conform =
  QCheck2.Test.make ~name:"every deterministic policy passes conformance replay"
    ~count:200 instance_gen (fun (d, specs, policy) ->
      let inst = build d specs in
      let run = run_policy policy inst in
      match Dvbp_analysis.Conformance.semantics_of_name policy with
      | None -> true
      | Some semantics ->
          Result.is_ok (Dvbp_analysis.Conformance.check semantics inst run.Engine.trace))

let prop_runs_deterministic =
  QCheck2.Test.make ~name:"identical runs produce identical traces" ~count:150
    instance_gen (fun (d, specs, policy) ->
      let inst = build d specs in
      let a = run_policy policy inst and b = run_policy policy inst in
      Trace.events a.Engine.trace = Trace.events b.Engine.trace)

let prop_session_equals_engine =
  QCheck2.Test.make ~name:"session replay equals batch engine" ~count:150
    instance_gen (fun (d, specs, policy) ->
      let inst = build d specs in
      let batch = run_policy policy inst in
      let session =
        Session.create ~history:true ~capacity:inst.Instance.capacity
          ~policy:(Policy.of_name_exn policy) ()
      in
      let events =
        List.concat_map
          (fun (r : Item.t) ->
            [ (r.Item.departure, 0, r); (r.Item.arrival, 1, r) ])
          inst.Instance.items
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
      Float.abs (Packing.cost packing -. Engine.cost batch) < 1e-9
      && Packing.num_bins packing = Packing.num_bins batch.Engine.packing)

let prop_trace_io_roundtrip =
  QCheck2.Test.make ~name:"CSV trace round-trip is lossless" ~count:150
    instance_gen (fun (d, specs, _) ->
      let inst = build d specs in
      match Dvbp_workload.Trace_io.of_string (Dvbp_workload.Trace_io.to_string inst) with
      | Error _ -> false
      | Ok inst' ->
          Vec.equal inst.Instance.capacity inst'.Instance.capacity
          && List.for_all2
               (fun (a : Item.t) (b : Item.t) ->
                 a.Item.id = b.Item.id && a.Item.arrival = b.Item.arrival
                 && a.Item.departure = b.Item.departure
                 && Vec.equal a.Item.size b.Item.size)
               inst.Instance.items inst'.Instance.items)

let prop_monitor_final_matches =
  QCheck2.Test.make ~name:"online monitor trajectory ends at the run totals"
    ~count:200 instance_gen (fun (d, specs, policy) ->
      let inst = build d specs in
      let run = run_policy policy inst in
      let points = Dvbp_analysis.Online_monitor.trajectory inst run.Engine.trace in
      match List.rev points with
      | [] -> false
      | last :: _ ->
          Float.abs (last.Dvbp_analysis.Online_monitor.cost_so_far -. Engine.cost run)
            < 1e-6
          && Float.abs
               (last.Dvbp_analysis.Online_monitor.lower_bound_so_far
               -. Dvbp_lowerbound.Bounds.height_integral inst)
             < 1e-6)

let suites =
  [
    ( "props.metamorphic",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_scale_invariance;
          prop_time_translation;
          prop_time_dilation;
          prop_additivity;
          prop_trace_accounting;
          prop_bins_opened_consistent;
          prop_every_packing_validates;
          prop_rf_validates_too;
          prop_policies_conform;
          prop_runs_deterministic;
          prop_session_equals_engine;
          prop_trace_io_roundtrip;
          prop_monitor_final_matches;
        ] );
  ]
