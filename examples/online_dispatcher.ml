(* A live dispatcher built on the incremental Session API: requests are
   generated on the fly (the future is genuinely unknown to the policy),
   departures pop from a schedule the dispatcher cannot see, and the
   running cost / observable-lower-bound ratio is printed as the day
   unfolds — the operator's view of MinUsageTime DVBP.

   Run with: dune exec examples/online_dispatcher.exe *)

module Rng = Dvbp_prelude.Rng
module Vec = Dvbp_vec.Vec
module Core = Dvbp_core
module Session = Dvbp_engine.Session

(* pending departures in a min-heap keyed by time *)
module Schedule = struct
  module Heap = Dvbp_prelude.Heap

  let create () = Heap.create ~cmp:(fun (a, _) (b, _) -> Float.compare a b) ()
  let add t time item = Heap.add t (time, item)

  let rec pop_due t ~now =
    match Heap.peek_min t with
    | Some (time, _) when time <= now -> (
        match Heap.pop_min t with
        | Some due -> due :: pop_due t ~now
        | None -> [])
    | Some _ | None -> []
end

let () =
  let rng = Rng.create ~seed:77 in
  let capacity = Vec.of_list [ 100; 100 ] in
  let session =
    Session.create ~history:true ~capacity ~policy:(Core.Policy.move_to_front ()) ()
  in
  let departures = Schedule.create () in
  let clock = ref 0.0 in
  let horizon = 480.0 (* an 8-hour shift, in minutes *) in
  let report_every = 60.0 in
  let next_report = ref report_every in
  Printf.printf "%8s %10s %10s %8s %8s\n" "time" "cost" "bins-open" "active" "placed";
  let placed = ref 0 in
  while !clock < horizon do
    clock := !clock +. Rng.exponential rng ~mean:0.7;
    (* serve departures that became due, oldest first *)
    List.iter
      (fun (time, item_id) -> Session.depart session ~at:time ~item_id)
      (Schedule.pop_due departures ~now:!clock);
    (* a new request with an unknown (to the policy) service time *)
    let size =
      Vec.of_list
        [ Rng.int_incl rng ~lo:5 ~hi:60; Rng.int_incl rng ~lo:5 ~hi:60 ]
    in
    let placement = Session.arrive session ~at:!clock ~size () in
    incr placed;
    let service = 1.0 +. Rng.exponential rng ~mean:25.0 in
    Schedule.add departures (!clock +. service) placement.Session.item_id;
    if !clock >= !next_report then begin
      next_report := !next_report +. report_every;
      Printf.printf "%8.1f %10.1f %10d %8d %8d\n" !clock
        (Session.cost_so_far session)
        (List.length (Session.open_bins session))
        (Session.active_items session)
        !placed
    end
  done;
  (* drain: serve every remaining departure in order *)
  let rec drain () =
    match Schedule.pop_due departures ~now:infinity with
    | [] -> ()
    | due ->
        List.iter (fun (time, item_id) -> Session.depart session ~at:time ~item_id) due;
        drain ()
  in
  drain ();
  let final = Session.cost_so_far session in
  Printf.printf "\nshift over: %d requests, %d servers rented, %.1f server-minutes\n"
    !placed (Session.bins_opened session) final;
  let packing = Session.finish session ~at:(Session.now session) in
  Printf.printf "final packing has %d bins and validated cost %.1f\n"
    (Core.Packing.num_bins packing)
    (Core.Packing.cost packing)
