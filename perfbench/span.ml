(* Span recorder for the traced run.

   A span is one call from the benchmark into a layer of the program: the
   layer function's name, its start and end (wall seconds), and the work
   it covered (events or lines, whatever the layer counts). Spans are kept
   in memory while recording is on and written out once, as a TSV file,
   when the run ends. With recording off, [record] is a plain call. *)

type span = { name : string; start : float; stop : float; work : int }

let on = ref false
let finished : span list ref = ref []

let record ?(work = 0) name f =
  if not !on then f ()
  else begin
    let start = Unix.gettimeofday () in
    let close () = finished := { name; start; stop = Unix.gettimeofday (); work } :: !finished in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    !finished
  |> Array.of_list

(* total seconds and total work over every span with this name *)
let totals name =
  List.fold_left
    (fun (secs, work) s ->
      if s.name = name then (secs +. (s.stop -. s.start), work + s.work) else (secs, work))
    (0.0, 0) !finished

let ns_per_work name =
  let secs, work = totals name in
  if work = 0 then 0.0 else secs *. 1e9 /. float_of_int work

let write path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "name\tstart\tstop\twork\n";
      List.iter
        (fun s -> Printf.fprintf oc "%s\t%.6f\t%.6f\t%d\n" s.name s.start s.stop s.work)
        (List.rev !finished))
