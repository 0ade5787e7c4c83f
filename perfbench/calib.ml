(* A fixed piece of CPU work that calls none of the program's code, timed
   between pieces of measured work.

   On a shared host the same CPU-bound work takes up to 1.7 times longer
   from one moment to the next, in spells of a second to minutes, and how
   much of a run the slow spells cover changes from run to run and from
   one half hour to the next. The calibration work slows with the host,
   so a time divided by the calibration time measured beside it is the
   time the work would have taken on a host running at the reference
   speed: one where [work] takes [reference_s]. A change to the program
   does not touch this work, so it still moves the calibrated figure.

   The work resembles the fit kernel it stands beside: best-fit scans over
   a few thousand packed 5-d residual vectors and their scores (about
   100 KB, so it stays in the same caches). *)

let slots = 2048
let dim = 5
let scans = 160

let free = Array.init (slots * dim) (fun i -> (i * 7919) land 1023)
let score = Array.init slots (fun i -> float_of_int ((i * 104729) land 4095))
let sink = ref 0

let work () =
  let acc = ref 0 in
  for q = 0 to scans - 1 do
    let need = (q * 37) land 255 in
    let best = ref (-1) and best_score = ref Float.infinity in
    for s = 0 to slots - 1 do
      let b = s * dim in
      if
        free.(b) >= need
        && free.(b + 1) >= need
        && free.(b + 2) >= need
        && free.(b + 3) >= need
        && free.(b + 4) >= need
        && score.(s) < !best_score
      then begin
        best := s;
        best_score := score.(s)
      end
    done;
    acc := !acc + !best
  done;
  sink := !sink + !acc

(* what [work] takes on the reference host, in seconds *)
let reference_s = 0.0008

(* seconds [work] takes now *)
let time () =
  let t0 = Unix.gettimeofday () in
  work ();
  Unix.gettimeofday () -. t0

(* [seconds] measured between two calibrations, on the reference host *)
let scale ~before ~after seconds = seconds *. reference_s /. ((before +. after) /. 2.0)
