(* Exact order statistics over raw samples: every reported percentile is
   computed from the individual measurements, never from histogram
   buckets. *)

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let grown = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 grown 0 t.len;
      t.data <- grown
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* The interquartile mean: the mean of the middle half of the sorted
   samples (all of them when there are fewer than four). *)
let iqm samples =
  let a = sorted samples in
  let n = Array.length a in
  let cut = n / 4 in
  let mid = Array.sub a cut (n - (2 * cut)) in
  Array.fold_left ( +. ) 0.0 mid /. float_of_int (Array.length mid)
