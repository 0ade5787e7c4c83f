(* Ids ever accepted: a low-water mark, a bitmap window above it and
   ranges beyond the window, in a balanced map. See the .mli for the
   shape and its costs. *)

(* The window starts at 512 ids and doubles, up to its limit, when an id
   lands above it. Starting small keeps a fresh set on the minor
   heap: a session whose ids ascend never grows it, and an 8 KiB window
   allocated up front cost a fresh server a major GC slice (+1.2 ms
   before its first reply). *)
let initial_bytes = 64
let max_window_ids = 1 lsl 19

(* the ranges beyond the window: each range's low end to its high end *)
module Far = Map.Make (Int)

type t = {
  (* a multiple of 8; every id below it is a member *)
  mutable floor : int;
  (* the window [floor, floor + 8 * length): id [i] is bit [i land 7] of
     byte [(i lsr 3) land (length - 1)], the length a power of two, so
     moving the mark up by 8 frees exactly the byte the new top needs,
     with no copying *)
  mutable bits : Bytes.t;
  mutable ones : int;  (* bits set in the window *)
  mutable top_set : int;  (* highest id ever set in the window; -1 if none *)
  (* the ids at or above the window's top, as disjoint non-adjacent
     inclusive ranges *)
  mutable far : int Far.t;
  limit : int;  (* the widest window, in ids: a power of two *)
}

let create ?(expected_ids = 0) () =
  let rec limit w = if w >= expected_ids || w >= 1 lsl 40 then w else limit (2 * w) in
  {
    floor = 0;
    bits = Bytes.make initial_bytes '\000';
    ones = 0;
    top_set = -1;
    far = Far.empty;
    limit = limit max_window_ids;
  }

(* the highest mark that keeps [floor + limit] an int *)
let[@inline] floor_limit t = (max_int - t.limit) land lnot 7

let[@inline] window_ids t = 8 * Bytes.length t.bits
let[@inline] top t = t.floor + window_ids t
let[@inline] byte_index t id = (id lsr 3) land (Bytes.length t.bits - 1)
let[@inline] byte_at t id = Char.code (Bytes.unsafe_get t.bits (byte_index t id))

let set_bit t id =
  let i = byte_index t id in
  Bytes.unsafe_set t.bits i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits i) lor (1 lsl (id land 7))));
  t.ones <- t.ones + 1;
  if id > t.top_set then t.top_set <- id

(* {2 Far ranges} *)

(* the range with the highest low end at most [id] *)
let far_below t id = Far.find_last_opt (fun lo -> lo <= id) t.far

let member () = invalid_arg "Id_set.add: already a member"

let far_add t id =
  let lo =
    match far_below t id with
    | Some (_, hi) when id <= hi -> member ()
    | Some (lo, hi) when hi = id - 1 -> lo
    | _ -> id
  in
  (* at [max_int], [id + 1] wraps to a negative key, which is never there *)
  match Far.find_opt (id + 1) t.far with
  | Some hi -> t.far <- Far.add lo hi (Far.remove (id + 1) t.far)
  | None -> t.far <- Far.add lo id t.far

(* {2 Moving the window} *)

(* moves the ranges' ids below the window's top into the window *)
let rec migrate t =
  match Far.min_binding_opt t.far with
  | Some (lo, hi) when lo < top t ->
      let top = top t in
      for id = lo to Int.min hi (top - 1) do
        set_bit t id
      done;
      t.far <- Far.remove lo t.far;
      if hi >= top then t.far <- Far.add top hi t.far;
      migrate t
  | _ -> ()

(* Advances the mark past every leading all-ones byte. When the whole
   window is ones and a range continues it, the mark jumps to the range's
   end at once: stepping would cost one pass per 8 ids of the range. *)
let rec fold t =
  if t.floor < floor_limit t then
    match Far.min_binding_opt t.far with
    | Some (lo, hi) when t.ones = window_ids t && lo = top t ->
        t.far <- Far.remove lo t.far;
        Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
        t.ones <- 0;
        t.floor <- Int.min (hi land lnot 7) (floor_limit t);
        for id = t.floor to Int.min hi (top t - 1) do
          set_bit t id
        done;
        if hi >= top t then t.far <- Far.add (top t) hi t.far;
        migrate t;
        fold t
    | _ ->
        if byte_at t t.floor = 0xff then begin
          Bytes.unsafe_set t.bits (byte_index t t.floor) '\000';
          t.ones <- t.ones - 8;
          t.floor <- t.floor + 8;
          migrate t;
          fold t
        end

(* doubles the window, each byte moving to its slot under the new mask *)
let grow t =
  let old = t.bits in
  let n = Bytes.length old in
  t.bits <- Bytes.make (2 * n) '\000';
  for k = 0 to n - 1 do
    let id = t.floor + (8 * k) in
    Bytes.unsafe_set t.bits (byte_index t id) (Bytes.unsafe_get old ((id lsr 3) land (n - 1)))
  done;
  migrate t

(* {2 Interface} *)

let mem t id =
  if id < t.floor then id >= 0
  else if id < top t then byte_at t id land (1 lsl (id land 7)) <> 0
  else match far_below t id with Some (_, hi) -> id <= hi | None -> false

let add t id =
  if id < 0 then invalid_arg "Id_set.add: negative id";
  if id < t.floor then member ();
  if id - t.floor < t.limit then
    while id >= top t do
      grow t
    done;
  if id < top t then begin
    if byte_at t id land (1 lsl (id land 7)) <> 0 then member ();
    set_bit t id;
    if byte_at t t.floor = 0xff then fold t
  end
  else far_add t id

let of_ranges rs =
  let t = create () in
  t.far <- Far.of_seq (List.to_seq rs);
  migrate t;
  fold t;
  t

let ranges t =
  let out = ref [] in
  let add lo hi =
    match !out with
    | (plo, phi) :: rest when lo - 1 <= phi -> out := (plo, Int.max phi hi) :: rest
    | _ -> out := (lo, hi) :: !out
  in
  if t.floor > 0 then add 0 (t.floor - 1);
  (* the window byte by byte, up to its highest member; [run] is the
     first id of the run of members being read, -1 between runs *)
  let run = ref (-1) and base = ref t.floor in
  while !base <= t.top_set do
    let b = byte_at t !base in
    if b = 0xff then (if !run < 0 then run := !base)
    else if b = 0 then begin
      if !run >= 0 then add !run (!base - 1);
      run := -1
    end
    else
      for k = 0 to 7 do
        if b land (1 lsl k) <> 0 then (if !run < 0 then run := !base + k)
        else begin
          if !run >= 0 then add !run (!base + k - 1);
          run := -1
        end
      done;
    base := !base + 8
  done;
  if !run >= 0 then add !run (!base - 1);
  Far.iter add t.far;
  List.rev !out
