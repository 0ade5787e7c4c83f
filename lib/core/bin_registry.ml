module Vec = Dvbp_vec.Vec
module Dynarray = Dvbp_prelude.Dynarray

(* Alongside the bin array, the registry keeps the packed residual
   capacities ([capacity - load], [dim] coordinates per slot) of every
   slot in one flat int array. The fit scan — one test per open bin per
   arrival, the hottest loop in a simulation — then reads a few KB of
   contiguous memory instead of chasing each bin's record and load
   vector through the heap.

   On top of that scalar mirror, when the capacity is small enough
   (byte-sized components, dim <= 8) the registry maintains a second,
   SWAR mirror: ALL [dim] residuals of a slot in ONE native int, one
   [lane = 63/dim]-bit lane per dimension. Each lane is

        bit lane-1   bit lane-2    bits lane-3 .. 0
       [ guard = 1 ][ slack = 0 ][ residual (payload) ]

   and a whole slot's fit test is one masked subtract:

        ((word - item_word) land guard_mask) = guard_mask

   where [item_word] packs the item's coordinates into the payload bits
   of the same lanes. Within a lane the subtraction computes
   [2^(lane-1) + r_j - s_j]; both r_j and s_j fit in [lane - 2] payload
   bits, so the lane's value stays in (0, 2^lane) — no borrow ever
   crosses a lane boundary — and its guard bit survives iff
   [r_j >= s_j]. Dead slots (tombstones of closed bins) store the poison
   word whose every lane is [2^(lane-1) - 1] (guard clear, payload and
   slack bits all set): subtracting any payload-bounded item leaves each
   lane in [2^(lane-2), 2^(lane-1) - 1] — still borrow-free, guard still
   clear — so tombstones fail the test for free, for every item
   including the all-zero one. That slack bit is what makes the poison
   airtight: with only a guard above the payload, [0 - s] wraps and sets
   the guard for any positive [s].

   The kernel is chosen once at [create] (see [swar_lane_bits]); when the
   precondition fails (dim > 8, or a capacity component above the lane
   payload) every scan falls back to the per-dimension scalar loop over
   [free]. Both kernels walk slots in the same order and are counted by
   the same [note_scan] bookkeeping, so results AND scan statistics are
   bit-identical — pinned by the differential tests in test_registry.ml.

   The price of the mirrors is that the engine must call {!refresh}
   after mutating a bin's load; the session does this in exactly two
   places (place, remove).

   Finally, for Best Fit and Worst Fit, the registry keeps a residual
   bucket index: per dimension j, the live slots grouped by [r_j], one
   bucket per value when [cap_j <= 255] and otherwise [2^shift]-wide
   buckets, at most 256 of them. A bin can hold an item only if it sits
   in a bucket at or above [s_j] in every dimension, so the BF/WF scans
   walk just those buckets of the one dimension where the item is
   largest relative to capacity, and run the fit test on those slots
   alone. Each bucket is a contiguous array with swap-remove; [ipos]
   records every indexed slot's position in each of its [dim] buckets.
   The first BF/WF query builds the index, so policies that never ask
   (FF, MTF, ...) never pay for it; after that {!write_free} and
   {!kill_slot} keep it current and array growth extends [ipos].
   Compaction renumbers every slot, so it drops the index and the next
   BF/WF query rebuilds it. *)

(* Lane width of the SWAR word for this dimension, or 0 when the kernel
   is unavailable. The packability of the capacity itself is delegated
   to the bounds-checked {!Vec.pack_u8} codec, so the precondition lives
   in exactly one place: dim <= 8 and every component at most
   [Vec.max_packable ~lane_bits:(63 / dim)] — the full u8 range 255 for
   dim <= 6, then 127 at dim = 7 and 31 at dim = 8, where the 63-bit
   word runs out of payload bits. *)
let swar_lane_bits capacity =
  let dim = Vec.dim capacity in
  if dim > 8 then 0
  else
    let lane = 63 / dim in
    match Vec.pack_u8 ~lane_bits:lane capacity with
    | (_ : int) -> lane
    | exception Invalid_argument _ -> 0

(* Per-dimension lookup tables for the fill ratio fl((c_j - f) / c_j),
   indexed by the residual [f] in [0, c_j]. Built once at [create] when
   the capacity components are small (they always are under the SWAR
   precondition); each entry is computed with exactly the float
   operations {!measure_of_slot} would otherwise perform, so a lookup is
   bit-identical to the division it replaces. An empty table (component
   above the build threshold) falls back to the live computation. *)
let ratio_table_max_component = 65535

let build_ratio_tables (cap : int array) =
  Array.map
    (fun c ->
      if c < 0 || c > ratio_table_max_component then [||]
      else
        Array.init (c + 1) (fun f -> float_of_int (c - f) /. float_of_int c))
    cap

let[@inline] ratio_at (rat : float array array) (cap : int array) j f =
  let rj = Array.unsafe_get rat j in
  if f >= 0 && f < Array.length rj then Array.unsafe_get rj f
  else
    let c = Array.unsafe_get cap j in
    float_of_int (c - f) /. float_of_int c

type t = {
  dim : int;
  cap : int array;  (* the shared bin capacity, for measure evaluation *)
  rat : float array array;  (* fill-ratio tables, one per dimension *)
  bins : Bin.t Dynarray.t;  (* ascending open order; closed bins = tombstones *)
  mutable free : int array;  (* packed residuals, [dim] per slot *)
  (* SWAR kernel parameters, fixed at [create]; [lane = 0] means scalar *)
  swar : bool;
  lane : int;
  gmask : int;  (* one guard bit per lane *)
  pmax : int;  (* largest packable coordinate; above it nothing fits *)
  dead_word : int;  (* the tombstone poison: every lane 2^(lane-1) - 1 *)
  mutable packed : int array;  (* one SWAR word per slot (swar only) *)
  (* per-slot load-measure caches, refreshed by {!write_free} with the
     exact float operations of {!measure_of_slot}: the BF/WF argmax
     reads one float per fitting candidate instead of recomputing the
     measure from [dim] residuals. Dead slots keep a stale score that no
     scan ever reads (their fit test always fails). Lp is not cached —
     its exponent is a per-call parameter. *)
  mutable linf : float array;
  mutable l1 : float array;
  (* residual bucket index (see the module header); allocated by the
     first BF/WF query *)
  mutable indexed : bool;
  ishift : int array;  (* per dim: residual r lies in bucket r lsr ishift.(j) *)
  ibase : int array;  (* per dim: its first bucket id; [ibase.(dim)] = total *)
  mutable buckets : int array array;  (* per bucket id: its member slots *)
  mutable bcount : int array;  (* per bucket id: live length of [buckets] *)
  mutable ipos : int array;  (* per slot and dim: position in its bucket, or -1 *)
  mutable live : int;
  mutable dead : int;
  (* Proof memo for the strict Any Fit law: when a whole-registry scan
     proves that [miss_size] fits nowhere, the engine's follow-up
     [exists_fitting] (same size, no mutation in between — [stamp] is
     bumped on every mutation) is answered without rescanning. A fresh
     open would otherwise pay the full scan twice: once in the policy's
     select, once in the conformance check. *)
  mutable stamp : int;
  mutable miss_size : int array;  (* compared physically *)
  mutable miss_stamp : int;
  (* Observability tallies (two int stores per fit scan, never read on
     the hot path; scraped by [scan_stats]). *)
  mutable stat_scans : int;
  mutable stat_candidates : int;
  mutable stat_memo_hits : int;
}

type scan_stats = { scans : int; candidates : int; memo_hits : int }

(* Bucket geometry of one dimension: the smallest shift that leaves at
   most 256 buckets over the residuals [0, c] — 0 (one bucket per value)
   whenever [c <= 255]. *)
let bucket_shift c =
  let s = ref 0 in
  while c lsr !s > 255 do
    incr s
  done;
  !s

let create ?(kernel = `Auto) ~capacity () =
  (* the dummy bin fills unused backing slots; it is never traversed *)
  let dummy = Bin.create ~id:(-1) ~capacity ~now:0.0 ~touch:0 in
  let dim = Vec.dim capacity in
  let lane = match kernel with `Scalar -> 0 | `Auto -> swar_lane_bits capacity in
  let swar = lane > 0 in
  let gmask = ref 0 and dead_word = ref 0 in
  if swar then
    for j = 0 to dim - 1 do
      gmask := !gmask lor (1 lsl ((lane * j) + lane - 1));
      dead_word := !dead_word lor (((1 lsl (lane - 1)) - 1) lsl (lane * j))
    done;
  let slots = 8 in
  let cap = (capacity :> int array) in
  let ishift = Array.map bucket_shift cap in
  let ibase = Array.make (dim + 1) 0 in
  for j = 0 to dim - 1 do
    ibase.(j + 1) <- ibase.(j) + (cap.(j) lsr ishift.(j)) + 1
  done;
  {
    dim;
    cap;
    rat = build_ratio_tables cap;
    bins = Dynarray.create ~dummy ();
    free = Array.make (dim * slots) (-1);
    swar;
    lane;
    gmask = !gmask;
    pmax = (if swar then Vec.max_packable ~lane_bits:lane else 0);
    dead_word = !dead_word;
    packed = (if swar then Array.make slots !dead_word else [||]);
    linf = Array.make slots 0.0;
    l1 = Array.make slots 0.0;
    indexed = false;
    ishift;
    ibase;
    buckets = [||];
    bcount = [||];
    ipos = [||];
    live = 0;
    dead = 0;
    stamp = 0;
    miss_size = [||];
    miss_stamp = -1;
    stat_scans = 0;
    stat_candidates = 0;
    stat_memo_hits = 0;
  }

let count t = t.live
let kernel_name t = if t.swar then "swar" else "scalar"

let scan_stats t =
  { scans = t.stat_scans; candidates = t.stat_candidates; memo_hits = t.stat_memo_hits }

let[@inline] note_scan t examined =
  t.stat_scans <- t.stat_scans + 1;
  t.stat_candidates <- t.stat_candidates + examined

(* Residual bucket index maintenance. [bucket_insert] appends [slot] to
   bucket [g] for dimension [j]; [bucket_remove] swap-removes the member
   at position [p] and re-points the slot moved into the hole. *)
let bucket_insert t g slot j =
  let c = Array.unsafe_get t.bcount g in
  let members = Array.unsafe_get t.buckets g in
  let members =
    if c < Array.length members then members
    else begin
      let bigger = Array.make (max 4 (2 * c)) (-1) in
      Array.blit members 0 bigger 0 c;
      t.buckets.(g) <- bigger;
      bigger
    end
  in
  Array.unsafe_set members c slot;
  Array.unsafe_set t.bcount g (c + 1);
  Array.unsafe_set t.ipos ((slot * t.dim) + j) c

let bucket_remove t g p j =
  let last = Array.unsafe_get t.bcount g - 1 in
  let members = Array.unsafe_get t.buckets g in
  let moved = Array.unsafe_get members last in
  Array.unsafe_set members p moved;
  Array.unsafe_set t.ipos ((moved * t.dim) + j) p;
  Array.unsafe_set t.bcount g last

let[@inline] bucket_of t j r =
  Array.unsafe_get t.ibase j + (r lsr Array.unsafe_get t.ishift j)

(* Moves [slot] to the buckets of its new residuals [cap - load]; called
   before {!write_free} overwrites [free], which still holds the old
   residuals of an indexed slot. *)
let reindex_slot t slot (cap : int array) (load : int array) =
  let base = slot * t.dim in
  for j = 0 to t.dim - 1 do
    let g = bucket_of t j (Array.unsafe_get cap j - Array.unsafe_get load j) in
    let p = Array.unsafe_get t.ipos (base + j) in
    if p < 0 then bucket_insert t g slot j
    else begin
      let old = bucket_of t j (Array.unsafe_get t.free (base + j)) in
      if old <> g then begin
        bucket_remove t old p j;
        bucket_insert t g slot j
      end
    end
  done

let unindex_slot t slot =
  let base = slot * t.dim in
  if Array.unsafe_get t.ipos base >= 0 then
    for j = 0 to t.dim - 1 do
      bucket_remove t (bucket_of t j (Array.unsafe_get t.free (base + j)))
        (Array.unsafe_get t.ipos (base + j)) j;
      Array.unsafe_set t.ipos (base + j) (-1)
    done

(* Re-mirrors slot [slot] from the bin record: the bucket index (once
   built), the scalar residuals, the SWAR word, and the cached Linf/L1
   scores. The score accumulation mirrors {!measure_of_slot} operation
   for operation, so a cached score and a recomputed one are the same
   float. *)
let[@inline] write_free t slot (b : Bin.t) =
  let cap = (b.Bin.capacity :> int array)
  and load = (b.Bin.load :> int array) in
  if t.indexed then reindex_slot t slot cap load;
  let free = t.free in
  let rat = t.rat in
  let d = t.dim in
  let base = slot * d in
  let best = ref 0.0 and sum = ref 0.0 in
  if t.swar then begin
    let lane = t.lane in
    let word = ref t.gmask in
    for j = 0 to d - 1 do
      let r = Array.unsafe_get cap j - Array.unsafe_get load j in
      Array.unsafe_set free (base + j) r;
      let ratio = ratio_at rat cap j r in
      if ratio > !best then best := ratio;
      sum := !sum +. ratio;
      word := !word lor (r lsl (lane * j))
    done;
    Array.unsafe_set t.packed slot !word
  end
  else
    for j = 0 to d - 1 do
      let r = Array.unsafe_get cap j - Array.unsafe_get load j in
      Array.unsafe_set free (base + j) r;
      let ratio = ratio_at rat cap j r in
      if ratio > !best then best := ratio;
      sum := !sum +. ratio
    done;
  Array.unsafe_set t.linf slot !best;
  Array.unsafe_set t.l1 slot !sum

let[@inline] kill_slot t slot =
  if t.indexed then unindex_slot t slot;
  t.free.(slot * t.dim) <- -1;
  if t.swar then t.packed.(slot) <- t.dead_word

let ensure_free_capacity t slots =
  let need = slots * t.dim in
  if Array.length t.free < need then begin
    let grown = max need (2 * Array.length t.free) in
    let bigger = Array.make grown (-1) in
    Array.blit t.free 0 bigger 0 (Array.length t.free);
    t.free <- bigger;
    let grown_slots = (grown + t.dim - 1) / t.dim in
    if t.swar then begin
      let bigger = Array.make grown_slots t.dead_word in
      Array.blit t.packed 0 bigger 0 (Array.length t.packed);
      t.packed <- bigger
    end;
    let linf = Array.make grown_slots 0.0 and l1 = Array.make grown_slots 0.0 in
    Array.blit t.linf 0 linf 0 (Array.length t.linf);
    Array.blit t.l1 0 l1 0 (Array.length t.l1);
    t.linf <- linf;
    t.l1 <- l1;
    if t.indexed then begin
      let ipos = Array.make grown (-1) in
      Array.blit t.ipos 0 ipos 0 (Array.length t.ipos);
      t.ipos <- ipos
    end
  end

(* (Re)builds the bucket index from the residual mirror: every open slot
   in ascending order, into emptied buckets. Allocates the buckets on the
   first call only. *)
let build_index t =
  let d = t.dim in
  let nbuckets = t.ibase.(d) in
  if Array.length t.buckets = 0 then begin
    t.buckets <- Array.make nbuckets [||];
    t.bcount <- Array.make nbuckets 0
  end
  else Array.fill t.bcount 0 nbuckets 0;
  if Array.length t.ipos = Array.length t.free then
    Array.fill t.ipos 0 (Array.length t.ipos) (-1)
  else t.ipos <- Array.make (Array.length t.free) (-1);
  for slot = 0 to Dynarray.length t.bins - 1 do
    if Bin.is_open (Dynarray.unsafe_get t.bins slot) then
      for j = 0 to d - 1 do
        bucket_insert t (bucket_of t j t.free.((slot * d) + j)) slot j
      done
  done;
  t.indexed <- true

let[@inline] bump t = t.stamp <- t.stamp + 1

let[@inline] record_miss t (size : int array) =
  t.miss_size <- size;
  t.miss_stamp <- t.stamp

let[@inline] proven_miss t (size : int array) =
  t.miss_stamp = t.stamp && t.miss_size == size

let add t b =
  if not (Bin.is_open b) then invalid_arg "Bin_registry.add: bin is closed";
  bump t;
  Dynarray.push t.bins b;
  let slot = Dynarray.length t.bins - 1 in
  ensure_free_capacity t (slot + 1);
  write_free t slot b;
  Bin.set_registry_slot b slot;
  t.live <- t.live + 1

let refresh t (b : Bin.t) =
  let slot = b.Bin.registry_slot in
  if slot < 0 then invalid_arg "Bin_registry.refresh: bin is not registered";
  bump t;
  write_free t slot b

let compact t =
  Dynarray.filter_in_place t.bins Bin.is_open;
  (* every surviving slot moves: drop the bucket index rather than patch
     it slot by slot, and let the next BF/WF query rebuild it *)
  t.indexed <- false;
  for i = 0 to Dynarray.length t.bins - 1 do
    let b = Dynarray.unsafe_get t.bins i in
    write_free t i b;
    Bin.set_registry_slot b i
  done;
  t.dead <- 0

let note_closed t b =
  if Bin.is_open b then invalid_arg "Bin_registry.note_closed: bin still open";
  let slot = b.Bin.registry_slot in
  if slot < 0 then invalid_arg "Bin_registry.note_closed: bin is not registered";
  bump t;
  kill_slot t slot;
  Bin.set_registry_slot b (-1);
  t.live <- t.live - 1;
  t.dead <- t.dead + 1;
  (* Closed bins cost one failing residual test per scan until compaction.
     Compacting once a quarter of the slots are dead keeps scan length
     within 1.25x of the live count while still amortising the O(n)
     sweep over at least live/4 closes. *)
  if 4 * t.dead > t.live then compact t

let[@inline] alive (b : Bin.t) =
  match b.Bin.closed_at with None -> true | Some _ -> false

(* Predicate traversals (class-constrained policies, observers): these
   walk the bin records themselves, skipping tombstones. *)

let iter t f =
  let bins = t.bins in
  for i = 0 to Dynarray.length bins - 1 do
    let b = Dynarray.unsafe_get bins i in
    if alive b then f b
  done

let find t p =
  let bins = t.bins in
  let n = Dynarray.length bins in
  let rec go i =
    if i >= n then None
    else
      let b = Dynarray.unsafe_get bins i in
      if alive b && p b then Some b else go (i + 1)
  in
  go 0

let rfind t p =
  let bins = t.bins in
  let rec go i =
    if i < 0 then None
    else
      let b = Dynarray.unsafe_get bins i in
      if alive b && p b then Some b else go (i - 1)
  in
  go (Dynarray.length bins - 1)

let fold t f init =
  let bins = t.bins in
  let n = Dynarray.length bins in
  let rec go acc i =
    if i >= n then acc
    else
      let b = Dynarray.unsafe_get bins i in
      go (if alive b then f acc b else acc) (i + 1)
  in
  go init 0

(* Fit scans. Two interchangeable inner kernels, selected once per scan:

   - scalar: a direct while-loop over the per-dimension residual mirror.
     The per-slot test is branchless — [size] fits iff every
     [free_j - size_j] is non-negative, i.e. iff OR-ing the differences
     leaves the sign bit clear. An early-exit comparison loop looks
     cheaper but its exit point varies per slot, and the resulting branch
     mispredictions dominated the scan; a dead slot's [-1] poison
     residual drives the OR negative just like any other miss.

   - swar: one masked subtract per slot over the packed-word mirror (see
     the module header). The item's word is packed once per scan.

   Both walk the same slot order and return the same indices, so every
   caller's result and candidate count are kernel-independent. *)

let[@inline] coerce_size t (size : Vec.t) =
  if Vec.dim size <> t.dim then
    invalid_arg "Bin_registry: size dimension does not match capacity";
  (size :> int array)

(* The item's SWAR word, or -1 when some coordinate exceeds the lane
   payload — capacities are bounded by [pmax], so such an item fits
   nowhere and the caller answers "miss" with full-scan statistics,
   exactly like the scalar kernel scanning every slot. *)
let[@inline] pack_size t (size : int array) =
  let d = t.dim and lane = t.lane and pmax = t.pmax in
  let word = ref 0 and j = ref 0 and ok = ref true in
  while !ok && !j < d do
    let s = Array.unsafe_get size !j in
    if s > pmax then ok := false
    else begin
      word := !word lor (s lsl (lane * !j));
      incr j
    end
  done;
  if !ok then !word else -1

(* first slot index in [i0, stop) whose residuals fit [size], else [stop] *)
let[@inline] scan_up (free : int array) (size : int array) d stop i0 =
  let i = ref i0 and base = ref (i0 * d) and found = ref false in
  while (not !found) && !i < stop do
    let acc = ref 0 in
    for j = 0 to d - 1 do
      acc :=
        !acc lor (Array.unsafe_get free (!base + j) - Array.unsafe_get size j)
    done;
    if !acc >= 0 then found := true
    else begin
      incr i;
      base := !base + d
    end
  done;
  !i

(* SWAR twin of [scan_up]: one word per slot, [iw] packed once by the
   caller. *)
let[@inline] scan_up_swar (packed : int array) iw gmask stop i0 =
  let i = ref i0 and found = ref false in
  while (not !found) && !i < stop do
    if (Array.unsafe_get packed !i - iw) land gmask = gmask then found := true
    else incr i
  done;
  !i

let find_fitting t size =
  let size = coerce_size t size in
  let n = Dynarray.length t.bins in
  let i =
    if t.swar then begin
      let iw = pack_size t size in
      if iw < 0 then n else scan_up_swar t.packed iw t.gmask n 0
    end
    else scan_up t.free size t.dim n 0
  in
  note_scan t (if i < n then i + 1 else n);
  if i < n then Some (Dynarray.unsafe_get t.bins i)
  else begin
    record_miss t size;
    None
  end

(* last slot index in [0, top] whose residuals fit, else -1 *)
let[@inline] scan_down (free : int array) (size : int array) d top =
  let i = ref top and base = ref (top * d) and found = ref false in
  while (not !found) && !i >= 0 do
    let acc = ref 0 in
    for j = 0 to d - 1 do
      acc :=
        !acc lor (Array.unsafe_get free (!base + j) - Array.unsafe_get size j)
    done;
    if !acc >= 0 then found := true
    else begin
      decr i;
      base := !base - d
    end
  done;
  !i

let[@inline] scan_down_swar (packed : int array) iw gmask top =
  let i = ref top and found = ref false in
  while (not !found) && !i >= 0 do
    if (Array.unsafe_get packed !i - iw) land gmask = gmask then found := true
    else decr i
  done;
  !i

let rfind_fitting t size =
  let size = coerce_size t size in
  let n = Dynarray.length t.bins in
  let i =
    if t.swar then begin
      let iw = pack_size t size in
      if iw < 0 then -1 else scan_down_swar t.packed iw t.gmask (n - 1)
    end
    else scan_down t.free size t.dim (n - 1)
  in
  note_scan t (if i >= 0 then n - i else n);
  if i >= 0 then Some (Dynarray.unsafe_get t.bins i)
  else begin
    record_miss t size;
    None
  end

(* Load measure of the slot at [base], computed from the packed
   residuals. The residual is exactly [cap - load] (integer arithmetic),
   so recovering the load and applying the same float operations in the
   same order yields the bit-identical value {!Bin.load_measure} returns
   — argmax/argmin ties therefore break exactly as they would when
   scoring the bin records. The fill ratio comes from the per-dimension
   table when the residual indexes it (every live slot does); the
   fallback division computes the very same value, so the two paths are
   interchangeable bit for bit. *)
let measure_of_slot t (m : Load_measure.t) (free : int array) base =
  let d = t.dim and cap = t.cap and rat = t.rat in
  match m with
  | Load_measure.Linf ->
      let best = ref 0.0 in
      for j = 0 to d - 1 do
        let r = ratio_at rat cap j (Array.unsafe_get free (base + j)) in
        if r > !best then best := r
      done;
      !best
  | Load_measure.L1 ->
      let acc = ref 0.0 in
      for j = 0 to d - 1 do
        acc := !acc +. ratio_at rat cap j (Array.unsafe_get free (base + j))
      done;
      !acc
  | Load_measure.Lp p ->
      let acc = ref 0.0 in
      for j = 0 to d - 1 do
        acc :=
          !acc +. (ratio_at rat cap j (Array.unsafe_get free (base + j)) ** p)
      done;
      !acc ** (1.0 /. p)

(* Argmax/argmin of the load measure over the fitting bins, fused into
   the index walk (best-fit/worst-fit never touch the bin records until
   the winner is known).

   A bin fits only if every residual covers the item, so it suffices to
   test the slots in buckets at or above [s_k] of a single dimension [k];
   the walk takes the dimension where the item is largest relative to
   capacity, whose buckets hold the fewest such slots in a typical fleet.
   Coarse buckets (capacity above 255) may also hold slots just below
   [s_k], and the kernel's fit test filters them like any other miss.
   Buckets are unordered, so the winner is the best score with ties to
   the LOWER slot — exactly the bin the ascending full scan keeps when
   strict improvement replaces. Both kernels walk the same buckets, so
   the candidate count (slots whose fit test ran) is kernel-independent. *)
let extremal_loaded_fitting t (measure : Load_measure.t) size ~largest =
  let size = coerce_size t size in
  if not t.indexed then build_index t;
  let d = t.dim and cap = t.cap and free = t.free in
  let k = ref 0 and kratio = ref neg_infinity in
  for j = 0 to d - 1 do
    let r =
      float_of_int (Array.unsafe_get size j) /. float_of_int (Array.unsafe_get cap j)
    in
    if r > !kratio then begin
      k := j;
      kratio := r
    end
  done;
  let k = !k in
  let sk = Array.unsafe_get size k in
  let swar = t.swar and packed = t.packed and gmask = t.gmask in
  (* cached per-slot scores where the measure has a cache (Linf, L1);
     an empty array routes Lp through the live computation *)
  let scores =
    match measure with
    | Load_measure.Linf -> t.linf
    | Load_measure.L1 -> t.l1
    | Load_measure.Lp _ -> [||]
  in
  let cached = Array.length scores > 0 in
  let best = ref (-1) and best_score = ref 0.0 in
  let examined = ref 0 in
  let iw = if swar then pack_size t size else 0 in
  (* an item larger than the capacity in dimension k fits nowhere; so
     does one that overflows a SWAR lane *)
  if sk <= Array.unsafe_get cap k && iw >= 0 then
    for g = bucket_of t k sk to t.ibase.(k + 1) - 1 do
      let members = Array.unsafe_get t.buckets g in
      let c = Array.unsafe_get t.bcount g in
      examined := !examined + c;
      for p = 0 to c - 1 do
        let slot = Array.unsafe_get members p in
        let fits =
          if swar then (Array.unsafe_get packed slot - iw) land gmask = gmask
          else begin
            let base = slot * d and acc = ref 0 in
            for j = 0 to d - 1 do
              acc :=
                !acc lor (Array.unsafe_get free (base + j) - Array.unsafe_get size j)
            done;
            !acc >= 0
          end
        in
        if fits then begin
          let score =
            if cached then Array.unsafe_get scores slot
            else measure_of_slot t measure free (slot * d)
          in
          if
            !best < 0
            || (if largest then score > !best_score else score < !best_score)
            || (score = !best_score && slot < !best)
          then begin
            best := slot;
            best_score := score
          end
        end
      done
    done;
  note_scan t !examined;
  if !best < 0 then begin
    record_miss t size;
    None
  end
  else Some (Dynarray.unsafe_get t.bins !best)

let most_loaded_fitting t ~measure size =
  extremal_loaded_fitting t measure size ~largest:true

let least_loaded_fitting t ~measure size =
  extremal_loaded_fitting t measure size ~largest:false

(* Most-recently-used fitting bin (move-to-front). [last_used] values are
   unique (the session's touch counter increments per use), so comparing
   them as ints selects the same bin as the old float argmax. *)
let recently_used_fitting t size =
  let size = coerce_size t size in
  let d = t.dim and free = t.free in
  let bins = t.bins in
  let n = Dynarray.length bins in
  let best = ref (-1) and best_touch = ref (-1) in
  let swar = t.swar and packed = t.packed and gmask = t.gmask in
  let iw = if swar then pack_size t size else 0 in
  if swar && iw < 0 then ()
  else begin
    let i = ref 0 in
    while !i < n do
      let next =
        if swar then scan_up_swar packed iw gmask n !i
        else scan_up free size d n !i
      in
      if next < n then begin
        let touch = (Dynarray.unsafe_get bins next).Bin.last_used in
        if touch > !best_touch then begin
          best := next;
          best_touch := touch
        end
      end;
      i := next + 1
    done
  end;
  note_scan t n;
  if !best < 0 then begin
    record_miss t size;
    None
  end
  else Some (Dynarray.unsafe_get bins !best)

let fold_fitting t size f init =
  let size = coerce_size t size in
  let d = t.dim and free = t.free in
  let bins = t.bins in
  let n = Dynarray.length bins in
  let acc = ref init in
  let swar = t.swar and packed = t.packed and gmask = t.gmask in
  let iw = if swar then pack_size t size else 0 in
  if swar && iw < 0 then ()
  else begin
    let i = ref 0 in
    while !i < n do
      let next =
        if swar then scan_up_swar packed iw gmask n !i
        else scan_up free size d n !i
      in
      if next < n then acc := f !acc (Dynarray.unsafe_get bins next);
      i := next + 1
    done
  end;
  note_scan t n;
  !acc

let exists_fitting t size =
  let size = coerce_size t size in
  if proven_miss t size then begin
    t.stat_memo_hits <- t.stat_memo_hits + 1;
    false
  end
  else begin
    let n = Dynarray.length t.bins in
    let i =
      if t.swar then begin
        let iw = pack_size t size in
        if iw < 0 then n else scan_up_swar t.packed iw t.gmask n 0
      end
      else scan_up t.free size t.dim n 0
    in
    note_scan t (if i < n then i + 1 else n);
    if i < n then true
    else begin
      record_miss t size;
      false
    end
  end

let count_fitting t size =
  let size = coerce_size t size in
  let d = t.dim and free = t.free in
  let n = Dynarray.length t.bins in
  let c = ref 0 in
  let swar = t.swar and packed = t.packed and gmask = t.gmask in
  let iw = if swar then pack_size t size else 0 in
  if swar && iw < 0 then ()
  else begin
    let i = ref 0 in
    while !i < n do
      let next =
        if swar then scan_up_swar packed iw gmask n !i
        else scan_up free size d n !i
      in
      if next < n then incr c;
      i := next + 1
    done
  end;
  note_scan t n;
  if !c = 0 then record_miss t size;
  !c

let nth_fitting t size k =
  let size = coerce_size t size in
  let d = t.dim and free = t.free in
  let bins = t.bins in
  let n = Dynarray.length bins in
  if k < 0 then None
  else begin
    let remaining = ref k and i = ref 0 and result = ref None in
    let swar = t.swar and packed = t.packed and gmask = t.gmask in
    let iw = if swar then pack_size t size else 0 in
    if swar && iw < 0 then i := n
    else
      while !result == None && !i < n do
        let next =
          if swar then scan_up_swar packed iw gmask n !i
          else scan_up free size d n !i
        in
        if next < n then
          if !remaining = 0 then result := Some (Dynarray.unsafe_get bins next)
          else decr remaining;
        i := next + 1
      done;
    note_scan t (min !i n);
    !result
  end

let to_list t = List.rev (fold t (fun acc b -> b :: acc) [])

let of_list ?kernel ~capacity bins =
  let t = create ?kernel ~capacity () in
  List.iter
    (fun b ->
      Dynarray.push t.bins b;
      let slot = Dynarray.length t.bins - 1 in
      ensure_free_capacity t (slot + 1);
      if Bin.is_open b then begin
        write_free t slot b;
        Bin.set_registry_slot b slot;
        t.live <- t.live + 1
      end
      else begin
        kill_slot t slot;
        t.dead <- t.dead + 1
      end)
    bins;
  t
