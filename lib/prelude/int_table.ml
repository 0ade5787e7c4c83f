(* Open-addressing hash table for non-negative int keys, linear probing
   with backward-shift deletion. See the .mli for why stdlib Hashtbl is
   too slow for the session's per-item bookkeeping. *)

type 'a t = {
  mutable keys : int array;  (* -1 marks an empty slot *)
  mutable vals : 'a array;  (* dummy-filled where empty *)
  dummy : 'a;
  mutable size : int;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
}

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (2 * acc)

let create ?(expected = 16) ~dummy () =
  if expected < 0 then invalid_arg "Int_table.create: negative size hint";
  (* keep load factor <= 1/2 *)
  let cap = next_pow2 (2 * max 8 expected) 16 in
  {
    keys = Array.make cap (-1);
    vals = Array.make cap dummy;
    dummy;
    size = 0;
    mask = cap - 1;
  }

let length t = t.size

(* Fibonacci hashing spreads consecutive ids across the table; the probe
   sequence is linear, which keys clustered by the hash keep cache-local. *)
let[@inline] start_slot t k = (k * 0x9E3779B1) land t.mask

(* slot holding [k], or the empty slot where it would be inserted *)
let rec probe_from (keys : int array) mask k i =
  let kk = Array.unsafe_get keys i in
  if kk = k || kk = -1 then i else probe_from keys mask k ((i + 1) land mask)

let[@inline] probe t k = probe_from t.keys t.mask k (start_slot t k)

let mem t k =
  if k < 0 then invalid_arg "Int_table.mem: negative key";
  Array.unsafe_get t.keys (probe t k) = k

let find t k =
  if k < 0 then invalid_arg "Int_table.find: negative key";
  let i = probe t k in
  if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
  else raise Not_found

let find_opt t k =
  if k < 0 then invalid_arg "Int_table.find_opt: negative key";
  let i = probe t k in
  if Array.unsafe_get t.keys i = k then Some (Array.unsafe_get t.vals i)
  else None

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap t.dummy;
  t.mask <- cap - 1;
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k >= 0 then begin
      let j = probe t k in
      Array.unsafe_set t.keys j k;
      Array.unsafe_set t.vals j (Array.unsafe_get old_vals i)
    end
  done

let replace t k v =
  if k < 0 then invalid_arg "Int_table.replace: negative key";
  let i = probe t k in
  if Array.unsafe_get t.keys i = k then Array.unsafe_set t.vals i v
  else begin
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.size <- t.size + 1;
    if 2 * t.size > t.mask then grow t
  end

(* Backward-shift deletion: after emptying slot [hole], walk the run of
   occupied slots that follows it and pull back every key whose home slot
   does not lie cyclically in (hole, j] — such a key was pushed past the
   hole, and leaving the hole empty would cut it off from its home. The
   table never holds a tombstone, so probing stays as before. *)
let remove t k =
  if k < 0 then invalid_arg "Int_table.remove: negative key";
  let keys = t.keys and mask = t.mask in
  let hole = probe t k in
  if Array.unsafe_get keys hole = k then begin
    t.size <- t.size - 1;
    let hole = ref hole and j = ref ((hole + 1) land mask) in
    while Array.unsafe_get keys !j >= 0 do
      let kj = Array.unsafe_get keys !j in
      let home = start_slot t kj in
      (* distance from home to j exceeds distance from hole to j: the hole
         sits on kj's probe path, so kj moves into it *)
      if (!j - home) land mask >= (!j - !hole) land mask then begin
        Array.unsafe_set keys !hole kj;
        Array.unsafe_set t.vals !hole (Array.unsafe_get t.vals !j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Array.unsafe_set keys !hole (-1);
    Array.unsafe_set t.vals !hole t.dummy
  end

let fold t f init =
  let acc = ref init in
  for i = 0 to Array.length t.keys - 1 do
    let k = Array.unsafe_get t.keys i in
    if k >= 0 then acc := f k (Array.unsafe_get t.vals i) !acc
  done;
  !acc
