(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
   Kept dependency-free: the trace store must be readable by tools that
   link nothing but the stdlib.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   bytewise table, and entry [n] of table [k] is the CRC state after
   byte [n] followed by [k] zero bytes. Eight input bytes then fold into
   the state with eight independent lookups instead of a chain of eight
   dependent ones; a tail shorter than eight bytes goes bytewise through
   table 0. The values are those of the bytewise algorithm. *)

let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let byte b i = Char.code (Bytes.unsafe_get b i)

let update crc bytes ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Crc32.update: range out of bounds";
  let t = Lazy.force tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let lo =
      !c
      lxor (byte bytes j lor (byte bytes (j + 1) lsl 8) lor (byte bytes (j + 2) lsl 16)
           lor (byte bytes (j + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + byte bytes (j + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte bytes (j + 5))
      lxor Array.unsafe_get t (256 + byte bytes (j + 6))
      lxor Array.unsafe_get t (byte bytes (j + 7));
    i := j + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor byte bytes j) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  update 0 b ~pos ~len

let string s = bytes (Bytes.unsafe_of_string s)
