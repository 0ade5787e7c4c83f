module Rng = Dvbp_prelude.Rng

let default = "default"

let max_length = 64

let valid_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
  | _ -> false

let is_valid name =
  let n = String.length name in
  n > 0 && n <= max_length
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (valid_char name.[i]) then ok := false
  done;
  !ok

let validate name =
  if is_valid name then Ok name
  else
    Error
      (Printf.sprintf
         "bad tenant %S (1-%d chars from [A-Za-z0-9_.-])" name max_length)

(* FNV-1a over the tenant name, folded to a non-negative OCaml int. The
   hash is part of the durability contract: it seeds the tenant's policy
   rng and picks its shard, and a recovered server must derive the same
   values from the journal alone — so it must never depend on process
   state (no [Hashtbl.hash], whose layout rules may move between compiler
   versions). *)
let hash name =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    name;
  Int64.to_int !h land max_int

let shard ~jobs name = if jobs <= 1 then 0 else hash name mod jobs

(* The default tenant keeps the exact rng stream single-tenant servers
   always had (so its seeded placements match theirs bit for bit); every other tenant gets an independent split keyed
   by its name hash. *)
let rng ~seed name =
  let root = Rng.create ~seed in
  if String.equal name default then root else Rng.split root ~key:(hash name)
