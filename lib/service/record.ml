module Vec = Dvbp_vec.Vec

type header = { policy : string; seed : int; capacity : Vec.t; base : int }

type event =
  | Arrive of {
      tenant : string;
      time : float;
      item_id : int;
      size : Vec.t;
      bin_id : int;
      opened_new_bin : bool;
    }
  | Depart of { tenant : string; time : float; item_id : int }

let event_time = function Arrive { time; _ } | Depart { time; _ } -> time
let event_item = function Arrive { item_id; _ } | Depart { item_id; _ } -> item_id
let event_tenant = function Arrive { tenant; _ } | Depart { tenant; _ } -> tenant

let equal_event a b =
  match (a, b) with
  | Arrive a, Arrive b ->
      String.equal a.tenant b.tenant && a.time = b.time && a.item_id = b.item_id
      && Vec.equal a.size b.size && a.bin_id = b.bin_id
      && a.opened_new_bin = b.opened_new_bin
  | Depart a, Depart b ->
      String.equal a.tenant b.tenant && a.time = b.time && a.item_id = b.item_id
  | Arrive _, Depart _ | Depart _, Arrive _ -> false

let pp_tenant ppf tenant =
  if not (String.equal tenant Tenant.default) then
    Format.fprintf ppf "tenant=%s " tenant

let pp_event ppf = function
  | Arrive { tenant; time; item_id; size; bin_id; opened_new_bin } ->
      Format.fprintf ppf "arrive %at=%g item=%d size=%a -> bin %d%s" pp_tenant
        tenant time item_id Vec.pp size bin_id
        (if opened_new_bin then " (new)" else "")
  | Depart { tenant; time; item_id } ->
      Format.fprintf ppf "depart %at=%g item=%d" pp_tenant tenant time item_id

(* ---------- record codec ---------- *)

let hex_digits = "0123456789abcdef"

(* Hot-path record writer: every journaled event pays encode cost before
   its reply can be released, so fields go into a reusable byte scratch
   (no per-record [Buffer], no [Printf]), the checksum runs over those
   bytes in place, and the sealed record is blitted into the batch
   buffer in one move. *)
module Scratch = struct
  type t = { mutable buf : Bytes.t; mutable pos : int }

  let create () = { buf = Bytes.create 256; pos = 0 }
  let reset t = t.pos <- 0

  let ensure t extra =
    let need = t.pos + extra in
    if need > Bytes.length t.buf then begin
      let nb = Bytes.create (max need (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 nb 0 t.pos;
      t.buf <- nb
    end

  (* [put] skips the capacity check: callers [ensure] a whole field first *)
  let put t c =
    Bytes.unsafe_set t.buf t.pos c;
    t.pos <- t.pos + 1

  let add_char t c =
    ensure t 1;
    put t c

  let add_string t s =
    let len = String.length s in
    ensure t len;
    Bytes.blit_string s 0 t.buf t.pos len;
    t.pos <- t.pos + len

  (* decimal digits straight into the buffer, no [string_of_int]; the
     digits come off the non-positive magnitude so [min_int] needs no
     special case ([mod] truncates toward zero: remainders are in -9..0) *)
  let add_int t n =
    let m = if n < 0 then n else -n in
    let digits = ref 1 and q = ref (m / 10) in
    while !q <> 0 do
      incr digits;
      q := !q / 10
    done;
    let len = if n < 0 then !digits + 1 else !digits in
    ensure t len;
    if n < 0 then Bytes.unsafe_set t.buf t.pos '-';
    let r = ref m in
    for i = t.pos + len - 1 downto t.pos + len - !digits do
      Bytes.unsafe_set t.buf i (Char.unsafe_chr (Char.code '0' - (!r mod 10)));
      r := !r / 10
    done;
    t.pos <- t.pos + len

  (* same sum as {!checksum}: int arithmetic wraps modulo a multiple of
     2^16, so masking once at the end equals masking every step *)
  let checksum t =
    let acc = ref 0 in
    for i = 0 to t.pos - 1 do
      acc := (!acc * 31) + Char.code (Bytes.unsafe_get t.buf i)
    done;
    !acc land 0xffff
end

(* Times are hex floats (e.g. [0x1.8p+1] for 3.0): they round-trip
   exactly like ["%.17g"] but cost a fraction to format, and the reader
   falls back to [float_of_string], which takes decimal times too.
   Written digit-by-digit from the IEEE bits rather than via ["%h"]
   because [Printf]'s dispatch alone costs more than the record's other
   fields combined. The 52-bit mantissa and the
   exponent fit a native int, so the nibble arithmetic boxes nothing. *)
let add_time s v =
  let bits = Int64.bits_of_float v in
  if Int64.compare bits 0L < 0 then Scratch.add_char s '-';
  let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let m = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
  if e = 0x7ff then Scratch.add_string s (if m = 0 then "inf" else "nan")
  else if e = 0 && m = 0 then Scratch.add_string s "0x0p+0"
  else begin
    (* subnormals keep the raw [0x0.<m>p-1022] form: still exact binary,
       still one [float_of_string] away from the original *)
    let exp = if e = 0 then -1022 else e - 1023 in
    (* the mantissa's 13 nibbles, top first, less the trailing zero ones *)
    let nibbles = ref (if m = 0 then 0 else 13) in
    while !nibbles > 0 && (m lsr ((13 - !nibbles) * 4)) land 0xf = 0 do
      decr nibbles
    done;
    Scratch.ensure s (!nibbles + 6);
    Scratch.put s '0';
    Scratch.put s 'x';
    Scratch.put s (if e = 0 then '0' else '1');
    if !nibbles > 0 then Scratch.put s '.';
    for i = 0 to !nibbles - 1 do
      Scratch.put s (String.unsafe_get hex_digits ((m lsr ((12 - i) * 4)) land 0xf))
    done;
    Scratch.put s 'p';
    if exp >= 0 then Scratch.put s '+';
    Scratch.add_int s exp
  end

let encode_into s = function
  | Arrive { tenant; time; item_id; size; bin_id; opened_new_bin } ->
      Scratch.add_string s "arrive,";
      Scratch.add_string s tenant;
      Scratch.add_char s ',';
      add_time s time;
      Scratch.add_char s ',';
      Scratch.add_int s item_id;
      Scratch.add_char s ',';
      Scratch.add_int s bin_id;
      Scratch.add_string s (if opened_new_bin then ",1" else ",0");
      for i = 0 to Vec.dim size - 1 do
        Scratch.add_char s ',';
        Scratch.add_int s (Vec.get size i)
      done
  | Depart { tenant; time; item_id } ->
      Scratch.add_string s "depart,";
      Scratch.add_string s tenant;
      Scratch.add_char s ',';
      add_time s time;
      Scratch.add_char s ',';
      Scratch.add_int s item_id

(* append the sealed record ([body ^ ",~%04x"] of the body checksum) to
   [buf] — the only place record bytes are copied out of the scratch *)
let seal_to buf s =
  let sum = Scratch.checksum s in
  Buffer.add_subbytes buf s.Scratch.buf 0 s.Scratch.pos;
  Buffer.add_string buf ",~";
  Buffer.add_char buf hex_digits.[(sum lsr 12) land 0xf];
  Buffer.add_char buf hex_digits.[(sum lsr 8) land 0xf];
  Buffer.add_char buf hex_digits.[(sum lsr 4) land 0xf];
  Buffer.add_char buf hex_digits.[sum land 0xf]

let encode_event e =
  let s = Scratch.create () in
  encode_into s e;
  let buf = Buffer.create (s.Scratch.pos + 6) in
  seal_to buf s;
  Buffer.contents buf

let ( let* ) = Result.bind

(* header-row fields (the record decoder below reads its fields in place) *)
let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let rec collect_ints what = function
  | [] -> Ok []
  | s :: rest ->
      let* x = parse_int what s in
      let* xs = collect_ints what rest in
      Ok (x :: xs)

(* ---------- record decoder ---------- *)

(* The decoder reads a record where it lies in the file's text: fields
   are found by comma offsets, the checksum is summed over the body in
   place, and the encoder's own spellings of ints and times are read by
   scanners. A field in any other spelling is cut out and parsed by the
   [int_of_string_opt]/[float_of_string_opt] of its trimmed text, which
   is how every field was always read, so the grammar, the values and
   the error messages stay those of a split-and-parse decoder. *)

(* plain decimal int in [s, e) of [text]; -1 on an empty range, a
   non-digit or more than 18 digits (so it cannot overflow). Shared with
   the request parser ({!Server}). *)
let parse_uint text s e =
  if e <= s || e - s > 18 then -1
  else begin
    let v = ref 0 and ok = ref true in
    for j = s to e - 1 do
      let c = Char.code (String.unsafe_get text j) - 48 in
      if c < 0 || c > 9 then ok := false else v := (!v * 10) + c
    done;
    if !ok then !v else -1
  end

(* blanks as [String.trim] counts them *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* [String.trim]'s cut of [text.[lo .. hi-1]] by offsets: the first
   non-blank index (or [hi]), and one past the last (or [lo]) *)
let trim_start text lo hi =
  let i = ref lo in
  while !i < hi && is_blank (String.unsafe_get text !i) do
    incr i
  done;
  !i

let trim_stop text lo hi =
  let i = ref hi in
  while !i > lo && is_blank (String.unsafe_get text (!i - 1)) do
    decr i
  done;
  !i

(* index of the '\n' ending the line that starts at [i], or [n] *)
let line_stop text i n =
  let j = ref i in
  while !j < n && String.unsafe_get text !j <> '\n' do
    incr j
  done;
  !j

(* whether [text.[s .. e-1]] is exactly [kw] *)
let field_is text s e kw =
  e - s = String.length kw
  &&
  let ok = ref true in
  for j = 0 to e - s - 1 do
    if String.unsafe_get text (s + j) <> String.unsafe_get kw j then ok := false
  done;
  !ok

(* index of the first ',' in [i, stop), or [stop] *)
let comma text i stop =
  let j = ref i in
  while !j < stop && String.unsafe_get text !j <> ',' do
    incr j
  done;
  !j

exception Bad_record of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_record msg)) fmt

let int_field what text lo hi =
  let neg = lo < hi && String.unsafe_get text lo = '-' in
  let u = parse_uint text (if neg then lo + 1 else lo) hi in
  if u >= 0 then if neg then -u else u
  else
    let f = String.sub text lo (hi - lo) in
    match int_of_string_opt (String.trim f) with
    | Some x -> x
    | None -> bad "bad %s %S" what f

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | _ -> -1

(* Exact inverse of {!add_time} on what it writes for finite values:
   [-?0x1(.h{1,13})?p[+-]d{1,4}] with a normal exponent, the subnormal
   [-?0x0.h{1,13}p-1022], and [-?0x0p+0]. The value is rebuilt from the
   mantissa and exponent with [ldexp], exact on all of these. Anything
   else gives [nan], and the caller reads the field with
   [float_of_string]. *)
let canonical_time text lo hi =
  let neg = lo < hi && String.unsafe_get text lo = '-' in
  let p = if neg then lo + 1 else lo in
  if hi - p < 6 || String.unsafe_get text p <> '0' || String.unsafe_get text (p + 1) <> 'x'
  then Float.nan
  else begin
    let lead = String.unsafe_get text (p + 2) in
    let dot = String.unsafe_get text (p + 3) = '.' in
    let q = ref (if dot then p + 4 else p + 3) and m = ref 0 and k = ref 0 in
    while !q < hi && !k < 13 && nibble (String.unsafe_get text !q) >= 0 do
      m := (!m lsl 4) lor nibble (String.unsafe_get text !q);
      incr k;
      incr q
    done;
    let digits = hi - !q - 2 in
    if dot <> (!k > 0) || digits < 1 || digits > 4 || String.unsafe_get text !q <> 'p'
    then Float.nan
    else
      let sign = String.unsafe_get text (!q + 1) in
      let u = parse_uint text (!q + 2) hi in
      let exp = if sign = '-' then -u else u in
      let mant = !m lsl (4 * (13 - !k)) in
      let v =
        if u < 0 || (sign <> '+' && sign <> '-') then Float.nan
        else if lead = '1' && exp >= -1022 && exp <= 1023 then
          Float.ldexp (Float.of_int (mant lor (1 lsl 52))) (exp - 52)
        else if lead = '0' && mant <> 0 && exp = -1022 then
          Float.ldexp (Float.of_int mant) (-1074)
        else if lead = '0' && (not dot) && exp = 0 then 0.0
        else Float.nan
      in
      if neg then Float.neg v else v
  end

let time_field what text lo hi =
  let t = canonical_time text lo hi in
  if not (Float.is_nan t) then t
  else
    let f = String.sub text lo (hi - lo) in
    match float_of_string_opt (String.trim f) with
    | Some x when Float.is_finite x -> x
    | Some _ | None -> bad "bad %s %S" what f

(* 16-bit rolling checksum of the record body [text.[lo .. hi-1]]:
   enough to tell a torn final record from a complete one (a truncated
   prefix that still passes both the syntax check and the checksum is a
   1-in-65536 coincidence per crash, vs certainty of misparse for records
   whose prefix is valid). Masked once at the end, like
   {!Scratch.checksum}. *)
let checksum text lo hi =
  let acc = ref 0 in
  for i = lo to hi - 1 do
    acc := (!acc * 31) + Char.code (String.unsafe_get text i)
  done;
  !acc land 0xffff

(* the 4-character checksum field at [i] as [int_of_string ("0x" ^ f)]
   reads it — a hex digit of either case, then hex digits or '_' — or
   -1 where that would fail *)
let checksum_field text i =
  let v = ref 0 and ok = ref true in
  for j = i to i + 3 do
    match String.unsafe_get text j with
    | '0' .. '9' as c -> v := (!v lsl 4) lor (Char.code c - 48)
    | 'a' .. 'f' as c -> v := (!v lsl 4) lor (Char.code c - 87)
    | 'A' .. 'F' as c -> v := (!v lsl 4) lor (Char.code c - 55)
    | '_' when j > i -> ()
    | _ -> ok := false
  done;
  if !ok then !v else -1

(* Per-file decoding state: the tenant of the previous record, so a run
   of one tenant's records shares one string. It is always a valid
   tenant name. *)
type decoder = { mutable last_tenant : string }

let decoder () = { last_tenant = Tenant.default }

let tenant_field d text lo hi =
  let last = d.last_tenant in
  if field_is text lo hi last then last
  else
    let t = String.sub text lo (hi - lo) in
    if Tenant.is_valid t then begin
      d.last_tenant <- t;
      t
    end
    else bad "bad tenant %S" t

(* [kind,tenant,time,item] and, for arrivals, [bin,flag,s1,...,sd] *)
let decode_body d text lo hi =
  let k = comma text lo hi in
  let arrive = field_is text lo k "arrive" in
  if not (arrive || field_is text lo k "depart") then
    bad "unrecognised record kind %S" (String.sub text lo (k - lo));
  let fields = ref 1 in
  for j = k to hi - 1 do
    if String.unsafe_get text j = ',' then incr fields
  done;
  let fixed = if arrive then 6 else 4 in
  if if arrive then !fields < fixed else !fields <> fixed then bad "malformed record";
  let tenant_end = comma text (k + 1) hi in
  let tenant = tenant_field d text (k + 1) tenant_end in
  let te = comma text (tenant_end + 1) hi in
  let time =
    time_field (if arrive then "arrival time" else "departure time") text
      (tenant_end + 1) te
  in
  let ie = comma text (te + 1) hi in
  let item_id = int_field "item id" text (te + 1) ie in
  if not arrive then Depart { tenant; time; item_id }
  else begin
    let be = comma text (ie + 1) hi in
    let bin_id = int_field "bin id" text (ie + 1) be in
    let fe = comma text (be + 1) hi in
    let fresh = int_field "opened-new-bin flag" text (be + 1) fe in
    if fresh <> 0 && fresh <> 1 then bad "opened-new-bin flag must be 0 or 1, got %d" fresh;
    let size = Array.make (!fields - fixed) 0 in
    let s = ref (fe + 1) in
    for i = 0 to Array.length size - 1 do
      let e = comma text !s hi in
      size.(i) <- int_field "size entry" text !s e;
      s := e + 1
    done;
    if Array.length size = 0 then bad "arrive record with no size";
    if Array.exists (fun x -> x < 0) size then bad "negative size";
    Arrive
      { tenant; time; item_id; size = Vec.of_array size; bin_id;
        opened_new_bin = fresh = 1 }
  end

(* The record [text.[pos .. pos+len-1]] (no newline), checksum verified.
   [decoder] carries the previous record's tenant across the records of
   one file. *)
let decode ?(decoder = decoder ()) text pos len =
  let stop = pos + len in
  let c = ref (stop - 1) in
  while !c >= pos && String.unsafe_get text !c <> ',' do
    decr c
  done;
  let c = !c in
  if c < pos || stop - c <> 6 || String.unsafe_get text (c + 1) <> '~' then
    Error "missing checksum field"
  else
    let sum = checksum_field text (c + 2) in
    if sum < 0 then Error (Printf.sprintf "bad checksum field %S" (String.sub text (c + 2) 4))
    else if sum <> checksum text pos c then Error "checksum mismatch"
    else
      match decode_body decoder text pos c with
      | e -> Ok e
      | exception Bad_record msg -> Error msg

let decode_event line = decode line 0 (String.length line)

(* ---------- segment header rows ---------- *)

let header_rows h =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (Printf.sprintf "policy,%s\n" h.policy);
  Buffer.add_string buf (Printf.sprintf "seed,%d\n" h.seed);
  Buffer.add_string buf "capacity";
  Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf ",%d" c)) (Vec.to_array h.capacity);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "base,%d\n" h.base);
  Buffer.contents buf

type partial_header = {
  mutable p_policy : string option;
  mutable p_seed : int option;
  mutable p_capacity : Vec.t option;
  mutable p_base : int option;
}

let empty_partial () =
  { p_policy = None; p_seed = None; p_capacity = None; p_base = None }

let finish_header p =
  match (p.p_policy, p.p_seed, p.p_capacity, p.p_base) with
  | Some policy, Some seed, Some capacity, Some base ->
      if base < 0 then Error "negative base" else Ok { policy; seed; capacity; base }
  | None, _, _, _ -> Error "incomplete header: missing policy row"
  | _, None, _, _ -> Error "incomplete header: missing seed row"
  | _, _, None, _ -> Error "incomplete header: missing capacity row"
  | _, _, _, None -> Error "incomplete header: missing base row"

let header_row ~line p trimmed =
  let dup what = Error (Printf.sprintf "line %d: duplicate %s row" line what) in
  match String.split_on_char ',' trimmed with
  | "policy" :: [ name ] ->
      if p.p_policy <> None then dup "policy"
      else if String.trim name = "" then Error (Printf.sprintf "line %d: empty policy" line)
      else (p.p_policy <- Some (String.trim name); Ok ())
  | "seed" :: [ s ] ->
      if p.p_seed <> None then dup "seed"
      else
        let* seed = Result.map_error (Printf.sprintf "line %d: %s" line) (parse_int "seed" s) in
        p.p_seed <- Some seed;
        Ok ()
  | "capacity" :: fields -> (
      if p.p_capacity <> None then dup "capacity"
      else
        let* cs =
          Result.map_error (Printf.sprintf "line %d: %s" line)
            (collect_ints "capacity entry" fields)
        in
        match cs with
        | [] -> Error (Printf.sprintf "line %d: empty capacity" line)
        | _ ->
            if List.exists (fun c -> c <= 0) cs then
              Error (Printf.sprintf "line %d: non-positive capacity" line)
            else (p.p_capacity <- Some (Vec.of_list cs); Ok ()))
  | "base" :: [ s ] ->
      if p.p_base <> None then dup "base"
      else
        let* base = Result.map_error (Printf.sprintf "line %d: %s" line) (parse_int "base" s) in
        p.p_base <- Some base;
        Ok ()
  | _ -> Error (Printf.sprintf "line %d: unrecognised header row %S" line trimmed)

(* whether the trimmed line [text.[lo .. hi-1]] is a record *)
let is_record text lo hi =
  hi - lo >= 7
  && (field_is text lo (lo + 7) "arrive," || field_is text lo (lo + 7) "depart,")
