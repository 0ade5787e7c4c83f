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

(* 16-bit rolling checksum over the record body: enough to tell a torn
   final record from a complete one (a truncated prefix that still passes
   both the syntax check and the checksum is a 1-in-65536 coincidence per
   crash, vs certainty of misparse for records whose prefix is valid). *)
let checksum body =
  String.fold_left (fun acc c -> ((acc * 31) + Char.code c) land 0xffff) 0 body

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

(* v2 times are hex floats (e.g. [0x1.8p+1] for 3.0): they round-trip
   exactly like ["%.17g"] but cost a fraction to format, and
   [float_of_string] reads both spellings, so v1 journals (decimal
   times) replay unchanged. Written digit-by-digit from the IEEE bits
   rather than via ["%h"] because [Printf]'s dispatch alone costs more
   than the record's other fields combined. The 52-bit mantissa and the
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

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some x when Float.is_finite x -> Ok x
  | Some _ | None -> Error (Printf.sprintf "bad %s %S" what s)

let rec collect_ints what = function
  | [] -> Ok []
  | s :: rest ->
      let* x = parse_int what s in
      let* xs = collect_ints what rest in
      Ok (x :: xs)

let split_checksum line =
  match String.rindex_opt line ',' with
  | Some i
    when i + 1 < String.length line
         && line.[i + 1] = '~'
         && String.length line - i - 2 = 4 -> (
      let body = String.sub line 0 i in
      let hex = String.sub line (i + 2) 4 in
      match int_of_string_opt ("0x" ^ hex) with
      | Some sum when sum = checksum body -> Ok body
      | Some _ -> Error "checksum mismatch"
      | None -> Error (Printf.sprintf "bad checksum field %S" hex))
  | _ -> Error "missing checksum field"

(* v1 records carry no tenant field (they all belong to [Tenant.default]);
   v2 records put the tenant right after the kind. The version comes from
   the file's magic line — the two grammars are not self-distinguishing
   (a v1 arrive's timestamp sits where a v2 tenant would). *)
let decode_event ?(version = 2) line =
  let* body = split_checksum line in
  let parse_tenant tenant =
    Result.map_error (fun _ -> Printf.sprintf "bad tenant %S" tenant)
      (Tenant.validate tenant)
  in
  let arrive ~tenant ~time ~item ~bin ~fresh ~sizes =
    let* tenant = parse_tenant tenant in
    let* time = parse_float "arrival time" time in
    let* item_id = parse_int "item id" item in
    let* bin_id = parse_int "bin id" bin in
    let* fresh = parse_int "opened-new-bin flag" fresh in
    let* opened_new_bin =
      match fresh with
      | 0 -> Ok false
      | 1 -> Ok true
      | n -> Error (Printf.sprintf "opened-new-bin flag must be 0 or 1, got %d" n)
    in
    let* sizes = collect_ints "size entry" sizes in
    match sizes with
    | [] -> Error "arrive record with no size"
    | _ ->
        if List.exists (fun s -> s < 0) sizes then Error "negative size"
        else
          Ok
            (Arrive
               { tenant; time; item_id; size = Vec.of_list sizes; bin_id; opened_new_bin })
  in
  let depart ~tenant ~time ~item =
    let* tenant = parse_tenant tenant in
    let* time = parse_float "departure time" time in
    let* item_id = parse_int "item id" item in
    Ok (Depart { tenant; time; item_id })
  in
  match (version, String.split_on_char ',' body) with
  | 2, "arrive" :: tenant :: time :: item :: bin :: fresh :: sizes ->
      arrive ~tenant ~time ~item ~bin ~fresh ~sizes
  | 2, [ "depart"; tenant; time; item ] -> depart ~tenant ~time ~item
  | 1, "arrive" :: time :: item :: bin :: fresh :: sizes ->
      arrive ~tenant:Tenant.default ~time ~item ~bin ~fresh ~sizes
  | 1, [ "depart"; time; item ] -> depart ~tenant:Tenant.default ~time ~item
  | _, ("arrive" | "depart") :: _ -> Error "malformed record"
  | _, kind :: _ -> Error (Printf.sprintf "unrecognised record kind %S" kind)
  | _, [] -> Error "empty record"

(* ---------- header rows (shared by the legacy file and segment formats) ---------- *)

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

let is_record trimmed =
  String.length trimmed >= 7
  && (String.sub trimmed 0 7 = "arrive," || String.sub trimmed 0 7 = "depart,")
