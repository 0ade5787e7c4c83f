module Vec = Dvbp_vec.Vec
module Session = Dvbp_engine.Session
module Saved = Session.Saved
module Crc32 = Dvbp_tracestore.Crc32

let magic = "# dvbp-snapshot v3"

type section = { tenant : string; state : Saved.t; fingerprint : string }

type t = {
  policy : string;
  seed : int;
  capacity : Vec.t;
  events : int;
  last : Journal.event option;
  sections : section list;
}

let of_sessions ~policy ~seed ~capacity ~events ~last sessions =
  let section (tenant, session) =
    { tenant; state = Session.export session; fingerprint = Session.fingerprint session }
  in
  { policy; seed; capacity; events; last; sections = List.map section sessions }

(* The ids a tenant ever accepted, as the shorter of two spellings: the
   ranges ([ids,0-6249]: one range when ids arrive in order), or a bitmap
   over [lo, hi] ([idbits,<lo>,<hex>]: nibble [k] holds ids [lo + 4k] to
   [lo + 4k + 3], lowest bit first), which bounds ids spread over many
   tenants to one bit each. *)
let ids_row buf accepted =
  let ranges = Buffer.create 64 in
  Buffer.add_string ranges "ids";
  List.iter (fun (lo, hi) -> Printf.bprintf ranges ",%d-%d" lo hi) accepted;
  let bitmap =
    match (accepted, List.rev accepted) with
    | (lo, _) :: _, (_, hi) :: _ when (hi - lo) / 4 < Buffer.length ranges ->
        let bits = Bytes.make ((hi - lo + 4) / 4) '\000' in
        List.iter
          (fun (a, b) ->
            for id = a to b do
              let k = (id - lo) / 4 in
              Bytes.set bits k
                (Char.chr (Char.code (Bytes.get bits k) lor (1 lsl ((id - lo) mod 4))))
            done)
          accepted;
        Some
          (Printf.sprintf "idbits,%d,%s" lo
             (String.init (Bytes.length bits) (fun k ->
                  "0123456789abcdef".[Char.code (Bytes.get bits k)])))
    | _ -> None
  in
  (match bitmap with
  | Some b when String.length b < Buffer.length ranges -> Buffer.add_string buf b
  | Some _ | None -> Buffer.add_buffer buf ranges);
  Buffer.add_char buf '\n'

let to_string s =
  let buf = Buffer.create 4096 in
  let row fmt = Printf.bprintf buf fmt in
  let ints name xs =
    Buffer.add_string buf name;
    List.iter (row ",%d") xs;
    Buffer.add_char buf '\n'
  in
  row "%s\n" magic;
  row "policy,%s\nseed,%d\n" s.policy s.seed;
  ints "capacity" (Array.to_list (Vec.to_array s.capacity));
  row "events,%d\n" s.events;
  Option.iter (fun e -> row "last,%s\n" (Journal.encode_event e)) s.last;
  List.iter
    (fun { tenant; state = st; fingerprint } ->
      row "tenant,%s\n" tenant;
      row "clock,%h,%d\n" st.Saved.clock (if st.Saved.started then 1 else 0);
      row "next,%d,%d,%d,%d\n" st.Saved.next_item st.Saved.next_bin st.Saved.touch
        st.Saved.max_open;
      row "stats,%d,%d,%d\n" st.Saved.placements st.Saved.departures st.Saved.rejects;
      row "cost,%h,%h\n" st.Saved.cost_sum st.Saved.cost_comp;
      ids_row buf st.Saved.accepted;
      ints "policy_state" st.Saved.policy_state;
      List.iter
        (fun (b : Saved.bin) ->
          row "bin,%d,%h,%d\n" b.Saved.bin_id b.Saved.opened_at b.Saved.last_used;
          List.iter
            (fun (r : Saved.item) ->
              row "item,%d,%h,%h" r.Saved.item_id r.Saved.arrival r.Saved.departure;
              ints "" (Array.to_list (Vec.to_array r.Saved.size)))
            b.Saved.items)
        st.Saved.bins;
      row "fingerprint,%s\n" fingerprint)
    s.sections;
  row "crc,%08x\n" (Crc32.string (Buffer.contents buf));
  Buffer.contents buf

(* {2 Reading}

   The file is small (live state only), so it is checked whole and then
   split into rows: the final [crc] row must match the CRC-32 of every
   byte before it, and the rows must come in the order {!to_string}
   writes them. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let check_crc text =
  let n = String.length text in
  let body_end = if n > 0 && text.[n - 1] = '\n' then n - 1 else n in
  let start =
    match String.rindex_from_opt text (body_end - 1) '\n' with
    | Some i -> i + 1
    | None -> 0
    | exception Invalid_argument _ -> 0
  in
  let last = String.sub text start (body_end - start) in
  match String.split_on_char ',' last with
  | [ "crc"; hex ] -> (
      match int_of_string_opt ("0x" ^ hex) with
      | Some recorded when String.length hex = 8 ->
          let actual = Crc32.update 0 (Bytes.unsafe_of_string text) ~pos:0 ~len:start in
          if actual <> recorded then
            bad "checksum mismatch: crc row says %08x, the content hashes to %08x" recorded
              actual;
          String.sub text 0 start
      | Some _ | None -> bad "bad crc row %S" last)
  | _ -> bad "the final row is not a crc row — truncated or damaged"

let parse text =
  let body = check_crc text in
  let lines = Array.of_list (String.split_on_char '\n' body) in
  (* [lines.(0)] is the magic; the body ends with a newline, so the last
     element is empty *)
  let pos = ref 1 in
  let stop = Array.length lines - 1 in
  let peek () = if !pos < stop then Some lines.(!pos) else None in
  let next what =
    if !pos >= stop then bad "missing %s row" what;
    let l = lines.(!pos) in
    incr pos;
    l
  in
  let line () = !pos in
  let fields what =
    match String.split_on_char ',' (next what) with
    | w :: rest when w = what -> rest
    | _ -> bad "line %d: expected a %s row" (line ()) what
  in
  let int what s =
    match int_of_string_opt s with
    | Some x -> x
    | None -> bad "line %d: bad %s %S" (line ()) what s
  in
  let float what s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x -> x
    | Some _ | None -> bad "line %d: bad %s %S" (line ()) what s
  in
  let one what = match fields what with [ v ] -> v | _ -> bad "line %d: bad %s row" (line ()) what in
  let policy = one "policy" in
  if policy = "" then bad "line %d: empty policy" (line ());
  let seed = int "seed" (one "seed") in
  let capacity =
    match List.map (int "capacity entry") (fields "capacity") with
    | [] -> bad "line %d: empty capacity" (line ())
    | cs when List.exists (fun c -> c <= 0) cs -> bad "line %d: non-positive capacity" (line ())
    | cs -> Vec.of_list cs
  in
  let events = int "events" (one "events") in
  if events < 0 then bad "line %d: negative events" (line ());
  let last =
    match peek () with
    | Some l when String.length l > 5 && String.sub l 0 5 = "last," -> (
        incr pos;
        match Record.decode l 5 (String.length l - 5) with
        | Ok e -> Some e
        | Error msg -> bad "line %d: %s" (line ()) msg)
    | Some _ | None -> None
  in
  if (events = 0) <> (last = None) then
    bad "%d events, but the last-event row is %s" events
      (if last = None then "missing" else "present");
  let section tenant =
    let clock, started =
      match fields "clock" with
      | [ c; s ] -> (float "clock" c, int "started flag" s = 1)
      | _ -> bad "line %d: bad clock row" (line ())
    in
    let next_item, next_bin, touch, max_open =
      match List.map (int "counter") (fields "next") with
      | [ a; b; c; d ] -> (a, b, c, d)
      | _ -> bad "line %d: bad next row" (line ())
    in
    let placements, departures, rejects =
      match List.map (int "counter") (fields "stats") with
      | [ a; b; c ] -> (a, b, c)
      | _ -> bad "line %d: bad stats row" (line ())
    in
    let cost_sum, cost_comp =
      match List.map (float "cost") (fields "cost") with
      | [ a; b ] -> (a, b)
      | _ -> bad "line %d: bad cost row" (line ())
    in
    let accepted =
      match peek () with
      | Some l when String.starts_with ~prefix:"idbits," l -> (
          match fields "idbits" with
          | [ lo; hex ] ->
              let lo = int "id bitmap base" lo in
              let ranges = ref [] in
              String.iteri
                (fun k c ->
                  let v =
                    match c with
                    | '0' .. '9' -> Char.code c - Char.code '0'
                    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                    | _ -> bad "line %d: bad id bitmap digit %C" (line ()) c
                  in
                  for j = 0 to 3 do
                    if v land (1 lsl j) <> 0 then
                      let id = lo + (4 * k) + j in
                      match !ranges with
                      | (a, b) :: rest when b + 1 = id -> ranges := (a, id) :: rest
                      | _ -> ranges := (id, id) :: !ranges
                  done)
                hex;
              List.rev !ranges
          | _ -> bad "line %d: bad idbits row" (line ()))
      | Some _ | None ->
          List.map
            (fun r ->
              match String.split_on_char '-' r with
              | [ lo; hi ] -> (int "id range" lo, int "id range" hi)
              | _ -> bad "line %d: bad id range %S" (line ()) r)
            (fields "ids")
    in
    let policy_state = List.map (int "policy state") (fields "policy_state") in
    let rec items acc =
      match peek () with
      | Some l when String.length l > 5 && String.sub l 0 5 = "item," -> (
          match fields "item" with
          | id :: arrival :: departure :: (_ :: _ as sizes) ->
              items
                ({
                   Saved.item_id = int "item id" id;
                   arrival = float "arrival" arrival;
                   departure = float "departure" departure;
                   size =
                     (match List.map (int "size entry") sizes with
                     | cs when List.exists (fun c -> c < 0) cs ->
                         bad "line %d: negative size entry" (line ())
                     | cs -> Vec.of_list cs);
                 }
                :: acc)
          | _ -> bad "line %d: bad item row" (line ()))
      | Some _ | None -> List.rev acc
    in
    let rec bins acc =
      match peek () with
      | Some l when String.length l > 4 && String.sub l 0 4 = "bin," -> (
          match fields "bin" with
          | [ id; opened_at; last_used ] ->
              let bin_id = int "bin id" id
              and opened_at = float "opened_at" opened_at
              and last_used = int "last_used" last_used in
              bins ({ Saved.bin_id; opened_at; last_used; items = items [] } :: acc)
          | _ -> bad "line %d: bad bin row" (line ()))
      | Some _ | None -> List.rev acc
    in
    let bins = bins [] in
    let fingerprint =
      let l = next "fingerprint" in
      if String.length l > 12 && String.sub l 0 12 = "fingerprint," then
        String.sub l 12 (String.length l - 12)
      else bad "line %d: expected a fingerprint row" (line ())
    in
    {
      tenant;
      fingerprint;
      state =
        {
          Saved.clock;
          started;
          next_item;
          next_bin;
          touch;
          max_open;
          placements;
          departures;
          rejects;
          cost_sum;
          cost_comp;
          accepted;
          policy_state;
          bins;
        };
    }
  in
  let rec sections acc =
    match peek () with
    | None -> List.rev acc
    | Some _ ->
        let tenant =
          match Tenant.validate (one "tenant") with
          | Ok name -> name
          | Error msg -> bad "line %d: %s" (line ()) msg
        in
        if List.exists (fun (s : section) -> s.tenant = tenant) acc then
          bad "line %d: duplicate tenant section %S" (line ()) tenant;
        sections (section tenant :: acc)
  in
  let sections = sections [] in
  { policy; seed; capacity; events; last; sections }

let of_string text =
  let n = String.length text in
  if Record.trim_start text 0 n = n then Error "empty snapshot"
  else if String.starts_with ~prefix:(magic ^ "\n") text then
    match parse text with s -> Ok s | exception Bad msg -> Error msg
  else
    (* v1 and v2 held a digest per tenant and the whole history since
       genesis; they are no longer read *)
    let first = String.trim (List.hd (String.split_on_char '\n' text)) in
    if first = "# dvbp-snapshot v1" || first = "# dvbp-snapshot v2" then
      Error (Journal.retired (Printf.sprintf "a whole-history snapshot (%s)" first))
    else Error (Printf.sprintf "line 1: expected %S, got %S" magic first)

let write ?(io = Real_io.v) ~path s = Io.atomic_replace io ~path (to_string s)

let load ?(io = Real_io.v) ~path () =
  match io.Io.read_file path with
  | Ok text -> Result.map_error (Printf.sprintf "%s: %s" path) (of_string text)
  | Error msg -> Error msg
