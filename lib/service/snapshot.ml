module Vec = Dvbp_vec.Vec
module Bin = Dvbp_core.Bin
module Item = Dvbp_core.Item
module Session = Dvbp_engine.Session
module Saved = Session.Saved
module Crc32 = Dvbp_tracestore.Crc32

let magic = "# dvbp-snapshot v3"
let magic_v2 = "# dvbp-snapshot v2"
let magic_v1 = "# dvbp-snapshot v1"

type section = { tenant : string; state : Saved.t; fingerprint : string }

type digest = {
  tenant : string;
  clock : float;
  cost : float;
  bins_opened : int;
  open_bins : (int * int list) list;
}

type body =
  | State of section list
  | History of { digests : digest list; history : Journal.event list }

type t = {
  policy : string;
  seed : int;
  capacity : Vec.t;
  events : int;
  last : Journal.event option;
  body : body;
}

let of_sessions ~policy ~seed ~capacity ~events ~last sessions =
  let section (tenant, session) =
    { tenant; state = Session.export session; fingerprint = Session.fingerprint session }
  in
  { policy; seed; capacity; events; last; body = State (List.map section sessions) }

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
  match s.body with
  | History _ -> invalid_arg "Snapshot.to_string: v1/v2 snapshots are read, never written"
  | State sections ->
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
        sections;
      row "crc,%08x\n" (Crc32.string (Buffer.contents buf));
      Buffer.contents buf

let ( let* ) = Result.bind

let parse_int ~line what s =
  match int_of_string_opt (String.trim s) with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "line %d: bad %s %S" line what s)

let parse_float ~line what s =
  match float_of_string_opt (String.trim s) with
  | Some x when Float.is_finite x -> Ok x
  | Some _ | None -> Error (Printf.sprintf "line %d: bad %s %S" line what s)

let rec collect_ints ~line what = function
  | [] -> Ok []
  | s :: rest ->
      let* x = parse_int ~line what s in
      let* xs = collect_ints ~line what rest in
      Ok (x :: xs)

(* Mutable accumulator for one tenant's digest section. *)
type dacc = {
  d_tenant : string;
  mutable d_clock : float option;
  mutable d_cost : float option;
  mutable d_bins_opened : int option;
  mutable d_open_rev : (int * int list) list;
}

type acc = {
  mutable policy : string option;
  mutable seed : int option;
  mutable capacity : Vec.t option;
  mutable events : int option;
  mutable digests_rev : dacc list;  (* current section at the head *)
  mutable rev_history : Journal.event list;
  mutable saw_history : bool;
}

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %s row" what)

let finish_digest (d : dacc) =
  let* clock = require (d.d_tenant ^ " clock") d.d_clock in
  let* cost = require (d.d_tenant ^ " cost") d.d_cost in
  let* bins_opened = require (d.d_tenant ^ " bins_opened") d.d_bins_opened in
  Ok
    {
      tenant = d.d_tenant;
      clock;
      cost;
      bins_opened;
      open_bins = List.rev d.d_open_rev;
    }

(* {2 The v1/v2 reader}

   Read only to upgrade: their history is replayed by {!Recovery}, and
   the next snapshot is written v3. *)

let of_string_legacy text =
  let n = String.length text in
  let version = ref 2 in
  let decoder = Record.decoder () in
  let a =
    {
      policy = None;
      seed = None;
      capacity = None;
      events = None;
      digests_rev = [];
      rev_history = [];
      saw_history = false;
    }
  in
  let scalar ~line what current store v =
    if current <> None then Error (Printf.sprintf "line %d: duplicate %s row" line what)
    else begin
      store v;
      Ok ()
    end
  in
  (* The v1 format has no tenant rows: its single digest section belongs
     to the default tenant and starts implicitly. *)
  let current_digest ~line =
    match a.digests_rev with
    | d :: _ -> Ok d
    | [] ->
        if !version = 1 then begin
          let d =
            { d_tenant = Tenant.default; d_clock = None; d_cost = None;
              d_bins_opened = None; d_open_rev = [] }
          in
          a.digests_rev <- [ d ];
          Ok d
        end
        else Error (Printf.sprintf "line %d: digest row before any tenant row" line)
  in
  let dscalar ~line what current store v =
    if current <> None then Error (Printf.sprintf "line %d: duplicate %s row" line what)
    else begin
      store v;
      Ok ()
    end
  in
  let state_row ~line trimmed =
    match String.split_on_char ',' trimmed with
    | "policy" :: [ name ] when String.trim name <> "" ->
        scalar ~line "policy" a.policy (fun v -> a.policy <- Some v) (String.trim name)
    | "policy" :: _ -> Error (Printf.sprintf "line %d: empty policy" line)
    | "seed" :: [ s ] ->
        let* v = parse_int ~line "seed" s in
        scalar ~line "seed" a.seed (fun v -> a.seed <- Some v) v
    | "capacity" :: fields -> (
        let* cs = collect_ints ~line "capacity entry" fields in
        match cs with
        | [] -> Error (Printf.sprintf "line %d: empty capacity" line)
        | _ when List.exists (fun c -> c <= 0) cs ->
            Error (Printf.sprintf "line %d: non-positive capacity" line)
        | _ ->
            scalar ~line "capacity" a.capacity
              (fun v -> a.capacity <- Some v)
              (Vec.of_list cs))
    | "events" :: [ s ] ->
        let* v = parse_int ~line "events" s in
        scalar ~line "events" a.events (fun v -> a.events <- Some v) v
    | "tenant" :: [ name ] ->
        let name = String.trim name in
        let* name = Tenant.validate name in
        if List.exists (fun d -> d.d_tenant = name) a.digests_rev then
          Error (Printf.sprintf "line %d: duplicate tenant section %S" line name)
        else begin
          a.digests_rev <-
            { d_tenant = name; d_clock = None; d_cost = None;
              d_bins_opened = None; d_open_rev = [] }
            :: a.digests_rev;
          Ok ()
        end
    | "clock" :: [ s ] ->
        let* v = parse_float ~line "clock" s in
        let* d = current_digest ~line in
        dscalar ~line "clock" d.d_clock (fun v -> d.d_clock <- Some v) v
    | "cost" :: [ s ] ->
        let* v = parse_float ~line "cost" s in
        let* d = current_digest ~line in
        dscalar ~line "cost" d.d_cost (fun v -> d.d_cost <- Some v) v
    | "bins_opened" :: [ s ] ->
        let* v = parse_int ~line "bins_opened" s in
        let* d = current_digest ~line in
        dscalar ~line "bins_opened" d.d_bins_opened (fun v -> d.d_bins_opened <- Some v) v
    | "open" :: bin :: occupants ->
        let* bin_id = parse_int ~line "bin id" bin in
        let* occupants = collect_ints ~line "occupant id" occupants in
        let* d = current_digest ~line in
        d.d_open_rev <- (bin_id, occupants) :: d.d_open_rev;
        Ok ()
    | _ -> Error (Printf.sprintf "line %d: unrecognised row %S" line trimmed)
  in
  (* the trimmed row [text.[lo .. hi-1]]: a history record is decoded
     where it lies, a state row is cut out and split *)
  let row ~line lo hi =
    if a.saw_history && not (Record.is_record text lo hi) then
      Error (Printf.sprintf "line %d: state row after history records" line)
    else
      let k = Record.comma text lo hi in
      if Record.field_is text lo k "arrive" || Record.field_is text lo k "depart" then
        match Record.decode ~version:!version ~decoder text lo (hi - lo) with
        | Ok e ->
            a.saw_history <- true;
            a.rev_history <- e :: a.rev_history;
            Ok ()
        | Error msg -> Error (Printf.sprintf "line %d: %s" line msg)
      else state_row ~line (String.sub text lo (hi - lo))
  in
  (* lines are walked by offsets; [off] is the line's first byte *)
  let rec go line off =
    if off >= n then Ok ()
    else
      let stop = Record.line_stop text off n in
      let lo = Record.trim_start text off stop in
      let hi = Record.trim_stop text lo stop in
      if line = 1 then
        if Record.field_is text lo hi magic_v2 then go 2 (stop + 1)
        else if Record.field_is text lo hi magic_v1 then begin
          version := 1;
          go 2 (stop + 1)
        end
        else
          Error
            (Printf.sprintf "line 1: expected %S, got %S" magic
               (String.sub text lo (hi - lo)))
      else if lo = hi || String.unsafe_get text lo = '#' then go (line + 1) (stop + 1)
      else
        match row ~line lo hi with
        | Ok () -> go (line + 1) (stop + 1)
        | Error _ as e -> e
  in
  let* () = go 1 0 in
  let* policy = require "policy" a.policy in
  let* seed = require "seed" a.seed in
  let* capacity = require "capacity" a.capacity in
  let* events = require "events" a.events in
  let rec finish_all acc = function
    | [] -> Ok acc
    | d :: rest ->
        let* digest = finish_digest d in
        finish_all (digest :: acc) rest
  in
  (* digests_rev is newest-first, so folding restores section order *)
  let* digests = finish_all [] a.digests_rev in
  let history = List.rev a.rev_history in
  if List.length history <> events then
    Error
      (Printf.sprintf
         "snapshot records %d events but its history holds %d — truncated or corrupt"
         events (List.length history))
  else
    let last = match List.rev history with e :: _ -> Some e | [] -> None in
    Ok { policy; seed; capacity; events; last; body = History { digests; history } }

(* {2 The v3 reader}

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

let of_string_v3 text =
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
        match Record.decode ~version:2 l 5 (String.length l - 5) with
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
  { policy; seed; capacity; events; last; body = State sections }

let of_string text =
  let n = String.length text in
  if Record.trim_start text 0 n = n then Error "empty snapshot"
  else if String.starts_with ~prefix:(magic ^ "\n") text then
    match of_string_v3 text with s -> Ok s | exception Bad msg -> Error msg
  else of_string_legacy text

let write ?(io = Real_io.v) ~path s = Io.atomic_replace io ~path (to_string s)

let load ?(io = Real_io.v) ~path () =
  match io.Io.read_file path with
  | Ok text -> Result.map_error (Printf.sprintf "%s: %s" path) (of_string text)
  | Error msg -> Error msg
