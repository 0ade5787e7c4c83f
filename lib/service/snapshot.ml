module Vec = Dvbp_vec.Vec
module Bin = Dvbp_core.Bin
module Item = Dvbp_core.Item
module Session = Dvbp_engine.Session

let magic = "# dvbp-snapshot v2"
let magic_v1 = "# dvbp-snapshot v1"

type digest = {
  tenant : string;
  clock : float;
  cost : float;
  bins_opened : int;
  open_bins : (int * int list) list;
}

type t = {
  policy : string;
  seed : int;
  capacity : Vec.t;
  digests : digest list;
  history : Journal.event list;
}

let digest_of_session ~tenant session =
  let open_bins =
    List.map
      (fun (b : Bin.t) ->
        ( b.Bin.id,
          List.map (fun (r : Item.t) -> r.Item.id) b.Bin.active_items
          |> List.sort Int.compare ))
      (Session.open_bins session)
  in
  {
    tenant;
    clock = Session.now session;
    cost = Session.cost_so_far session;
    bins_opened = Session.bins_opened session;
    open_bins;
  }

(* Digest sections are written in tenant-name order so the snapshot bytes
   are a pure function of the state, not of arrival interleaving. *)
let sort_digests ds =
  List.sort (fun a b -> String.compare a.tenant b.tenant) ds

let to_string s =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "policy,%s\n" s.policy);
  Buffer.add_string buf (Printf.sprintf "seed,%d\n" s.seed);
  Buffer.add_string buf "capacity";
  Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf ",%d" c)) (Vec.to_array s.capacity);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "events,%d\n" (List.length s.history));
  List.iter
    (fun d ->
      Buffer.add_string buf (Printf.sprintf "tenant,%s\n" d.tenant);
      Buffer.add_string buf (Printf.sprintf "clock,%.17g\n" d.clock);
      Buffer.add_string buf (Printf.sprintf "cost,%.17g\n" d.cost);
      Buffer.add_string buf (Printf.sprintf "bins_opened,%d\n" d.bins_opened);
      List.iter
        (fun (bin_id, occupants) ->
          Buffer.add_string buf (Printf.sprintf "open,%d" bin_id);
          List.iter (fun id -> Buffer.add_string buf (Printf.sprintf ",%d" id)) occupants;
          Buffer.add_char buf '\n')
        d.open_bins)
    (sort_digests s.digests);
  List.iter
    (fun e ->
      Buffer.add_string buf (Journal.encode_event e);
      Buffer.add_char buf '\n')
    s.history;
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
  mutable history_rev : Journal.event list;
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

let of_string text =
  let n = String.length text in
  if Record.trim_start text 0 n = n then Error "empty snapshot"
  else begin
    let version = ref 2 in
    let decoder = Record.decoder () in
    let a =
      {
        policy = None;
        seed = None;
        capacity = None;
        events = None;
        digests_rev = [];
        history_rev = [];
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
              a.history_rev <- e :: a.history_rev;
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
          if Record.field_is text lo hi magic then go 2 (stop + 1)
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
    let history = List.rev a.history_rev in
    if List.length history <> events then
      Error
        (Printf.sprintf
           "snapshot records %d events but its history holds %d — truncated or corrupt"
           events (List.length history))
    else Ok { policy; seed; capacity; digests; history }
  end

let find_digest s tenant = List.find_opt (fun d -> d.tenant = tenant) s.digests

let write ?(io = Real_io.v) ~path s = Io.atomic_replace io ~path (to_string s)

let load ?(io = Real_io.v) ~path () =
  match io.Io.read_file path with
  | Ok text -> Result.map_error (Printf.sprintf "%s: %s" path) (of_string text)
  | Error msg -> Error msg
