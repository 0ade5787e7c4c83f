module Vec = Dvbp_vec.Vec
module Int_table = Dvbp_prelude.Int_table
module Core = Dvbp_core
module Bin = Core.Bin
module Bin_registry = Core.Bin_registry
module Item = Core.Item
module Policy = Core.Policy

exception Session_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Session_error s)) fmt

type item_state = {
  item : Item.t;  (* departure is provisional unless the arrival was clairvoyant *)
  bin : Bin.t;
  mutable departed_at : float option;
}

type placement = { item_id : int; bin_id : int; opened_new_bin : bool }

(* all-float record: flat storage, so advancing the clock never allocates *)
type clock = { mutable time : float }

type t = {
  capacity : Vec.t;
  policy : Policy.t;
  record_trace : bool;
  clock : clock;
  mutable started : bool;
  mutable next_item : int;
  mutable next_bin : int;
  mutable touch : int;
  open_bins : Bin_registry.t;  (* ascending open order, incremental count *)
  mutable all_bins_desc : Bin.t list;
  items : item_state Int_table.t;
  mutable trace_rev : Trace.event list;
  mutable max_open : int;
  mutable finished : bool;
  (* Observability tallies — scraped by the metrics layer at render
     time, never read by the engine itself. Refused events are counted
     here precisely because they leave everything else untouched. *)
  mutable stat_placements : int;
  mutable stat_departures : int;
  mutable stat_rejects : int;
}

let create ?(record_trace = true) ?(expected_items = 64) ?(fit_kernel = `Auto)
    ~capacity ~policy () =
  (* the dummy state fills the item table's empty slots; it is never read *)
  let dummy_state =
    {
      item = Item.make ~id:0 ~arrival:0.0 ~departure:1.0 ~size:capacity;
      bin = Bin.create ~id:(-1) ~capacity ~now:0.0 ~touch:0;
      departed_at = None;
    }
  in
  {
    capacity;
    policy;
    record_trace;
    clock = { time = 0.0 };
    started = false;
    next_item = 0;
    next_bin = 0;
    touch = 0;
    open_bins = Bin_registry.create ~kernel:fit_kernel ~capacity ();
    all_bins_desc = [];
    items = Int_table.create ~expected:expected_items ~dummy:dummy_state ();
    trace_rev = [];
    max_open = 0;
    finished = false;
    stat_placements = 0;
    stat_departures = 0;
    stat_rejects = 0;
  }

let now t = t.clock.time
let capacity t = t.capacity

(* [kind]/[item] name the offending event in time errors so they are
   diagnosable from a journal replay. Both are immediates ([item] is [-1]
   when the arrival's id is not yet assigned): passing them never allocates,
   and the message is only built on the failure path. *)
let who kind item =
  let k =
    match kind with 'a' -> "arrival" | 'd' -> "departure" | _ -> "finish"
  in
  if item < 0 then Printf.sprintf "%s" k else Printf.sprintf "%s of item %d" k item

(* Validation and commit are split so that a refused event (the service's
   REJECT-and-keep-serving path) leaves the session — clock included —
   exactly as it was: refused events are not journaled, so any state they
   left behind would diverge from a journal replay. *)
let check_advance t at ~kind ~item =
  if t.finished then error "%s at %g: session already finished" (who kind item) at;
  if not (Float.is_finite at) then
    error "%s: non-finite timestamp %g" (who kind item) at;
  if t.started && at < t.clock.time then
    error "%s: time went backwards: %g after %g" (who kind item) at t.clock.time

let commit_advance t at =
  t.clock.time <- at;
  t.started <- true

let advance t at ~kind ~item =
  check_advance t at ~kind ~item;
  commit_advance t at

let next_touch t =
  t.touch <- t.touch + 1;
  t.touch

let emit t e = if t.record_trace then t.trace_rev <- e :: t.trace_rev

let open_fresh t ~at =
  let b = Bin.create ~id:t.next_bin ~capacity:t.capacity ~now:at ~touch:(next_touch t) in
  t.next_bin <- t.next_bin + 1;
  Bin_registry.add t.open_bins b;
  t.all_bins_desc <- b :: t.all_bins_desc;
  emit t (Trace.Opened { time = at; bin_id = b.Bin.id });
  t.max_open <- Int.max t.max_open (Bin_registry.count t.open_bins);
  b

let arrive_core t ~at ?id ?departure ~size () =
  let given_id = match id with Some i -> i | None -> -1 in
  check_advance t at ~kind:'a' ~item:given_id;
  if Vec.dim size <> Vec.dim t.capacity then
    error "arrival%s at %g: item dimension %d does not match capacity dimension %d"
      (if given_id < 0 then "" else Printf.sprintf " of item %d" given_id)
      at (Vec.dim size) (Vec.dim t.capacity);
  if not (Vec.le size t.capacity) then
    error "arrival%s at %g: item size %s exceeds the bin capacity %s"
      (if given_id < 0 then "" else Printf.sprintf " of item %d" given_id)
      at (Vec.to_string size)
      (Vec.to_string t.capacity);
  (match departure with
  | Some dep when dep <= at ->
      error "arrival%s at %g: clairvoyant departure %g not after arrival"
        (if given_id < 0 then "" else Printf.sprintf " of item %d" given_id)
        at dep
  | Some _ | None -> ());
  (* id validation must precede bin selection: a rejected arrival must leave
     the session untouched (the service replies REJECT and keeps serving),
     and selection may open a fresh bin *)
  (match id with
  | Some id ->
      if id < 0 then error "arrival at %g: negative item id %d" at id;
      if Int_table.mem t.items id then error "arrival at %g: duplicate item id %d" at id
  | None -> ());
  (* the clock starts at 0 and items cannot arrive before it *)
  if at < 0.0 then
    error "arrival%s at %g: negative time"
      (if given_id < 0 then "" else Printf.sprintf " of item %d" given_id)
      at;
  commit_advance t at;
  let view = { Policy.size; arrival = at; departure } in
  let target, opened_new_bin =
    match t.policy.Policy.select ~item:view ~open_bins:t.open_bins with
    | Policy.Existing b ->
        if not (Bin.is_open b) then
          error "arrival%s at %g: policy %s selected closed bin %d"
            (if given_id < 0 then "" else Printf.sprintf " of item %d" given_id)
            at t.policy.Policy.name b.Bin.id;
        if not (Bin.fits b size) then
          error "arrival%s at %g: policy %s selected bin %d, where the item does not fit"
            (if given_id < 0 then "" else Printf.sprintf " of item %d" given_id)
            at t.policy.Policy.name b.Bin.id;
        (b, false)
    | Policy.Fresh ->
        if t.policy.Policy.strict_any_fit
           && Bin_registry.exists_fitting t.open_bins size
        then
          error "arrival%s at %g: policy %s opened a fresh bin although an open bin fits"
            (if given_id < 0 then "" else Printf.sprintf " of item %d" given_id)
            at t.policy.Policy.name;
        (open_fresh t ~at, true)
  in
  let item_id =
    match id with
    | Some id -> id
    | None ->
        (* skip over any ids the caller has claimed explicitly *)
        while Int_table.mem t.items t.next_item do
          t.next_item <- t.next_item + 1
        done;
        t.next_item
  in
  if item_id = t.next_item then t.next_item <- t.next_item + 1;
  (* The provisional departure keeps Item.make's invariants; the real value
     is recorded at depart time and substituted when the packing is built. *)
  let provisional = match departure with Some d -> d | None -> at +. 1.0 in
  let item = Item.make ~id:item_id ~arrival:at ~departure:provisional ~size in
  Bin.place target item ~touch:(next_touch t);
  Bin_registry.refresh t.open_bins target;
  Int_table.replace t.items item_id { item; bin = target; departed_at = None };
  emit t (Trace.Placed { time = at; item_id; bin_id = target.Bin.id });
  t.policy.Policy.on_place ~bin:target ~now:at;
  { item_id; bin_id = target.Bin.id; opened_new_bin }

let arrive t ~at ?id ?departure ~size () =
  match arrive_core t ~at ?id ?departure ~size () with
  | p ->
      t.stat_placements <- t.stat_placements + 1;
      p
  | exception (Session_error _ as e) ->
      t.stat_rejects <- t.stat_rejects + 1;
      raise e

let depart_core t ~at ~item_id =
  check_advance t at ~kind:'d' ~item:item_id;
  (* ids are non-negative (arrive refuses others), and the id table
     rejects negative keys outright *)
  if item_id < 0 then error "departure at %g: unknown item id %d" at item_id;
  let state =
    match Int_table.find t.items item_id with
    | s -> s
    | exception Not_found -> error "departure at %g: unknown item id %d" at item_id
  in
  (match state.departed_at with
  | Some earlier ->
      error "departure at %g: item %d already departed at %g" at item_id earlier
  | None -> ());
  if at <= state.item.Item.arrival then
    error "departure at %g: item %d cannot depart, it arrived at %g" at item_id
      state.item.Item.arrival;
  commit_advance t at;
  state.departed_at <- Some at;
  Bin.remove state.bin state.item;
  emit t (Trace.Departed { time = at; item_id; bin_id = state.bin.Bin.id });
  if Bin.is_empty state.bin then begin
    Bin.close state.bin ~now:at;
    Bin_registry.note_closed t.open_bins state.bin;
    emit t (Trace.Closed { time = at; bin_id = state.bin.Bin.id });
    t.policy.Policy.on_close ~bin:state.bin ~now:at
  end
  else Bin_registry.refresh t.open_bins state.bin

let depart t ~at ~item_id =
  match depart_core t ~at ~item_id with
  | () -> t.stat_departures <- t.stat_departures + 1
  | exception (Session_error _ as e) ->
      t.stat_rejects <- t.stat_rejects + 1;
      raise e

type event =
  | Arrive of { at : float; id : int option; size : Vec.t }
  | Depart of { at : float; item_id : int }

let apply t = function
  | Arrive { at; id; size } -> Some (arrive t ~at ?id ~size ())
  | Depart { at; item_id } ->
      depart t ~at ~item_id;
      None

let open_bins t = Bin_registry.to_list t.open_bins

let active_items t =
  Int_table.fold t.items
    (fun _ s acc -> match s.departed_at with None -> acc + 1 | Some _ -> acc)
    0

let bins_opened t = t.next_bin
let max_open_bins t = t.max_open
let open_bin_count t = Bin_registry.count t.open_bins
let bins_closed t = t.next_bin - Bin_registry.count t.open_bins
let placements t = t.stat_placements
let departures t = t.stat_departures
let rejects t = t.stat_rejects
let scan_stats t = Bin_registry.scan_stats t.open_bins
let fit_kernel t = Bin_registry.kernel_name t.open_bins

let cost_so_far t =
  let horizon = now t in
  Dvbp_prelude.Listx.sum_by
    (fun (b : Bin.t) ->
      let close = Option.value ~default:horizon b.Bin.closed_at in
      close -. b.Bin.opened_at)
    t.all_bins_desc

let fingerprint t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "clock=%.17g cost=%.17g opened=%d max_open=%d active=%d open=["
       (now t) (cost_so_far t) (bins_opened t) (max_open_bins t) (active_items t));
  List.iteri
    (fun i (b : Bin.t) ->
      if i > 0 then Buffer.add_char buf ';';
      Buffer.add_string buf (Printf.sprintf "%d{" b.Bin.id);
      List.map (fun (r : Item.t) -> r.Item.id) b.Bin.active_items
      |> List.sort Int.compare
      |> List.iteri (fun j id ->
             if j > 0 then Buffer.add_char buf ',';
             Buffer.add_string buf (string_of_int id));
      Buffer.add_char buf '}')
    (open_bins t);
  Buffer.add_char buf ']';
  Buffer.contents buf

let trace t = Trace.of_events (List.rev t.trace_rev)

let finish t ~at =
  let still_active =
    Int_table.fold t.items
      (fun id s acc ->
        match s.departed_at with None -> (id, s) :: acc | Some _ -> acc)
      []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter (fun (id, _) -> depart t ~at ~item_id:id) still_active;
  advance t at ~kind:'f' ~item:(-1);
  t.finished <- true;
  let final_item id =
    let s = Int_table.find t.items id in
    let departure =
      match s.departed_at with Some d -> d | None -> assert false
    in
    Item.make ~id ~arrival:s.item.Item.arrival ~departure ~size:s.item.Item.size
  in
  let records =
    List.rev_map
      (fun (b : Bin.t) ->
        {
          Core.Packing.bin_id = b.Bin.id;
          interval = Bin.usage_interval b;
          items = List.rev_map (fun (r : Item.t) -> final_item r.Item.id) b.Bin.placed;
        })
      t.all_bins_desc
  in
  Core.Packing.make ~capacity:t.capacity records
