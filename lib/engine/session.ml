module Vec = Dvbp_vec.Vec
module Int_table = Dvbp_prelude.Int_table
module Dynarray = Dvbp_prelude.Dynarray
module Core = Dvbp_core
module Bin = Core.Bin
module Bin_registry = Core.Bin_registry
module Item = Core.Item
module Policy = Core.Policy

exception Session_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Session_error s)) fmt

(* a live item: removed from the item table when it departs *)
type item_state = {
  (* departure is provisional unless the arrival was clairvoyant; a
     session with history replaces the item on departure by one with the
     actual departure, which is what {!finish} reports *)
  mutable item : Item.t;
  bin : Bin.t;
}

(* A bin's past, as {!finish} reports it: its usage interval and every
   item it held. *)
type past_bin = { bin : Bin.t; mutable placed_rev : item_state list }

(* What [finish] and [trace] read and nothing the session's future
   depends on: only a session created with [~history:true] keeps it. *)
type history = {
  record_trace : bool;
  mutable trace_rev : Trace.event list;
  past_bins : past_bin Dynarray.t;  (* every bin opened, indexed by id *)
}

type placement = { item_id : int; bin_id : int; opened_new_bin : bool }

(* all-float record: flat storage, so advancing the clock never allocates *)
type clock = { mutable time : float }

type t = {
  capacity : Vec.t;
  policy : Policy.t;
  history : history option;
  clock : clock;
  mutable started : bool;
  mutable next_item : int;
  mutable next_bin : int;
  mutable touch : int;
  open_bins : Bin_registry.t;  (* ascending open order, incremental count *)
  items : item_state Int_table.t;  (* the live items *)
  ids : Id_set.t;  (* every id ever accepted, live or departed *)
  mutable max_open : int;
  mutable finished : bool;
  mutable live : int;  (* items placed and not yet departed *)
  (* Observability tallies — scraped by the metrics layer at render
     time, never read by the engine itself. Refused events are counted
     here precisely because they leave everything else untouched. *)
  mutable stat_placements : int;
  mutable stat_departures : int;
  mutable stat_rejects : int;
  (* Kahan accumulator (sum, compensation) of the bin-time of every closed
     bin, fed once per close; [cost_so_far] continues it over the open
     bins *)
  cost : clock;
  cost_comp : clock;
}

let make ~history ~expected_items ~fit_kernel ~capacity ~policy ~ids =
  (* the dummy state fills the item table's empty slots; it is never read *)
  let dummy_state =
    {
      item = Item.make ~id:0 ~arrival:0.0 ~departure:1.0 ~size:capacity;
      bin = Bin.create ~id:(-1) ~capacity ~now:0.0 ~touch:0;
    }
  in
  {
    capacity;
    policy;
    history;
    clock = { time = 0.0 };
    started = false;
    next_item = 0;
    next_bin = 0;
    touch = 0;
    open_bins = Bin_registry.create ~kernel:fit_kernel ~capacity ();
    items = Int_table.create ~expected:expected_items ~dummy:dummy_state ();
    ids;
    max_open = 0;
    finished = false;
    live = 0;
    stat_placements = 0;
    stat_departures = 0;
    stat_rejects = 0;
    cost = { time = 0.0 };
    cost_comp = { time = 0.0 };
  }

let create ?(record_trace = true) ?(history = false) ?(expected_items = 64)
    ?(fit_kernel = `Auto) ~capacity ~policy () =
  let history =
    if not history then None
    else
      let dummy_bin = Bin.create ~id:(-1) ~capacity ~now:0.0 ~touch:0 in
      Some
        {
          record_trace;
          trace_rev = [];
          past_bins = Dynarray.create ~dummy:{ bin = dummy_bin; placed_rev = [] } ();
        }
  in
  make ~history ~expected_items ~fit_kernel ~capacity ~policy
    ~ids:(Id_set.create ~expected_ids:expected_items ())

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

(* an id this session has accepted, live or departed *)
let[@inline] known t id = Id_set.mem t.ids id

let next_touch t =
  t.touch <- t.touch + 1;
  t.touch

(* {2 History} — each hook runs only on a session that keeps history, so
   the live-state path builds no trace event *)

let emit h e = if h.record_trace then h.trace_rev <- e :: h.trace_rev

let note_opened h ~at b =
  Dynarray.push h.past_bins { bin = b; placed_rev = [] };
  emit h (Trace.Opened { time = at; bin_id = b.Bin.id })

let note_placed h ~at (s : item_state) =
  let p = Dynarray.get h.past_bins s.bin.Bin.id in
  p.placed_rev <- s :: p.placed_rev;
  emit h (Trace.Placed { time = at; item_id = s.item.Item.id; bin_id = s.bin.Bin.id })

let note_departed h ~at (s : item_state) =
  let r = s.item in
  s.item <- Item.make ~id:r.Item.id ~arrival:r.Item.arrival ~departure:at ~size:r.Item.size;
  emit h (Trace.Departed { time = at; item_id = r.Item.id; bin_id = s.bin.Bin.id })

let note_closed h ~at (b : Bin.t) = emit h (Trace.Closed { time = at; bin_id = b.Bin.id })

let open_fresh t ~at =
  let b = Bin.create ~id:t.next_bin ~capacity:t.capacity ~now:at ~touch:(next_touch t) in
  t.next_bin <- t.next_bin + 1;
  Bin_registry.add t.open_bins b;
  (match t.history with Some h -> note_opened h ~at b | None -> ());
  t.max_open <- Int.max t.max_open (Bin_registry.count t.open_bins);
  b

let[@inline] kahan_step sum comp x =
  let y = x -. comp.time in
  let s = sum.time +. y in
  comp.time <- (s -. sum.time) -. y;
  sum.time <- s

let add_cost t x = kahan_step t.cost t.cost_comp x

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
      if known t id then error "arrival at %g: duplicate item id %d" at id
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
        while known t t.next_item do
          t.next_item <- t.next_item + 1
        done;
        t.next_item
  in
  if item_id = t.next_item then t.next_item <- t.next_item + 1;
  (* The provisional departure keeps Item.make's invariants; with history,
     the real value replaces it at depart time. *)
  let provisional = match departure with Some d -> d | None -> at +. 1.0 in
  let item = Item.make ~id:item_id ~arrival:at ~departure:provisional ~size in
  Bin.place target item ~touch:(next_touch t);
  Bin_registry.refresh t.open_bins target;
  let state = { item; bin = target } in
  Int_table.replace t.items item_id state;
  Id_set.add t.ids item_id;
  t.live <- t.live + 1;
  (match t.history with Some h -> note_placed h ~at state | None -> ());
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
    | exception Not_found ->
        if known t item_id then error "departure at %g: item %d already departed" at item_id
        else error "departure at %g: unknown item id %d" at item_id
  in
  if at <= state.item.Item.arrival then
    error "departure at %g: item %d cannot depart, it arrived at %g" at item_id
      state.item.Item.arrival;
  commit_advance t at;
  Int_table.remove t.items item_id;
  t.live <- t.live - 1;
  Bin.remove state.bin state.item;
  (match t.history with Some h -> note_departed h ~at state | None -> ());
  if Bin.is_empty state.bin then begin
    Bin.close state.bin ~now:at;
    add_cost t (at -. state.bin.Bin.opened_at);
    Bin_registry.note_closed t.open_bins state.bin;
    (match t.history with Some h -> note_closed h ~at state.bin | None -> ());
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

let active_items t = t.live

let bins_opened t = t.next_bin
let max_open_bins t = t.max_open
let open_bin_count t = Bin_registry.count t.open_bins
let bins_closed t = t.next_bin - Bin_registry.count t.open_bins
let placements t = t.stat_placements
let departures t = t.stat_departures
let rejects t = t.stat_rejects
let scan_stats t = Bin_registry.scan_stats t.open_bins
let fit_kernel t = Bin_registry.kernel_name t.open_bins

(* the closed bins' accumulator, continued over the open bins in id
   order: O(open), and exactly restorable *)
let cost_so_far t =
  let horizon = now t in
  let sum = { time = t.cost.time } and comp = { time = t.cost_comp.time } in
  Bin_registry.iter t.open_bins (fun (b : Bin.t) ->
      kahan_step sum comp (horizon -. b.Bin.opened_at));
  sum.time

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

let history t what =
  match t.history with
  | Some h -> h
  | None -> error "%s: the session keeps no history (it was not created with ~history:true)" what

let trace t = Trace.of_events (List.rev (history t "trace").trace_rev)

let finish t ~at =
  let h = history t "finish" in
  let still_active =
    List.sort Int.compare (Int_table.fold t.items (fun id _ acc -> id :: acc) [])
  in
  List.iter (fun id -> depart t ~at ~item_id:id) still_active;
  advance t at ~kind:'f' ~item:(-1);
  t.finished <- true;
  let records =
    Dynarray.fold h.past_bins
      (fun acc p ->
        {
          Core.Packing.bin_id = p.bin.Bin.id;
          interval = Bin.usage_interval p.bin;
          items = List.rev_map (fun s -> s.item) p.placed_rev;
        }
        :: acc)
      []
  in
  Core.Packing.make ~capacity:t.capacity (List.rev records)

(* {2 Saved state} *)

module Saved = struct
  type item = { item_id : int; arrival : float; departure : float; size : Vec.t }
  type bin = { bin_id : int; opened_at : float; last_used : int; items : item list }

  type t = {
    clock : float;
    started : bool;
    next_item : int;
    next_bin : int;
    touch : int;
    max_open : int;
    placements : int;
    departures : int;
    rejects : int;
    cost_sum : float;
    cost_comp : float;
    accepted : (int * int) list;
    policy_state : int list;
    bins : bin list;
  }
end

let export t =
  if t.finished then error "export: session already finished";
  let bins =
    List.map
      (fun (b : Bin.t) ->
        {
          Saved.bin_id = b.Bin.id;
          opened_at = b.Bin.opened_at;
          last_used = b.Bin.last_used;
          items =
            List.rev_map
              (fun (r : Item.t) ->
                {
                  Saved.item_id = r.Item.id;
                  arrival = r.Item.arrival;
                  departure = r.Item.departure;
                  size = r.Item.size;
                })
              b.Bin.active_items;
        })
      (open_bins t)
  in
  {
    Saved.clock = t.clock.time;
    started = t.started;
    next_item = t.next_item;
    next_bin = t.next_bin;
    touch = t.touch;
    max_open = t.max_open;
    placements = t.stat_placements;
    departures = t.stat_departures;
    rejects = t.stat_rejects;
    cost_sum = t.cost.time;
    cost_comp = t.cost_comp.time;
    accepted = Id_set.ranges t.ids;
    policy_state = t.policy.Policy.export ();
    bins;
  }

let restore ?(fit_kernel = `Auto) ~capacity ~policy (st : Saved.t) =
  let fail fmt = Printf.ksprintf (fun m -> Error ("restore: " ^ m)) fmt in
  let rec sorted_ranges prev = function
    | [] -> true
    | (lo, hi) :: rest -> prev < max_int && lo > prev + 1 && lo <= hi && sorted_ranges hi rest
  in
  if not (Float.is_finite st.Saved.clock && Float.is_finite st.Saved.cost_sum
          && Float.is_finite st.Saved.cost_comp)
  then fail "non-finite clock or cost"
  else if not (sorted_ranges (-2) st.Saved.accepted) then
    fail "accepted ids are not sorted disjoint ranges of non-negative ids"
  else if st.Saved.next_item < 0 || st.Saved.next_bin < 0 || st.Saved.touch < 0
          || st.Saved.placements < 0 || st.Saved.departures < 0 || st.Saved.rejects < 0
  then
    fail "negative counter"
  else
    let live = List.fold_left (fun n b -> n + List.length b.Saved.items) 0 st.Saved.bins in
    let t =
      make ~history:None ~expected_items:(Int.max 64 (2 * live)) ~fit_kernel ~capacity
        ~policy ~ids:(Id_set.of_ranges st.Saved.accepted)
    in
    t.clock.time <- st.Saved.clock;
    t.started <- st.Saved.started;
    t.next_item <- st.Saved.next_item;
    t.next_bin <- st.Saved.next_bin;
    t.touch <- st.Saved.touch;
    t.max_open <- st.Saved.max_open;
    t.live <- live;
    t.stat_placements <- st.Saved.placements;
    t.stat_departures <- st.Saved.departures;
    t.stat_rejects <- st.Saved.rejects;
    t.cost.time <- st.Saved.cost_sum;
    t.cost_comp.time <- st.Saved.cost_comp;
    (* bins re-enter the registry in id order, as they first did *)
    let rec add_bins prev = function
      | [] -> Ok ()
      | (sb : Saved.bin) :: rest ->
          if sb.Saved.bin_id <= prev || sb.Saved.bin_id >= t.next_bin then
            fail "bin %d out of order or beyond the next bin id %d" sb.Saved.bin_id t.next_bin
          else if sb.Saved.items = [] then fail "open bin %d holds no item" sb.Saved.bin_id
          else if sb.Saved.last_used > t.touch || sb.Saved.opened_at > t.clock.time then
            fail "bin %d is ahead of the session's clock" sb.Saved.bin_id
          else
            let b =
              Bin.create ~id:sb.Saved.bin_id ~capacity ~now:sb.Saved.opened_at
                ~touch:sb.Saved.last_used
            in
            let rec place = function
              | [] -> Ok ()
              | (r : Saved.item) :: items ->
                  let id = r.Saved.item_id in
                  if Int_table.mem t.items id || not (Id_set.mem t.ids id) then
                    fail "item %d is repeated or not among the accepted ids" id
                  else if Vec.dim r.Saved.size <> Vec.dim capacity then
                    fail "item %d has dimension %d, the capacity %d" id (Vec.dim r.Saved.size)
                      (Vec.dim capacity)
                  else if not (Bin.fits b r.Saved.size) then
                    fail "item %d does not fit in bin %d" id sb.Saved.bin_id
                  else
                    let item =
                      Item.make ~id ~arrival:r.Saved.arrival ~departure:r.Saved.departure
                        ~size:r.Saved.size
                    in
                    Bin.place b item ~touch:sb.Saved.last_used;
                    Int_table.replace t.items id { item; bin = b };
                    place items
            in
            (match place sb.Saved.items with
            | Error _ as e -> e
            | Ok () ->
                Bin_registry.add t.open_bins b;
                add_bins sb.Saved.bin_id rest)
    in
    match add_bins (-1) st.Saved.bins with
    | Error _ as e -> e
    | exception Invalid_argument msg -> fail "%s" msg
    | Ok () -> (
        let bin id = Bin_registry.find t.open_bins (fun (b : Bin.t) -> b.Bin.id = id) in
        let selects = st.Saved.placements + st.Saved.rejects in
        match policy.Policy.import st.Saved.policy_state ~selects ~bin with
        | Error msg -> fail "%s" msg
        | Ok () -> Ok t)
