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
  (* ids accepted before a restore, as sorted disjoint inclusive ranges
     [lo0; hi0; lo1; hi1; ...]: the item table only holds the items
     restored live, yet a departed id must stay refused. Empty unless the
     session was restored. *)
  accepted : int array;
  restored : bool;
}

let make ~record_trace ~expected_items ~fit_kernel ~capacity ~policy ~accepted ~restored =
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
    live = 0;
    stat_placements = 0;
    stat_departures = 0;
    stat_rejects = 0;
    cost = { time = 0.0 };
    cost_comp = { time = 0.0 };
    accepted;
    restored;
  }

let create ?(record_trace = true) ?(expected_items = 64) ?(fit_kernel = `Auto)
    ~capacity ~policy () =
  make ~record_trace ~expected_items ~fit_kernel ~capacity ~policy ~accepted:[||]
    ~restored:false

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

(* whether [id] lies in one of the ranges of [accepted] (binary search) *)
let in_ranges (accepted : int array) id =
  let rec go lo hi =
    (* ranges [lo, hi) of the range index *)
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if id < accepted.(2 * mid) then go lo mid
      else if id > accepted.((2 * mid) + 1) then go (mid + 1) hi
      else true
  in
  go 0 (Array.length accepted / 2)

(* an id this session has accepted, live or departed *)
let[@inline] known t id =
  Int_table.mem t.items id
  || (Array.length t.accepted > 0 && in_ranges t.accepted id)

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
  (* The provisional departure keeps Item.make's invariants; the real value
     is recorded at depart time and substituted when the packing is built. *)
  let provisional = match departure with Some d -> d | None -> at +. 1.0 in
  let item = Item.make ~id:item_id ~arrival:at ~departure:provisional ~size in
  Bin.place target item ~touch:(next_touch t);
  Bin_registry.refresh t.open_bins target;
  Int_table.replace t.items item_id { item; bin = target; departed_at = None };
  t.live <- t.live + 1;
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
    | exception Not_found ->
        if known t item_id then error "departure at %g: item %d already departed" at item_id
        else error "departure at %g: unknown item id %d" at item_id
  in
  (match state.departed_at with
  | Some _ -> error "departure at %g: item %d already departed" at item_id
  | None -> ());
  if at <= state.item.Item.arrival then
    error "departure at %g: item %d cannot depart, it arrived at %g" at item_id
      state.item.Item.arrival;
  commit_advance t at;
  state.departed_at <- Some at;
  t.live <- t.live - 1;
  Bin.remove state.bin state.item;
  emit t (Trace.Departed { time = at; item_id; bin_id = state.bin.Bin.id });
  if Bin.is_empty state.bin then begin
    Bin.close state.bin ~now:at;
    add_cost t (at -. state.bin.Bin.opened_at);
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

let refuse_restored t what =
  if t.restored then
    error "%s: the session was restored from saved state, and the history before it is not held" what

let trace t =
  refuse_restored t "trace";
  Trace.of_events (List.rev t.trace_rev)

let finish t ~at =
  refuse_restored t "finish";
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

(* every id ever accepted: the item table's keys and the restored ranges *)
let accepted_ranges t =
  (* the table's ids sorted (an int array: the table holds every item
     since the session began or was restored) *)
  let ids = Array.make (Int_table.length t.items) 0 in
  let k = ref 0 in
  Int_table.iter t.items (fun id _ ->
      ids.(!k) <- id;
      incr k);
  Array.sort Int.compare ids;
  (* merged with the restored ranges, both ascending, into disjoint
     inclusive ranges with gaps between them *)
  let restored = t.accepted in
  let nr = Array.length restored / 2 in
  let out = ref [] in
  let add lo hi =
    match !out with
    | (plo, phi) :: rest when lo <= phi + 1 -> out := (plo, Int.max phi hi) :: rest
    | _ -> out := (lo, hi) :: !out
  in
  let i = ref 0 and r = ref 0 in
  while !i < Array.length ids || !r < nr do
    if !r >= nr || (!i < Array.length ids && ids.(!i) < restored.(2 * !r)) then begin
      add ids.(!i) ids.(!i);
      incr i
    end
    else begin
      add restored.(2 * !r) restored.((2 * !r) + 1);
      incr r
    end
  done;
  List.rev !out

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
    accepted = accepted_ranges t;
    policy_state = t.policy.Policy.export ();
    bins;
  }

let restore ?(fit_kernel = `Auto) ~capacity ~policy (st : Saved.t) =
  let fail fmt = Printf.ksprintf (fun m -> Error ("restore: " ^ m)) fmt in
  let rec sorted_ranges prev = function
    | [] -> true
    | (lo, hi) :: rest -> lo > prev + 1 && lo <= hi && sorted_ranges hi rest
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
    let accepted =
      Array.of_list (List.concat_map (fun (lo, hi) -> [ lo; hi ]) st.Saved.accepted)
    in
    let live = List.fold_left (fun n b -> n + List.length b.Saved.items) 0 st.Saved.bins in
    let t =
      make ~record_trace:false ~expected_items:(Int.max 64 (2 * live)) ~fit_kernel
        ~capacity ~policy ~accepted ~restored:true
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
                  if Int_table.mem t.items id || not (in_ranges accepted id) then
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
                    Int_table.replace t.items id { item; bin = b; departed_at = None };
                    place items
            in
            (match place sb.Saved.items with
            | Error _ as e -> e
            | Ok () ->
                Bin_registry.add t.open_bins b;
                t.all_bins_desc <- b :: t.all_bins_desc;
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
