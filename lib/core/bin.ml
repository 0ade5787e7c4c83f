module Vec = Dvbp_vec.Vec
module Interval = Dvbp_interval.Interval

type t = {
  id : int;
  capacity : Vec.t;
  opened_at : float;
  mutable load : Vec.t;
  mutable active_items : Item.t list;
  mutable closed_at : float option;
  mutable last_used : int;
  (* one-entry load-measure cache, invalidated whenever [load] changes:
     Best/Worst Fit probe the same bin against many items between
     mutations, and recomputing L∞/L1/Lp per candidate per item dominated
     their select cost *)
  mutable measure_key : Load_measure.t option;
  mutable measure_val : float;
  (* slot index owned by Bin_registry (-1 while unregistered): lets the
     registry re-mirror this bin's residual capacity without a lookup *)
  mutable registry_slot : int;
}

let create ~id ~capacity ~now ~touch =
  {
    id;
    capacity;
    opened_at = now;
    load = Vec.zero ~dim:(Vec.dim capacity);
    active_items = [];
    closed_at = None;
    last_used = touch;
    measure_key = None;
    measure_val = 0.0;
    registry_slot = -1;
  }

let fits t size = Vec.fits_trusted ~cap:t.capacity ~load:t.load size
let is_open t = match t.closed_at with None -> true | Some _ -> false
let is_empty t = match t.active_items with [] -> true | _ :: _ -> false

let place t (r : Item.t) ~touch =
  if not (is_open t) then invalid_arg "Bin.place: bin is closed";
  if not (fits t r.Item.size) then
    invalid_arg
      (Printf.sprintf "Bin.place: item %d does not fit in bin %d" r.Item.id t.id);
  (* the bin owns its load vector exclusively, so accumulate in place *)
  Vec.add_into ~into:t.load r.Item.size;
  t.measure_key <- None;
  t.active_items <- r :: t.active_items;
  t.last_used <- touch

(* top-level so each [remove] does not allocate a closure for the scan *)
let rec drop_item item_id bin_id = function
  | [] ->
      invalid_arg
        (Printf.sprintf "Bin.remove: item %d is not active in bin %d" item_id
           bin_id)
  | (x : Item.t) :: rest ->
      if x.Item.id = item_id then rest else x :: drop_item item_id bin_id rest

let remove t (r : Item.t) =
  t.active_items <- drop_item r.Item.id t.id t.active_items;
  Vec.sub_into ~into:t.load r.Item.size;
  t.measure_key <- None

let set_registry_slot t slot = t.registry_slot <- slot

let close t ~now =
  if not (is_open t) then invalid_arg "Bin.close: already closed";
  if not (is_empty t) then invalid_arg "Bin.close: bin still has active items";
  t.closed_at <- Some now

let usage_interval t =
  match t.closed_at with
  | None -> invalid_arg "Bin.usage_interval: bin still open"
  | Some hi -> Interval.make t.opened_at hi

let load_measure m t =
  match t.measure_key with
  | Some k when Load_measure.equal k m -> t.measure_val
  | _ ->
      let v = Load_measure.apply m ~cap:t.capacity t.load in
      t.measure_key <- Some m;
      t.measure_val <- v;
      v

let pp ppf t =
  Format.fprintf ppf "bin#%d load=%a items=[%a] opened=%g%a" t.id Vec.pp t.load
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       (fun ppf (r : Item.t) -> Format.fprintf ppf "%d" r.Item.id))
    t.active_items t.opened_at
    (fun ppf -> function
      | None -> Format.fprintf ppf " (open)"
      | Some c -> Format.fprintf ppf " closed=%g" c)
    t.closed_at
