module Core = Dvbp_core
module Item = Core.Item

exception Policy_error of string

type run = {
  packing : Core.Packing.t;
  trace : Trace.t;
  bins_opened : int;
  max_open_bins : int;
}

(* Hand-rolled quicksorts for the two event streams: Stdlib.Array.sort
   pays an indirect call per comparison, which dominates the sort on large
   instances. Keys are (time, id) with unique ids, hence strictly distinct,
   so an unstable sort yields the same order as the stable one. *)

let[@inline] before_arrival (a : Item.t) (b : Item.t) =
  a.Item.arrival < b.Item.arrival
  || (a.Item.arrival = b.Item.arrival && a.Item.id < b.Item.id)

let[@inline] before_departure (a : Item.t) (b : Item.t) =
  a.Item.departure < b.Item.departure
  || (a.Item.departure = b.Item.departure && a.Item.id < b.Item.id)

let[@inline] swap (a : Item.t array) i j =
  let t = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j t

let rec qsort_arrival (a : Item.t array) lo hi =
  if hi - lo < 12 then
    for i = lo + 1 to hi do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && before_arrival v a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    (* median-of-three pivot, Hoare partition *)
    let mid = lo + ((hi - lo) / 2) in
    if before_arrival a.(mid) a.(lo) then swap a mid lo;
    if before_arrival a.(hi) a.(mid) then begin
      swap a hi mid;
      if before_arrival a.(mid) a.(lo) then swap a mid lo
    end;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while before_arrival a.(!i) pivot do incr i done;
      while before_arrival pivot a.(!j) do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    qsort_arrival a lo !j;
    qsort_arrival a !i hi
  end

let rec qsort_departure (a : Item.t array) lo hi =
  if hi - lo < 12 then
    for i = lo + 1 to hi do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && before_departure v a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if before_departure a.(mid) a.(lo) then swap a mid lo;
    if before_departure a.(hi) a.(mid) then begin
      swap a hi mid;
      if before_departure a.(mid) a.(lo) then swap a mid lo
    end;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while before_departure a.(!i) pivot do incr i done;
      while before_departure pivot a.(!j) do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    qsort_departure a lo !j;
    qsort_departure a !i hi
  end

(* The batch engine is a thin driver over the incremental session: it knows
   the full future, sorts it, and feeds it event by event. Instead of
   sorting one array of 2n tagged events, it sorts the items twice — by
   arrival and by departure — and merges the two streams while driving the
   session: same total order (departures precede arrivals at equal times,
   ids break remaining ties), but monomorphic float/int comparisons and no
   per-event boxing. *)
let run ?(clairvoyant = false) ?departure_oracle ?(record_trace = true) ~policy
    (instance : Core.Instance.t) =
  let oracle =
    match departure_oracle with
    | Some f -> f
    | None ->
        if clairvoyant then fun (r : Item.t) -> Some r.Item.departure
        else fun _ -> None
  in
  let arrivals = Array.of_list instance.Core.Instance.items in
  let n = Array.length arrivals in
  qsort_arrival arrivals 0 (n - 1);
  let departures = Array.copy arrivals in
  qsort_departure departures 0 (n - 1);
  let session =
    Session.create ~record_trace ~history:true ~expected_items:n
      ~capacity:instance.Core.Instance.capacity ~policy ()
  in
  (try
     let i = ref 0 (* next arrival *) and j = ref 0 (* next departure *) in
     while !i < n || !j < n do
       (* every departed item arrived strictly earlier in this order, so
          arrivals can never fall behind departures (!j <= !i) *)
       if
         !i >= n
         || (!j < n
             && departures.(!j).Item.departure <= arrivals.(!i).Item.arrival)
       then begin
         let r = departures.(!j) in
         incr j;
         Session.depart session ~at:r.Item.departure ~item_id:r.Item.id
       end
       else begin
         let r = arrivals.(!i) in
         incr i;
         let departure = oracle r in
         ignore
           (Session.arrive session ~at:r.Item.arrival ~id:r.Item.id ?departure
              ~size:r.Item.size ())
       end
     done
   with Session.Session_error msg -> raise (Policy_error msg));
  assert (Session.active_items session = 0);
  let horizon = Session.now session in
  let trace = Session.trace session in
  let packing = Session.finish session ~at:horizon in
  {
    packing;
    trace;
    bins_opened = Session.bins_opened session;
    max_open_bins = Session.max_open_bins session;
  }

let cost run = Core.Packing.cost run.packing
