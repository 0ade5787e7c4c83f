(** Runtime bins (servers) during a simulation.

    A bin is opened when it receives its first item, stays open while it
    contains an active item, and is closed — permanently, per the paper's
    §2.1 convention — when its last item departs. Mutation is owned by the
    engine; policies only read bins.

    [last_used] is a monotonic touch counter maintained by the engine
    (bumped when the bin is opened and on every placement); Move To Front's
    most-recently-used order is exactly descending [last_used]. *)

type t = private {
  id : int;  (** opening order: bin [i] opened no later than bin [i+1] *)
  capacity : Dvbp_vec.Vec.t;
  opened_at : float;
  mutable load : Dvbp_vec.Vec.t;  (** total size of currently active items *)
  mutable active_items : Item.t list;  (** most recently placed first *)
  mutable closed_at : float option;
  mutable last_used : int;
  mutable measure_key : Load_measure.t option;
      (** one-entry {!load_measure} cache key; [None] after any load change *)
  mutable measure_val : float;
  mutable registry_slot : int;
      (** slot index owned by {!Bin_registry}; [-1] while unregistered *)
}

val create : id:int -> capacity:Dvbp_vec.Vec.t -> now:float -> touch:int -> t
(** A fresh, empty, open bin. *)

val fits : t -> Dvbp_vec.Vec.t -> bool
(** Exact test: current load plus the size stays within capacity. *)

val is_open : t -> bool
val is_empty : t -> bool

val place : t -> Item.t -> touch:int -> unit
(** Adds the item (engine-only). @raise Invalid_argument if it does not fit
    or the bin is closed. *)

val remove : t -> Item.t -> unit
(** Removes a departing item and subtracts its size (engine-only).
    @raise Invalid_argument if the item is not active in this bin. *)

val close : t -> now:float -> unit
(** Marks the bin closed (engine-only). @raise Invalid_argument if non-empty
    or already closed. *)

val set_registry_slot : t -> int -> unit
(** Records the bin's slot in its registry ({!Bin_registry}-only). *)

val usage_interval : t -> Dvbp_interval.Interval.t
(** [\[opened_at, closed_at)]. @raise Invalid_argument while still open. *)

val load_measure : Load_measure.t -> t -> float
(** Capacity-relative scalar load of the bin's current contents. Cached:
    repeated calls with the same measure between load changes are O(1). *)

val pp : Format.formatter -> t -> unit
