(** Open-addressing hash table for non-negative int keys, with linear
    probing and backward-shift deletion.

    The simulation session does three keyed operations per item (insert,
    departure lookup, removal); [Stdlib.Hashtbl] spends a C call on
    hashing plus generic equality per probe, which was a measurable slice
    of every run. This table inlines a multiplicative hash and compares
    keys as plain ints. {!remove} shifts the keys that follow a freed slot
    back instead of leaving a tombstone, so a table that sees many
    inserts and removes probes exactly as one that saw only its live
    keys. Capacity never shrinks: it follows the peak size.

    A [dummy] value fills empty value slots so absent entries do not leak
    old values. All operations raise [Invalid_argument] on negative keys. *)

type 'a t

val create : ?expected:int -> dummy:'a -> unit -> 'a t
(** [expected] pre-sizes the table (it grows automatically regardless). *)

val length : _ t -> int

val mem : _ t -> int -> bool

val find : 'a t -> int -> 'a
(** @raise Not_found when absent. *)

val find_opt : 'a t -> int -> 'a option

val replace : 'a t -> int -> 'a -> unit
(** Inserts or overwrites. *)

val remove : 'a t -> int -> unit
(** Removes the binding if present (a no-op otherwise). O(1) expected:
    it moves at most the run of occupied slots after the freed one. *)

val fold : 'a t -> (int -> 'a -> 'acc -> 'acc) -> 'acc -> 'acc
(** Unspecified order. *)
