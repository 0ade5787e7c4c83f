(** The set of item ids a session has ever accepted.

    A session must refuse an id it accepted before — a second arrival is a
    duplicate, a second departure names an item already gone — long after
    the item left. Holding every id ever seen would make a session grow
    with its history; this set stays as small as the ids' spread allows:

    - a low-water mark [floor]: every id below it is in the set;
    - a bitmap window just above the mark. Adding an id there sets one
      bit, and whenever the window's leading byte is all ones the mark
      moves past it. The window starts at 512 ids and doubles when an id
      lands above it, up to a limit fixed at {!create}: {!max_window_ids},
      or more when the caller expects more ids;
    - disjoint ranges for the ids beyond that, in a balanced map from
      each range's low end to its high end. An id far ahead of the
      others — even [max_int] — costs one range, never a larger window. When the window moves up or grows, the ranges it reaches
      move into it.

    When ids ascend with some disorder, the set is the mark plus a
    window as wide as the disorder, whatever the number of ids. Only
    non-negative ids are members. *)

type t

val max_window_ids : int
(** The default widest window, in ids (2^19: 64 KiB of bitmap). *)

val create : ?expected_ids:int -> unit -> t
(** The empty set, with the 512-id window (64 bytes). Its window may grow
    to the least power of two that is at least {!max_window_ids} and
    [expected_ids] (default 0) ids, at most 2^40: a caller that knows its
    ids are a permutation of [0, n) passes [n], and every id then lands in
    the bitmap, whatever their order. *)

val mem : t -> int -> bool
(** O(1) below the mark and in the window; O(log ranges) beyond it. *)

val add : t -> int -> unit
(** Adds an id that is not yet a member. O(1) amortised within the
    window's limit of the mark (a window growth copies the window
    once). Beyond that: O(log ranges), wherever the id falls among the
    ranges.
    @raise Invalid_argument on a negative id or a member. *)

val of_ranges : (int * int) list -> t
(** The set of the given sorted, disjoint, non-adjacent, non-negative
    inclusive ranges (unchecked), with the default window limit.
    O(ranges log ranges + window). *)

val ranges : t -> (int * int) list
(** The members as sorted, disjoint, non-adjacent inclusive ranges: the
    canonical form, so equal sets give equal lists. O(ranges + window),
    and O(ranges + ids set in the window) in practice, since only the
    window up to its highest member is read. *)
