(** The open-bin registry: the engine's record of currently open bins and
    the allocation-free candidate view policies select from.

    Bins are kept in ascending open order (ascending {!Bin.t.id}) in a
    growable array ({!Dvbp_prelude.Dynarray}). Opening appends in O(1);
    closing is an O(1) tombstone (the bin's own [closed_at] marks it dead)
    with in-place compaction once a quarter of the slots are dead, so every
    traversal is O(live) amortised and allocates nothing. The open count
    is tracked incrementally — no [List.length] scans.

    The registry also mirrors each open bin's residual capacity
    ([capacity - load]) into one packed int array, so the per-arrival fit
    scan reads contiguous memory instead of dereferencing every bin
    record. When the capacity is byte-sized and [dim <= 8] it additionally
    keeps a SWAR mirror — all residuals of a slot in one native int, one
    lane per dimension — and every fit test becomes a single masked
    subtract (see DESIGN.md §7.3 for the word layout). The kernel is
    chosen once at {!create}; both kernels visit slots in the same order,
    so results and {!scan_stats} are bit-identical. The mirror is the
    engine's responsibility: after mutating a bin's load it must call
    {!refresh} (the session does, in its place and remove steps).

    The engine owns the mutators ({!add}, {!note_closed}, {!refresh});
    policies and the conformance replayer only use the read-only view
    below, which never yields a closed bin. *)

type t

val create : ?kernel:[ `Auto | `Scalar ] -> capacity:Dvbp_vec.Vec.t -> unit -> t
(** An empty registry for bins of the given capacity (used only to build
    the internal dummy slot filler). [kernel] (default [`Auto]) selects
    the fit-scan kernel: [`Auto] uses the SWAR word-at-a-time kernel
    whenever [dim <= 8] and every capacity component is at most
    [Vec.max_packable ~lane_bits:(63 / dim)] (255 up to [d = 6], 127 at
    [d = 7], 31 at [d = 8]) and the scalar per-dimension loop otherwise;
    [`Scalar] forces the scalar loop (differential tests, benchmarks). *)

val kernel_name : t -> string
(** ["swar"] or ["scalar"] — which fit kernel {!create} chose. *)

(** {1 Engine-only mutation} *)

val add : t -> Bin.t -> unit
(** Registers a freshly opened bin. Bins must be added in opening order.
    @raise Invalid_argument if the bin is closed. *)

val note_closed : t -> Bin.t -> unit
(** Tells the registry a registered bin was just closed ({!Bin.close} has
    already run). O(1) amortised. @raise Invalid_argument if still open. *)

val refresh : t -> Bin.t -> unit
(** Re-mirrors the bin's residual capacity after its load changed.
    Must be called after every {!Bin.place}/{!Bin.remove} on a registered
    bin. @raise Invalid_argument if the bin is not registered (and open). *)

(** {1 The candidate view (read-only, allocation-free)} *)

val count : t -> int
(** Number of open bins, tracked incrementally. O(1). *)

val iter : t -> (Bin.t -> unit) -> unit
(** Open bins in ascending open order. *)

val find : t -> (Bin.t -> bool) -> Bin.t option
(** First open bin satisfying the predicate; early exit. *)

val rfind : t -> (Bin.t -> bool) -> Bin.t option
(** Latest-opened bin satisfying the predicate; scans descending. *)

val fold : t -> ('acc -> Bin.t -> 'acc) -> 'acc -> 'acc
(** Over open bins in ascending open order. *)

val find_fitting : t -> Dvbp_vec.Vec.t -> Bin.t option
(** First open bin the size fits — First Fit's whole select. *)

val rfind_fitting : t -> Dvbp_vec.Vec.t -> Bin.t option
(** Latest-opened open bin the size fits — Last Fit's whole select. *)

val fold_fitting : t -> Dvbp_vec.Vec.t -> ('acc -> Bin.t -> 'acc) -> 'acc -> 'acc
(** Folds over the open bins the size fits, ascending, without building a
    candidate list. *)

val most_loaded_fitting :
  t -> measure:Load_measure.t -> Dvbp_vec.Vec.t -> Bin.t option
(** Fitting bin with the largest load measure (earliest wins ties) — Best
    Fit's whole select. The measure is evaluated from the packed residual
    mirror, bit-identical to scoring each bin with {!Bin.load_measure}.

    Only bins that could hold the item run the fit test: the registry
    keeps the open bins bucketed by residual in every dimension (one
    bucket per value up to capacity 255, at most 256 equal-width buckets
    above), and the query walks the buckets at or above the item's size
    in the dimension where the item is largest relative to capacity. The
    index is built by the first call of this function or
    {!least_loaded_fitting} and maintained by {!add}, {!refresh} and
    {!note_closed} from then on; the result is the bin an ascending scan
    of every open bin would select, for every measure. *)

val least_loaded_fitting :
  t -> measure:Load_measure.t -> Dvbp_vec.Vec.t -> Bin.t option
(** Fitting bin with the smallest load measure (earliest wins ties) —
    Worst Fit's select. Same residual bucket index as
    {!most_loaded_fitting}. *)

val recently_used_fitting : t -> Dvbp_vec.Vec.t -> Bin.t option
(** Fitting bin with the largest {!Bin.t.last_used} — Move To Front's
    select ([last_used] values are unique, so the argmax is unambiguous). *)

val exists_fitting : t -> Dvbp_vec.Vec.t -> bool
(** Used by the engine to enforce the strict Any Fit law. *)

val count_fitting : t -> Dvbp_vec.Vec.t -> int

val nth_fitting : t -> Dvbp_vec.Vec.t -> int -> Bin.t option
(** [nth_fitting t size k] is the [k]-th (0-based, ascending) open bin the
    size fits — Random Fit's selection pass. *)

val to_list : t -> Bin.t list
(** Open bins, ascending open order. Allocates; for observers and tests. *)

(** {1 Scan statistics (observability)} *)

type scan_stats = {
  scans : int;  (** fit scans performed (one per [*_fitting] call) *)
  candidates : int;
      (** slots whose fit test ran, summed over all scans: every slot up to
          the answer for the ascending and descending scans, only the
          slots in the walked residual buckets for {!most_loaded_fitting}
          and {!least_loaded_fitting} *)
  memo_hits : int;  (** {!exists_fitting} calls answered by the miss memo *)
}

val scan_stats : t -> scan_stats
(** Cumulative fit-scan tallies since {!create}. Maintained with two int
    stores per scan; never read on the hot path (scraped by the metrics
    layer at render time). *)

val of_list :
  ?kernel:[ `Auto | `Scalar ] -> capacity:Dvbp_vec.Vec.t -> Bin.t list -> t
(** Builds a registry holding exactly these bins (test helper). [kernel]
    as in {!create}. *)
