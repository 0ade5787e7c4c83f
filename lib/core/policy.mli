(** Online packing policies (Algorithm 1 of the paper and variants).

    A policy answers one question — given the currently open bins and an
    arriving item, which bin receives it — plus two notifications that let
    stateful policies (Next Fit's current bin) track the bin lifecycle.

    Policies are values with private mutable state; build a fresh policy per
    simulation run. The engine passes the open bins as a read-only
    {!Bin_registry.t} candidate view — bins in opening order (ascending
    {!Bin.t.id}), traversed allocation-free with the registry's
    [find]/[rfind]/[fold_fitting] primitives — and owns all bin mutation.

    {b Non-clairvoyance.} The arriving item is presented as an {!item_view}
    whose [departure] field is [None] unless the engine runs in clairvoyant
    mode, so non-clairvoyant policies cannot accidentally peek at departure
    times (§2.1: the algorithm has no knowledge of when the item departs). *)

type item_view = {
  size : Dvbp_vec.Vec.t;
  arrival : float;
  departure : float option;  (** [Some _] only in clairvoyant mode *)
}

type decision =
  | Existing of Bin.t  (** pack into this open bin *)
  | Fresh  (** open a new bin *)

type t = {
  name : string;
  describe : string;
  select : item:item_view -> open_bins:Bin_registry.t -> decision;
  on_place : bin:Bin.t -> now:float -> unit;
      (** called after every placement, including into a fresh bin *)
  on_close : bin:Bin.t -> now:float -> unit;
      (** called when a bin closes *)
  strict_any_fit : bool;
      (** true when the policy's open-bin list [L] is {e all} open bins, so
          it must never return {!Fresh} while some open bin fits (checked by
          tests); Next Fit keeps [|L| <= 1] and is exempt *)
  export : unit -> int list;
      (** the policy-private state as ints (bin ids name open bins):
          Next Fit's current bin, Next-K Fit's candidates oldest first,
          the harmonic and hybrid classes as [bin; class] pairs, Random
          Fit's rng draw count ({!Dvbp_prelude.Rng.bits_drawn}); [[]] for
          the stateless policies *)
  import : int list -> selects:int -> bin:(int -> Bin.t option) -> (unit, string) result;
      (** replaces the state with an {!export}ed one; [bin] resolves a bin
          id to the restored open bin, and [selects] bounds how many times
          the exporting policy's [select] ran (its session's placements
          plus refusals). For Random Fit the policy's rng must be a fresh
          copy of the exporting one's: it is fast-forwarded by the draw
          count, O(draws), and a count over [2 * selects + 64] is
          refused. Errors on a malformed state or a bin id [bin] does not
          resolve. *)
}

(** {1 The paper's Any Fit policies} *)

val first_fit : unit -> t
(** Earliest-opened bin that fits. *)

val last_fit : unit -> t
(** Latest-opened bin that fits. *)

val best_fit : ?measure:Load_measure.t -> unit -> t
(** Most-loaded fitting bin (default measure {!Load_measure.Linf}, as in the
    paper's experiments); ties go to the earliest-opened bin. *)

val worst_fit : ?measure:Load_measure.t -> unit -> t
(** Least-loaded fitting bin; ties to the earliest-opened bin. *)

val move_to_front : unit -> t
(** Most-recently-used fitting bin (a fresh bin counts as used when it is
    opened, and every placement moves the receiving bin to the front). *)

val next_fit : unit -> t
(** Keeps a single current bin; when an item does not fit, the current bin
    is released (never receives again) and a fresh bin becomes current. Not
    a strict Any Fit policy: released bins stay open but are outside its
    list [L]. *)

val random_fit : rng:Dvbp_prelude.Rng.t -> unit -> t
(** Uniformly random fitting bin. *)

(** {1 Classical bin-packing variants (non-clairvoyant extensions)} *)

val next_k_fit : k:int -> unit -> t
(** Next-K Fit: keeps the [k] most recently opened bins as candidates and
    packs First-Fit among them; when an item misses all [k], the oldest
    candidate is released and a fresh bin becomes a candidate. [k = 1] is
    exactly {!next_fit}; [k → ∞] approaches {!first_fit}. Interpolates the
    §7 packing-vs-alignment trade-off. Not strict Any Fit for finite [k].
    @raise Invalid_argument if [k < 1]. *)

val harmonic_fit :
  ?num_classes:int -> capacity:Dvbp_vec.Vec.t -> unit -> t
(** Harmonic-style fit: items are classed by their capacity-relative [L∞]
    size ([class j] holds sizes in [(1/(j+1), 1/j]], the last class catches
    everything smaller), and each bin only accepts items of its class, First
    Fit within the class (default 6 classes). A size-classified counterpart
    to the duration-classified {!hybrid_first_fit}; non-clairvoyant. Not a
    strict Any Fit policy. [capacity] must match the instance's.
    @raise Invalid_argument if [num_classes < 1]. *)

(** {1 Clairvoyant extensions (§8 future work)} *)

val duration_aligned_fit : ?slack:float -> unit -> t
(** Clairvoyant heuristic: among fitting bins, prefer the bin whose latest
    remaining departure is closest to the arriving item's departure (within
    a [slack] window, default [0.0] meaning pure nearest), breaking ties by
    higher load. Falls back to Best Fit ordering when run non-clairvoyantly.
    Exercises the paper's §8 direction of using departure information. *)

val hybrid_first_fit : ?num_classes:int -> unit -> t
(** Clairvoyant First-Fit-by-duration-classes, the classification scheme of
    the clairvoyant MinUsageTime DBP literature (Li–Tang–Cai): items are
    classed by [⌊log₂ duration⌋] (clamped to [num_classes], default 16) and
    each class keeps its own First Fit bin pool, so short jobs never pin a
    bin holding long jobs. Not a strict Any Fit policy — it refuses bins of
    other classes. Falls back to plain First Fit on items with no departure
    information. *)

(** {1 Registry} *)

val standard_names : string list
(** The seven policies of the paper's experiments, in the paper's order:
    ["mtf"; "ff"; "bf"; "nf"; "wf"; "lf"; "rf"]. *)

val of_name : ?rng:Dvbp_prelude.Rng.t -> ?measure:Load_measure.t -> string -> (t, string) result
(** Builds a fresh policy from its short or long name (e.g. ["mtf"] or
    ["move-to-front"]). [rng] is required for ["rf"]; [measure] applies to
    ["bf"]/["wf"]. Extensions: ["daf"] (duration-aligned fit). *)

val of_name_exn : ?rng:Dvbp_prelude.Rng.t -> ?measure:Load_measure.t -> string -> t
