(** Incremental (truly online) packing session.

    {!Engine.run} replays a complete instance, but a real dispatcher does
    not know the future: requests arrive one at a time and departures are
    observed, not scheduled. A session exposes exactly that interface — feed
    it arrivals and departures in time order and read placements, costs and
    open-bin state as you go. The batch engine is implemented on top of this
    module, so both views of an execution agree by construction.

    Time must be fed monotonically: events at equal timestamps are legal
    (departures must be fed before arrivals at the same instant, matching
    the half-open interval semantics); going backwards raises.

    A session holds only live state: the open bins with their live items,
    the policy's own state, counters, and the set of ids ever accepted
    (compact while ids roughly ascend, see {!Id_set}). A departed item
    and a closed bin leave nothing behind, so memory follows what is open
    now, not the history. The finished {!Dvbp_core.Packing.t} and the
    {!Trace.t} are history: only a session created with [~history:true]
    keeps what {!finish} and {!trace} need. *)

type t

type placement = {
  item_id : int;  (** session-assigned, consecutive from 0 *)
  bin_id : int;
  opened_new_bin : bool;
}

exception Session_error of string

val create :
  ?record_trace:bool ->
  ?history:bool ->
  ?expected_items:int ->
  ?fit_kernel:[ `Auto | `Scalar ] ->
  capacity:Dvbp_vec.Vec.t ->
  policy:Dvbp_core.Policy.t ->
  unit ->
  t
(** A fresh session with no bins. The policy must be freshly created (its
    mutable state belongs to this session). [history] (default [false])
    keeps every bin and item the session ever held, for {!finish} and
    {!trace}; offline drivers that need the final packing ({!Engine.run},
    trace replay) set it, a long-running service must not. [record_trace]
    (default [true]) matters only with [history]: it controls whether
    events are accumulated for {!trace}; disable it on hot paths (e.g.
    ratio sweeps) that never read the trace — {!trace} then returns an
    empty trace. [expected_items] pre-sizes the item table when the caller
    knows how many items will be live at once (the batch engine passes
    the workload size), avoiding rehashes mid-run, and lets the set of
    accepted ids keep that many ids in its bitmap, in any order
    ({!Id_set.create}'s [expected_ids]). [fit_kernel] (default [`Auto]) is forwarded to
    {!Dvbp_core.Bin_registry.create}: [`Scalar] forces the per-dimension
    fit-scan loop even when the capacity qualifies for the SWAR kernel
    (differential tests, benchmarks). Kernel choice never changes
    placements or statistics — only scan speed. *)

val arrive :
  t ->
  at:float ->
  ?id:int ->
  ?departure:float ->
  size:Dvbp_vec.Vec.t ->
  unit ->
  placement
(** Places a new item and returns where it went. [id] overrides the
    session-assigned item id (it must be fresh — used by the batch engine to
    preserve instance ids). [departure] may be passed to make the placement
    clairvoyant (the policy then sees it); the session itself never acts on
    it — the caller still must call {!depart}.
    @raise Session_error on non-monotonic time, a duplicate [id], a size
    that cannot fit an empty bin, a dimension mismatch, or policy
    misbehaviour. *)

val depart : t -> at:float -> item_id:int -> unit
(** Removes an active item; closes its bin if it was the last occupant.
    @raise Session_error on unknown or already-departed items, or
    non-monotonic time. *)

type event =
  | Arrive of { at : float; id : int option; size : Dvbp_vec.Vec.t }
  | Depart of { at : float; item_id : int }
      (** A session event as a value — what streaming drivers (the trace
          store's replay, the service loadgen) carry around instead of
          closures over {!arrive}/{!depart}. *)

val apply : t -> event -> placement option
(** Feeds one event: [Arrive] calls {!arrive} (returning [Some placement]),
    [Depart] calls {!depart} (returning [None]). Same exceptions. *)

val finish : t -> at:float -> Dvbp_core.Packing.t
(** Departs every still-active item at [at] and returns the final packing.
    The session cannot be used afterwards.
    @raise Session_error on non-monotonic time, if already finished, or on
    a session without history (created without [~history:true], or
    {!restore}d). *)

(** {1 Observability} *)

val now : t -> float
(** Timestamp of the last event ([0.] for a fresh session). *)

val capacity : t -> Dvbp_vec.Vec.t
(** The bin capacity the session was created with. *)

val open_bins : t -> Dvbp_core.Bin.t list
(** Currently open bins in opening order. Callers must not mutate. *)

val active_items : t -> int
(** Items placed and not yet departed. O(1). *)

val bins_opened : t -> int

val max_open_bins : t -> int
(** Peak number of simultaneously open bins so far. *)

val open_bin_count : t -> int
(** Number of currently open bins. O(1). *)

val bins_closed : t -> int
(** Bins opened and since closed ([bins_opened - open_bin_count]). *)

val placements : t -> int
(** Successful {!arrive} calls so far. *)

val departures : t -> int
(** Successful {!depart} calls so far (including those forced by
    {!finish}). *)

val rejects : t -> int
(** {!arrive}/{!depart} calls refused with {!Session_error}. Refused
    events leave all other state untouched, so this is the only trace
    they leave. *)

val scan_stats : t -> Dvbp_core.Bin_registry.scan_stats
(** Cumulative fit-scan tallies of the session's open-bin registry. *)

val fit_kernel : t -> string
(** {!Dvbp_core.Bin_registry.kernel_name} of the session's registry:
    ["swar"] or ["scalar"]. *)

val cost_so_far : t -> float
(** Total bin-time accumulated up to [now] (open bins billed to [now]): a
    Kahan sum fed once per bin close, continued over the open bins in id
    order. O(open bins). *)

val fingerprint : t -> string
(** Canonical one-line digest of the observable state: clock, cost (both
    [%.17g], so equality is bit-equality), bins opened, peak open bins,
    active items, and every open bin with its occupant ids sorted. Two
    sessions that processed the same events have equal fingerprints; the
    crash-simulation tests compare recovered sessions against uninterrupted
    ones with exactly this. *)

val trace : t -> Trace.t
(** Everything that happened so far, oldest first. Empty when the session
    was created with [~record_trace:false].
    @raise Session_error on a session without history. *)

(** {1 Saved state}

    What a session's future behaviour depends on, and nothing of its
    past: the clock, the id and touch counters, the statistics, the cost
    accumulator, the set of ids ever accepted, the policy's private state
    and every open bin with its live items. A session {!restore}d from
    {!export} places every later event exactly as the exporting session
    would, and has the same {!fingerprint}. *)

module Saved : sig
  type item = {
    item_id : int;
    arrival : float;
    departure : float;  (** the stored field: provisional unless clairvoyant *)
    size : Dvbp_vec.Vec.t;
  }

  type bin = {
    bin_id : int;
    opened_at : float;
    last_used : int;
    items : item list;  (** live items, placement order *)
  }

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
    cost_sum : float;  (** the closed bins' Kahan sum ... *)
    cost_comp : float;  (** ... and its compensation *)
    accepted : (int * int) list;
        (** every id ever accepted, as sorted disjoint inclusive ranges *)
    policy_state : int list;  (** {!Dvbp_core.Policy.t.export} *)
    bins : bin list;  (** the open bins, id order *)
  }
end

val export : t -> Saved.t
(** The session's saved state. O(live items + accepted ranges + the
    {!Id_set} window), whatever the number of events so far; the window
    is read only up to its highest id, so a session whose ids ascend pays
    for a few bytes of it.
    @raise Session_error once finished. *)

val restore :
  ?fit_kernel:[ `Auto | `Scalar ] ->
  capacity:Dvbp_vec.Vec.t ->
  policy:Dvbp_core.Policy.t ->
  Saved.t ->
  (t, string) result
(** A session continuing from saved state. [policy] must be freshly
    created with the exporter's parameters (for Random Fit, a fresh copy
    of its rng); its state is then {!Dvbp_core.Policy.t.import}ed. The
    bins re-enter the registry in id order, so every tie-break comes out
    as it would have. The restored session has the same shape as a fresh
    one: it refuses an id accepted before the restore (arrival: duplicate
    id; departure: already departed) exactly as the exporter would, and,
    keeping no history, refuses {!trace} and {!finish}. O(live items +
    accepted ranges + the {!Id_set} window).
    Errors on an inconsistent state (unordered bins or ranges, an item
    that does not fit, an id outside the accepted ranges, a policy state
    the policy rejects). *)
