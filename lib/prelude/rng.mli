(** Deterministic, splittable randomness.

    Experiments must be reproducible: every randomised component receives a
    [Rng.t] derived from a root seed, and independent streams (one per
    instance, per algorithm, per sweep point) are derived with [split] so
    results do not depend on evaluation order. *)

type t
(** A random stream; a thin wrapper over [Random.State.t] with a recorded
    seed path for diagnostics. *)

val create : seed:int -> t
(** Root stream for a given seed. Equal seeds give equal streams. *)

val split : t -> key:int -> t
(** [split t ~key] derives an independent child stream. Children with
    distinct keys are (statistically) independent; the same [(t, key)] pair
    always yields the same stream. The parent is not consumed. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0 .. bound-1]. [bound] must be
    positive. *)

val int_incl : t -> lo:int -> hi:int -> int
(** Uniform integer in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [lo > hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean ([mean > 0]). *)

val normal : t -> mean:float -> sigma:float -> float
(** Gaussian draw (Box–Muller); [sigma >= 0]. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto(Type I) draw: support [\[scale, ∞)], tail exponent [shape]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val bits_drawn : t -> int
(** How many [Random.State.bits] draws {!int}, {!int_incl} and {!pick}
    have made on this stream. The other draws ({!float}, {!bool}, the
    distributions and {!state}) are not counted. *)

val skip : t -> int -> unit
(** [skip t n] makes [n] counted draws and discards them: a fresh stream
    skipped by another's {!bits_drawn} continues exactly where that one
    stands, provided only counted draws were made on it.
    @raise Invalid_argument if [n < 0]. *)

val seed_path : t -> string
(** Human-readable derivation path, e.g. ["42/3/17"] — useful in failure
    messages to replay exactly one instance. *)

val state : t -> Random.State.t
(** Escape hatch to the underlying state (consumed in place). *)
