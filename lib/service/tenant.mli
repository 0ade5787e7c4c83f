(** Tenant identity: naming rules, stable hashing, and per-tenant rng.

    A tenant is a named, isolated packing session inside one server: its
    own bins, its own clock, its own policy rng stream. The protocol
    addresses tenants by name ([ARRIVE <tenant> <t> <id> <sizes>]); the
    un-prefixed grammar maps to the {!default} tenant, so pre-tenant
    clients and journals keep working unchanged.

    Everything here is a pure function of the tenant {e name}, never of
    arrival order or process state — a recovered server must re-derive
    identical shard and rng assignments from the journal alone, even when
    a rejected (and therefore unjournaled) request was the tenant's first
    contact. *)

val default : string
(** ["default"] — the tenant a request without a tenant field maps to. *)

val max_length : int

val is_valid : string -> bool
(** 1-{!max_length} characters from [A-Za-z0-9_.-]. The charset keeps
    tenant names safe inside both the space-separated protocol and the
    comma-separated journal records. *)

val validate : string -> (string, string) result

val hash : string -> int
(** FNV-1a folded to a non-negative int; stable across runs and compiler
    versions (it is part of the durability contract). *)

val shard : jobs:int -> string -> int
(** Which of [jobs] shards serves this tenant ([0] when [jobs <= 1]).
    All of a tenant's requests land on one shard, so per-tenant packing
    order is independent of the shard count. *)

val rng : seed:int -> string -> Dvbp_prelude.Rng.t
(** The tenant's policy rng. The {!default} tenant is exactly
    [Rng.create ~seed] (bit-compatible with pre-tenant servers); other tenants are independent splits keyed by {!hash}. *)
