(** Hot-key lookup result cache.

    Each initiator remembers the owner its own (verified) lookups
    resolved for a key, and serves repeats of that key locally until the
    entry's TTL lapses. Entries are keyed by [(node address, key)] so a
    hit never leaks one node's observations to another; the whole cache
    is flushed on certificate revocation, because a cached owner may
    have been vouched for by the now-revoked identity.

    Gating lives in {!Deployment}: with [Config.result_cache = false]
    nothing here is ever called, so disabled-config runs stay
    byte-identical to cacheless builds. *)

type t

val create : ttl:float -> cap:int -> t
(** [cap <= 0] disables the size bound; otherwise the table resets when
    it would exceed [cap] entries (bounded memory, never eviction: the
    cache is advisory). *)

val find : t -> now:float -> node:int -> key:int -> Octo_chord.Peer.t option
(** Fresh cached owner for [key] at [node], if any. Strict TTL: an
    entry is servable only strictly before [store time + ttl]; an
    expired entry is removed and counts as both an expiry and a miss. *)

val store : t -> now:float -> node:int -> key:int -> Octo_chord.Peer.t -> unit
(** Record a resolved owner; overwrites any previous entry for the same
    [(node, key)] and restarts its TTL. *)

val flush : t -> unit
(** Drop every entry (revocation path). *)

val size : t -> int
(** Live entries, including any that have expired but not yet been
    touched by {!find}. *)

val holders : t -> now:float -> key:int -> int
(** Number of nodes currently holding a fresh cached result for [key]
    -- the anonymity model's per-key suppression count. *)

val hits : t -> int
val misses : t -> int

val expired : t -> int
(** Lookups that found only a stale entry (each also counts as a miss). *)

val stores : t -> int
val flushes : t -> int
