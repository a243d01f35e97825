(** Two-phase random walk for relay selection (Appendix I).

    Phase 1: the initiator extends an onion path hop by hop, choosing each
    next hop uniformly from the previous hop's (signed, bound-checked)
    fingertable and establishing a session key with it. Phase 2: the
    phase-1 terminus U{_l} receives a random seed and walks [l] further
    hops, selecting each via H(seed, step); it returns all signed tables so
    the initiator can audit signatures, bound checks, and seed consistency.
    The last two hops become an anonymization relay pair, with which the
    initiator then establishes session keys through the phase-1 path.

    Deviations from the paper are documented in DESIGN.md: phase 2's hops
    are contacted directly by U{_l} (exposing U{_l}, not the initiator),
    and a failed phase 2 restarts the whole walk rather than re-picking
    from U{_{l-1}}'s table. *)

val run : World.t -> World.node -> (World.pair option -> unit) -> unit
(** Perform one walk; [None] after {!Config.walk_max_attempts} failed
    attempts. On success the pair is *returned*, not pooled — callers
    decide (see {!Query.add_pair}). *)

val verify_phase2 :
  World.t ->
  expected_owner:Types.Peer.t ->
  seed:int ->
  length:int ->
  Types.signed_table list ->
  bool
(** The initiator-side audit of a phase-2 bundle (exposed for tests). *)
