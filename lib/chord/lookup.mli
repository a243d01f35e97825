(** Iterative Chord lookup.

    The initiator repeatedly fetches routing-table snapshots, greedily
    approaching the key's closest preceding node, and resolves ownership
    through the successor list of the last queried node — the baseline
    lookup of the paper's efficiency comparison (§7) and the skeleton that
    Octopus anonymizes. *)

type result = {
  owner : Peer.t option;  (** [None] when the lookup failed *)
  hops : int;  (** remote tables fetched *)
  queried : Peer.t list;  (** queried nodes, in query order *)
  elapsed : float;  (** seconds from first query to completion *)
}

val run :
  Network.t ->
  from:int ->
  key:int ->
  ?seed_candidates:Peer.t list ->
  (result -> unit) ->
  unit
(** Perform the lookup from node [from]. Timeouts fall back to the
    next-best known candidate; the lookup fails after 32 queries or when
    candidates are exhausted.
    [seed_candidates] overrides the initial candidate set (the node's own
    routing entries by default) — used by Halo's route-diversified
    redundant searches. *)
