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

val covers : Id.space -> Proto.table -> key:int -> Peer.t option
(** Resolve [key] through a table snapshot's successor list, walking
    clockwise from its owner. *)

val run :
  Network.t ->
  from:int ->
  key:int ->
  ?max_hops:int ->
  ?seed_candidates:Peer.t list ->
  (result -> unit) ->
  unit
(** Perform the lookup from node [from]. Timeouts fall back to the
    next-best known candidate; the lookup fails after [max_hops]
    (default 32) queries or when candidates are exhausted.
    [seed_candidates] overrides the initial candidate set (the node's own
    routing entries by default) — used by Halo's route-diversified
    redundant searches. *)

val run_recursive :
  Network.t -> from:int -> key:int -> ?timeout:float -> (result -> unit) -> unit
(** Recursive variant: the query is forwarded hop by hop and the covering
    node replies directly, so only the first hop sees the initiator —
    fewer round trips, but no initiator control over the route (the
    trade-off §2 discusses). [queried] is not populated (the initiator
    does not observe the path). *)
