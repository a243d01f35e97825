(** Octopus lookups.

    {!anonymous} is the paper's lookup (§4): a greedy iterative walk over
    *signed* routing tables (fingers + successor list), where every query
    travels over its own anonymous path (a fresh (C{_i}, D{_i}) pair
    behind a per-lookup (A, B) pair) and [num_dummies] dummy queries to
    random known peers are interleaved to blunt range-estimation attacks.

    {!direct} is the non-anonymous variant used for periodic finger
    updates (§4.5): same signed tables and bound checks, but contacted
    directly. *)

module Peer = Octo_chord.Peer

type result = {
  owner : Peer.t option;
  hops : int;  (** non-dummy queries issued *)
  queried : Peer.t list;  (** non-dummy queried nodes, in order *)
  final_table : Types.signed_table option;
      (** the signed table whose successor list resolved the key *)
  elapsed : float;
  from_cache : bool;
      (** answered from the hot-key result cache: zero hops, zero
          network traffic, [elapsed = 0]. Only {!anonymous} consults the
          cache, and only when [Config.result_cache] is set. *)
}

val anonymous : World.t -> World.node -> key:int -> (result -> unit) -> unit
val direct : World.t -> World.node -> key:int -> (result -> unit) -> unit
