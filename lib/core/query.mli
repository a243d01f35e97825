(** Initiator-side anonymous queries (Figure 1).

    A query is onion-wrapped over a path of relays the initiator shares
    session keys with — normally the four relays of two pool pairs
    (A, B, C{_i}, D{_i}), or the accumulated hops of an in-progress random
    walk. The second relay holds the message for a random delay of up to
    [relay_max_delay] to frustrate end-to-end timing analysis (§4.7). *)

module Peer = Octo_chord.Peer

(** The relays a query travels through, in path order. *)
type path =
  | Relays of World.relay list
      (** a walk's hops or a circuit's, each with its own key; [[]]
          delivers straight to the target *)
  | Pairs of World.pair * World.pair
      (** A, B from the first pair and C, D from the second, with the
          keys of each pair's block *)

val send :
  World.t ->
  World.node ->
  ?dummy:bool ->
  path:path ->
  target:Peer.t ->
  query:Types.anon_query ->
  ?timeout:float ->
  (Types.anon_reply option -> unit) ->
  unit
(** Fire an anonymous query; the continuation receives [None] on timeout
    or when the reply capsule fails end-to-end integrity checking. A path
    that names a relay twice, or the initiator, fails at once with
    [None]. With the DoS defense enabled, a timeout also files an [R_dos]
    report naming the path's relays. [dummy] (default false) only labels
    the query's trace event — dummy traffic is indistinguishable on the
    wire. *)

val fetch_table :
  World.t -> World.node -> path:path -> ?session:int * bytes -> ?timeout:float ->
  Peer.t -> on_lost:(unit -> unit) -> (Types.signed_table World.verdict -> unit) -> unit
(** Ask the given peer for its signed table over [path] ({!send}; with
    no relays, straight to the peer), opening [session] there if given.
    The reply is judged by {!World.judge_table}, as direct fetches are; a
    lost or tampered reply goes to [on_lost]. *)

val fetch_list :
  World.t -> World.node -> path:path -> kind:Types.list_kind -> Peer.t ->
  on_lost:(unit -> unit) -> (Types.signed_list World.verdict -> unit) -> unit
(** {!fetch_table} for a list of [kind], judged by {!World.judge_list}. *)
