(** Initiator-side anonymous queries (Figure 1).

    A query is onion-wrapped over a list of relays the initiator shares
    session keys with — normally the four relays of two pool pairs
    (A, B, C{_i}, D{_i}), or the accumulated hops of an in-progress random
    walk. The second relay holds the message for a random delay of up to
    [relay_max_delay] to frustrate end-to-end timing analysis (§4.7). *)

module Peer = Octo_chord.Peer

val send :
  World.t ->
  World.node ->
  ?dummy:bool ->
  relays:World.relay list ->
  target:Peer.t ->
  query:Types.anon_query ->
  ?timeout:float ->
  (Types.anon_reply option -> unit) ->
  unit
(** Fire an anonymous query; the continuation receives [None] on timeout
    or when the reply capsule fails end-to-end integrity checking. With
    the DoS defense enabled, a timeout also files an [R_dos] report naming
    the path's relays. [dummy] (default false) only labels the query's
    trace event — dummy traffic is indistinguishable on the wire. *)

val fetch_table :
  World.t -> World.node -> relays:World.relay list -> ?session:int * bytes -> ?timeout:float ->
  Peer.t -> on_lost:(unit -> unit) -> (Types.signed_table World.verdict -> unit) -> unit
(** Ask the given peer for its signed table over [relays] ({!send}; with
    none, straight to the peer), opening [session] there if given. The
    reply is judged by {!World.judge_table}, as direct fetches are; a lost
    or tampered reply goes to [on_lost]. *)

val fetch_list :
  World.t -> World.node -> relays:World.relay list -> kind:Types.list_kind -> Peer.t ->
  on_lost:(unit -> unit) -> (Types.signed_list World.verdict -> unit) -> unit
(** {!fetch_table} for a list of [kind], judged by {!World.judge_list}. *)

val path_relays : World.pair -> World.pair -> World.relay list
(** [path_relays ab cd] is the four-relay path A, B, C, D. *)

val pick_pairs : World.t -> World.node -> n:int -> World.pair list
(** Up to [n] distinct pairs drawn from the node's pool (the pool is not
    consumed — pairs are reusable across lookups, distinct within one). *)

val discard_pair : World.node -> World.pair -> unit
(** Drop a pair whose relays appear dead or misbehaving. *)

val add_pair : World.node -> World.pair -> unit
(** Admit a freshly walked pair, evicting the oldest beyond the target
    pool size. *)
