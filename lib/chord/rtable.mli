(** A node's routing state: fingertable plus successor and predecessor
    lists.

    Octopus (§4.3) deliberately routes on the *combination* of fingers and
    successor list — the "routing table" — so the successor list speeds up
    the final hops; the predecessor list (maintained by running the
    stabilization protocol anti-clockwise) exists so that secret neighbor
    surveillance has testable ground truth. *)

type t

val create : Id.space -> owner:Peer.t -> num_fingers:int -> list_size:int -> t

val space : t -> Id.space
val owner : t -> Peer.t
val num_fingers : t -> int

val finger : t -> int -> Peer.t option
val set_finger : t -> int -> Peer.t option -> unit

val fingers : t -> Peer.t list
(** Present fingers, in index order (duplicates possible across indexes). *)

val succs : t -> Peer.t list
(** Successor list, closest first, length <= [list_size]. *)

val preds : t -> Peer.t list
(** Predecessor list, closest first (counter-clockwise). *)

val successor : t -> Peer.t option
val predecessor : t -> Peer.t option

val set_succs : t -> Peer.t list -> unit
(** Replace with the closest [list_size] of the given peers (sorted
    clockwise from the owner, the first of each id kept; the owner itself
    is filtered out). When the result would equal the current list, the
    current list itself is kept, so {!succs} returns the same value, and
    the call allocates nothing. *)

val set_preds : t -> Peer.t list -> unit

val merge_succs : t -> Peer.t list -> unit
(** Union current successors with candidates, keep the closest. *)

val merge_preds : t -> Peer.t list -> unit

val remove : t -> addr:int -> unit
(** Drop a (dead or revoked) peer from every structure; a list that does
    not hold it is kept as it is. *)

val entries : t -> Peer.t list
(** All distinct known peers: fingers + successors + predecessors. *)

val covers : t -> key:int -> Peer.t option
(** If [key]'s owner is determined by this table — i.e. [key] lies within
    the span of the successor list — return that owner. *)
