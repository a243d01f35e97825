(** One node's relay state, keyed by query id (cid).

    A relay remembers, per cid, when it last received the onion forward
    (the evidence the CA asks for under the selective-DoS defense,
    Appendix II) and which previous hop and session carry the reply
    back. The two are written at different times, age out on their own
    ({!prune}), and are cleared together ({!clear}); a cid stays in the
    log while either is present.

    Storage is sorted parallel arrays: four unboxed words per cid plus
    spare capacity. Previous-hop addresses must fit in 22 bits and
    session ids in 40 ({!route} asserts it). *)

type t

val create : unit -> t
(** An empty log. It allocates its arrays on the first write. *)

val receive : t -> cid:int -> now:float -> bool
(** Stamp [cid]'s receive time with [now]. [true] when it had none, i.e.
    on first delivery; a duplicate re-stamps it and returns [false]. *)

val route : t -> cid:int -> prev:int -> sid:int -> now:float -> unit
(** Record [cid]'s reply path, replacing any earlier one, with route
    time [now]. *)

val reply_hop : t -> int -> int
(** The packed reply path of a cid, or [-1] when it has none. Unpack a
    non-negative result with {!prev} and {!sid}. *)

val prev : int -> int
(** The previous hop's address in a packed reply path. *)

val sid : int -> int
(** The session id in a packed reply path. *)

val received : t -> int -> bool
(** Whether the cid has a receive time: the answer to an evidence
    request. *)

val prune : t -> horizon:float -> unit
(** Drop every receive and route time older than [horizon], and the
    cids left with neither, in one pass. *)

val clear : t -> unit
(** Forget everything and release the arrays. *)
