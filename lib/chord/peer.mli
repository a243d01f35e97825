(** A reference to another node: its ring identifier and network address.
    This is the unit entry of fingertables and successor/predecessor
    lists (10 bytes on the wire, per the paper). *)

type t = { id : int; addr : int }

val make : id:int -> addr:int -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val sort_cw : Id.space -> from:int -> t list -> t list
(** Sort by clockwise distance from [from], dropping duplicates (by id). *)

val sort_ccw : Id.space -> from:int -> t list -> t list
(** Sort by counter-clockwise distance from [from], dropping duplicates. *)
