(** Ring identifier arithmetic for an m-bit Chord identifier space.

    Identifiers are native ints in [\[0, 2^bits)] with [bits <= 56]. Fingers
    are addressed from the *top* of the span hierarchy: with [num_fingers]
    fingers, finger [i] (0-based) targets [n + 2^(bits - num_fingers + i)],
    so a small fingertable (the paper uses 12 fingers for N = 1000) still
    spans the whole ring and the successor list covers the final hops. *)

type space

val space : bits:int -> space
val bits : space -> int
val size : space -> int

val random : space -> Octo_sim.Rng.t -> int
(** Uniform identifier. *)

val add : space -> int -> int -> int
val sub : space -> int -> int -> int

val distance_cw : space -> int -> int -> int
(** Clockwise distance from [a] to [b]: the unique [d >= 0] with
    [add a d = b]. *)

val between : space -> int -> lo:int -> hi:int -> bool
(** [between s x ~lo ~hi] tests [x] in the half-open clockwise interval
    [(lo, hi\]]. Empty when [lo = hi]... except the full ring: by Chord
    convention [(x, x\]] is the whole ring, which this follows. *)

val between_open : space -> int -> lo:int -> hi:int -> bool
(** Open interval [(lo, hi)] clockwise. *)

val ideal_finger : space -> int -> num_fingers:int -> int -> int
(** [ideal_finger s n ~num_fingers i] for [0 <= i < num_fingers]. Larger
    [i] means larger span (finger [num_fingers - 1] is half the ring). *)
