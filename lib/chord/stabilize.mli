(** Ring maintenance: successor/predecessor stabilization, finger
    refresh, and the join protocol for replacement nodes.

    Per the paper's configuration, nodes run successor *and* predecessor
    stabilization (Octopus maintains predecessor lists by running the
    Chord stabilization protocol anti-clockwise) every 2 s and refresh
    fingers by lookups every 30 s. *)

val join : Network.t -> int -> bootstrap:int -> (bool -> unit) -> unit
(** Join the slot's fresh identity via node [bootstrap]: look up our own
    id's owner, adopt its successor list, and notify the ring through
    subsequent stabilization rounds. Calls back with success. *)

val start : Network.t -> ?stabilize_every:float -> ?fingers_every:float -> unit -> unit
(** Start periodic maintenance for every node (phases are randomized so
    rounds spread over the period). Dead nodes skip their rounds and
    resume on revival. *)
