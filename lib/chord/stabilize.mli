(** Ring maintenance: successor/predecessor stabilization and finger
    refresh. There is no join protocol: the ring only loses nodes.

    Per the paper's configuration, nodes run successor *and* predecessor
    stabilization (Octopus maintains predecessor lists by running the
    Chord stabilization protocol anti-clockwise) every 2 s and refresh
    fingers by lookups every 30 s. *)

val start : Network.t -> ?stabilize_every:float -> ?fingers_every:float -> unit -> unit
(** Start periodic maintenance for every node (phases are randomized so
    rounds spread over the period). Dead nodes skip their rounds. *)
