(** NISAN-style bound checking on returned routing tables (paper §4.1).

    A queried node could hand back a fingertable pointing at colluders. The
    initiator knows the expected node density from its own neighborhood, so
    a reported finger lying much further from its ideal position than the
    typical inter-node gap is suspicious. Bound checking cannot catch
    subtle manipulation (the paper calls it a moderate defense, which is
    why Octopus adds secret finger surveillance), but it bounds how far a
    single hop can be deflected. *)

val estimated_gap : Rtable.t -> float
(** Estimate the mean inter-node gap from the owner's successor list
    span. Falls back to the whole ring if the list is empty. *)

val check_table :
  Id.space -> num_fingers:int -> gap:float -> ?tolerance:float -> Proto.table -> bool
(** Check every present finger of a snapshot against its ideal position,
    and the successor list for oversized gaps. [tolerance] defaults to 8
    (false-reject probability ~3e-4 per finger). *)
