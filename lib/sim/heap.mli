(** Array-backed binary min-heap keyed by [(priority, sequence)].

    Ties on priority are broken by insertion order so that simultaneous
    simulation events fire FIFO, keeping runs deterministic. The heap is
    stored as parallel arrays (an unboxed float array of priorities, an
    int array of sequence numbers, a value array), so pushing and popping
    allocate nothing once capacity has been reached — this is the
    population-scale scheduler-entry pool. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val push : 'a t -> float array -> int -> 'a -> int
(** [push t cells i v] inserts [v] with priority [cells.(i)] and returns
    its sequence number: 0 for the heap's first push, one more for each
    push after. The priority is read from [cells], so it does not cross
    the call as a boxed float (an allocation per push when the call is
    not inlined). *)

val min_due : 'a t -> until:float -> bool
(** Whether the heap has a minimum and its priority is at most [until]. *)

val advance_to_min : 'a t -> float array -> int -> unit
(** [advance_to_min t cells i] raises [cells.(i)] to the minimum's
    priority when that is later: a clock moved to the next event
    without the priority crossing the call boxed. Raises
    [Invalid_argument] on an empty heap. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum element. Raises [Invalid_argument]
    on an empty heap; check {!is_empty} first. *)

val pop_exn : 'a t -> 'a
(** Remove and return the minimum element, FIFO among ties, without
    allocating a [(prio, value)] pair; move a clock to the minimum with
    {!advance_to_min} first if the priority is needed. Raises
    [Invalid_argument] on an empty heap. *)
