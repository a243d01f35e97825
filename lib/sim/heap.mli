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

val push : 'a t -> priority:float -> 'a -> int
(** Insert an element with the given priority and return its sequence
    number: 0 for the heap's first push, one more for each push after. *)

val min_prio : 'a t -> float
(** Priority of the minimum element without allocating. Raises
    [Invalid_argument] on an empty heap; check {!is_empty} first. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum element, read like {!min_prio}. *)

val pop_exn : 'a t -> 'a
(** Remove and return the minimum element, FIFO among ties, without
    allocating a [(prio, value)] pair; read {!min_prio} first if the
    priority is needed. Raises [Invalid_argument] on an empty heap. *)
