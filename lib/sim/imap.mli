(** Compact int-keyed maps (sorted parallel arrays).

    The population-scale replacement for per-node [Hashtbl.t]s: an empty
    map costs 4 words (the arrays are the shared empty atom), lookups
    binary-search unboxed ints, and iteration is ascending key order by
    construction — the same order the old call sites obtained through
    [Tbl.iter_sorted ~cmp:Int.compare], but with no snapshot, sort, or
    per-visit allocation. Intended for small, hot maps (tens of entries);
    inserts and removes shift the tail of the arrays. *)

type 'a t

val create : unit -> 'a t
(** An empty map. No capacity argument on purpose: empty maps share the
    empty-array atom and only allocate storage on first insert. *)

val of_sorted : (int * 'a) array -> 'a t
(** A map of the given bindings, built in linear time. Raises
    [Invalid_argument] unless the keys are strictly ascending. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val mem : 'a t -> int -> bool
val find_opt : 'a t -> int -> 'a option

val first : 'a t -> (int * 'a) option
(** The binding with the smallest key. *)

val find_ceil : 'a t -> int -> (int * 'a) option
(** The binding with the smallest key [>= key] — with {!first} as the
    wrap-around, this is circular successor search (ring ownership). *)

val set : 'a t -> int -> 'a -> unit
(** Insert or replace (the [Hashtbl.replace] of this module). *)

val remove : 'a t -> int -> unit
(** Remove if present. Dropping the last binding releases the backing
    arrays, so quiescent maps return to their empty footprint. *)

val clear : 'a t -> unit

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Ascending key order. The callback must not add or remove bindings —
    iteration walks the live arrays without a snapshot; collect keys
    first when mutating (see {!fold}). *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Ascending key order; same no-mutation rule as {!iter}. *)

val min_by : skip:(int -> 'a -> bool) -> score:(int -> 'a -> int) -> 'a t -> (int * 'a * int) option
(** The binding with the smallest [score] among those where [skip] is
    false; ties go to the smallest key (the first minimum in ascending
    key order). Mirrors {!Tbl.min_by} with [cmp = Int.compare]. *)
