(** Deterministic (key-sorted) traversal of [Hashtbl.t].

    Raw [Hashtbl.iter]/[Hashtbl.fold] visit buckets in hash order — a
    function of resize history and insertion interleaving — so any
    traversal that feeds traces, metrics, or float accumulation is a
    silent determinism leak. octolint rule D3 bans the raw forms in
    [lib/]; use these instead. Traversal order is defined purely by
    [cmp] over the key set, independent of how the table was built.

    All helpers snapshot the table first, so the callback may freely
    mutate (including remove from) the table it is traversing. *)

val iter_sorted : cmp:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter_sorted ~cmp f tbl] applies [f k v] for each binding, keys in
    ascending [cmp] order. *)

val fold_sorted :
  cmp:('k -> 'k -> int) -> ('k -> 'v -> 'a -> 'a) -> ('k, 'v) Hashtbl.t -> 'a -> 'a
(** [fold_sorted ~cmp f tbl init] folds over bindings, keys in ascending
    [cmp] order. *)

val min_by :
  cmp:('k -> 'k -> int) ->
  skip:('k -> 'v -> bool) ->
  score:('k -> 'v -> int) ->
  ('k, 'v) Hashtbl.t ->
  ('k * 'v * int) option
(** [min_by ~cmp ~skip ~score tbl] returns the binding with the smallest
    [score] among those where [skip] is false; ties go to the
    [cmp]-smallest key. A minimum over a total order is independent of
    traversal order, so unlike the [_sorted] helpers this needs no
    snapshot, sort, or per-binding allocation — use it on hot paths that
    only select, never enumerate. *)
