(** The range-estimation attack (Wang et al. CCS'10; paper Appendix III).

    Given a subset of observed queried nodes from one lookup (in query
    order), the adversary bounds the target's ring position: the last
    observed query is a lower bound (nodes past the target are never
    queried), and replaying the *virtual lookup* between the first and
    last observed queries yields an upper bound — each consecutive pair
    (E{_k}, E{_k+1}) reveals that the finger of E{_k} one index above the
    one reaching E{_k+1} must overshoot the target. *)

val passes_filter : Ring_model.t -> int list -> bool
(** Appendix III's subset filter: queries must be clockwise-monotone in
    query order and interior ones must lie on the virtual lookup from the
    first to the last (subsets violating this contain dummies). *)

val largest_hop : Ring_model.t -> int list -> int
(** The largest id-distance between consecutive queried nodes on the
    virtual lookup — the V(s) statistic weighting subset plausibility. *)

val estimate : Ring_model.t -> int list -> (int * int) option
(** [estimate model subset] returns [(lo_rank, size)]: the target lies in
    the [size] ranks starting at [lo_rank + 1]. [None] if the subset is
    empty. Single-query subsets fall back to the whole successor span of
    the query (the paper's one-observation case). *)
