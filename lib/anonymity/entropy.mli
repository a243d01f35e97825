(** Information-theoretic anonymity metrics (Díaz et al., PET 2003 — the
    paper's reference [15] for measuring anonymity).

    Distributions are given as (unnormalized) non-negative weights over an
    anonymity set; {!shannon} normalizes them. *)

val shannon : float list -> float
(** H = -Σ p·log2 p, in bits. Zero weights contribute nothing. *)

val max_entropy : int -> float
(** log2 n — the entropy of a uniform anonymity set of size [n]. *)
