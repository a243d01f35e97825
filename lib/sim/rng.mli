(** Deterministic pseudo-random number generation for simulations.

    The generator is xoshiro256** seeded through splitmix64, giving fast,
    high-quality, reproducible streams. Generators can be {!split} so that
    independent subsystems (churn, latency jitter, adversary, ...) draw from
    independent streams and adding draws in one subsystem does not perturb
    the others. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of further
    draws from [t]. *)

val bits64 : t -> int64
(** 64 uniformly random bits. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniformly random bytes. Each underlying 64-bit draw
    is consumed least-significant byte first (the historical layout of the
    key/nonce generators), so streams are stable across refactors. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val coin : t -> float -> bool
(** [coin t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed (Box-Muller). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp] of a normal draw with the given (log-space) parameters. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample : t -> k:int -> 'a array -> 'a array
(** [sample t ~k arr] draws [min k (Array.length arr)] distinct elements,
    uniformly without replacement. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform permutation of [0..n-1]. *)
