(** Synthetic wide-area latency model (King-dataset substitute).

    The paper estimates pairwise peer latencies from the King dataset
    (measured DNS-to-DNS RTTs, mean ~182 ms, highly heterogeneous). That
    dataset is not available offline, so this module synthesizes a latency
    space with the same relevant structure:

    - each node gets a coordinate in a low-dimensional Euclidean space
      (network core distance), and
    - a heavy-tailed (log-normal) per-node access delay (last-mile cost),
      which produces the heterogeneity and triangle-inequality violations
      characteristic of measured Internet RTTs.

    Coordinates have five dimensions, and the whole space is calibrated so
    the empirical mean RTT is 0.182 s, as reported for King. Jitter follows
    the paper's setting: uniform in [0, min(10 ms, 10% of the latency)]. *)

type t

val create : Rng.t -> n:int -> t
(** [create rng ~n] builds a latency space for [n] node slots. *)

val n : t -> int

val rtt : t -> int -> int -> float
(** Round-trip time between two slots, in seconds. [rtt t i i = 0.]. *)

val one_way : t -> int -> int -> float
(** Half the RTT. *)

val jitter_bound : t -> int -> int -> float
(** The paper's jitter window: [min 0.010 (0.1 *. one_way)]. *)

val sample_one_way : t -> Rng.t -> int -> int -> float
(** One-way delay plus a uniform jitter draw from the jitter window. *)

val mean_rtt : t -> float
(** Empirical mean RTT over sampled pairs (for calibration reporting). *)

val median_rtt : t -> float
(** Empirical median RTT over sampled pairs. *)
