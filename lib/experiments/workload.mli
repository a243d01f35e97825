(** Open-loop heavy-traffic workload engine (ROADMAP item 3).

    Unlike every closed-loop scenario in this library, queries here
    arrive on their own clock -- a deterministic Poisson, bursty MMPP
    on/off, or diurnal (sinusoid-modulated) process -- regardless of
    whether earlier lookups finished, which is what exposes tail latency
    and backpressure. Key popularity is Zipf-skewed over a fixed
    catalog, so a hot-key result cache ({!Octopus.Rcache}) actually has
    something to hit.

    Determinism: the workload draws from its own seeded RNG universe
    (split per concern: arrivals, keys, initiator picks) and never
    touches the engine or world streams. Same-seed runs are
    byte-identical at the trace level, with or without chaos, with the
    cache on or off.

    Memory: the only per-query storage is the precomputed arrival/key
    arrays; latencies and bandwidth go into bounded
    {!Octo_sim.Metrics.Sketch}es, so million-query runs are fine. *)

(** Zipf-skewed rank sampler over [0, n). *)
module Zipf : sig
  type t

  val create : ?s:float -> n:int -> unit -> t
  (** Rank [i] (0-based) gets weight [1 / (i+1)^s]; [s] defaults to 1. *)

  val exponent : t -> float
  val support : t -> int

  val pmf : t -> int -> float
  (** Normalized probability of rank [i]. *)

  val sample : t -> Octo_sim.Rng.t -> int
  (** Inverse-CDF sampling; exactly one RNG draw per call. *)
end

(** Deterministic open-loop arrival processes. *)
module Arrivals : sig
  type process =
    | Poisson of { rate : float }  (** homogeneous, [rate] arrivals/s *)
    | Mmpp of { rate_on : float; rate_off : float; mean_on : float; mean_off : float }
        (** two-phase Markov-modulated Poisson: exponential sojourns of
            mean [mean_on]/[mean_off] seconds, arrivals at the phase's
            rate; starts in the on phase *)
    | Diurnal of { base : float; amplitude : float; period : float }
        (** inhomogeneous Poisson with rate
            [base * (1 + amplitude * sin (2 pi t / period))], sampled by
            thinning *)

  type t

  val create : process -> Octo_sim.Rng.t -> t

  val next : t -> now:float -> float
  (** Absolute time of the next arrival strictly after [now]. Calls must
      pass non-decreasing [now] values (the previous arrival). *)

  val rate_at : t -> now:float -> float
  (** Instantaneous rate (for MMPP: of the current phase). *)
end

type regime = Steady | Burst | Diurnal
(** Presets, documented in EXPERIMENTS.md:
    - [Steady]: Poisson at 50 q/s.
    - [Burst]: MMPP 400/10 q/s with 5 s on / 15 s off sojourns, and a
      per-destination RPC in-flight cap of 32 so backpressure engages.
    - [Diurnal]: 40 q/s base, amplitude 0.8, 600 s period. *)

val all_regimes : regime list
val regime_name : regime -> string

val process_of : regime -> Arrivals.process

type result = {
  regime : regime;
  requested : int;  (** arrivals in the precomputed timeline *)
  issued : int;  (** lookups actually started *)
  completed : int;  (** continuations that fired before the run ended *)
  converged : int;
      (** completed with the ground-truth owner ({!Octopus.World.find_owner}
          at completion time) -- a stale cache hit does {e not} count *)
  skipped : int;  (** arrivals dropped: no live honest initiator found *)
  cache_hits : int;
  duration : float;  (** simulated seconds, warmup and tail included *)
  latency : Octo_sim.Metrics.Sketch.t;  (** per-lookup elapsed seconds *)
  bandwidth : Octo_sim.Metrics.Sketch.t;  (** per-node (tx+rx)/duration, B/s *)
  rpc_queued : int;  (** calls ever deferred by the in-flight cap *)
  delivered : int;  (** network messages delivered, duplicates included *)
  duplicates : int;  (** duplicate deliveries injected by the fault layer *)
  outcome : Regime.outcome;
  entropy : Octo_anonymity.Cache_entropy.report option;
      (** cache/anonymity impact; [Some] iff the cache was enabled *)
}

val run :
  ?n:int -> ?seed:int -> ?queries:int -> ?cache:bool -> ?chaos:bool -> regime:regime -> unit -> result
(** Defaults: [n = 60], [seed = 7], [queries = 2000], cache off, chaos
    off. [chaos] overlays the chaos harness's dup-reorder fault plan
    (message-level faults only, so success floors keep their meaning)
    plus the graceful-degradation knobs. Runs inside {!Regime.run}: the
    invariant checker is attached for the whole run and the final
    convergence check applies. *)

val report : result -> Regime.report
(** [converged / issued] against the regime's success-rate floor
    (EXPERIMENTS.md says how the floors were picked; unfinished lookups
    count against it); lines with the latency and bandwidth quantiles, the
    duplicate factor (delivered over unique messages, shown only when
    the fault layer duplicated any) and, with the cache on, its
    anonymity impact. The JSON is the octopus-load/v1 summary written by
    [load --json]; non-finite values render as [null]. *)
