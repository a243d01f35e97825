(** Population-scale dynamic-network preset.

    Runs a full Octopus deployment — bootstrap, signed stabilization,
    churn with protocol-level rejoins, sparse direct secure lookups, the
    online invariant checker — at populations of 10^4..10^6 nodes on one
    machine, and reports memory alongside protocol health. This is the
    harness behind [octopus scale] and the CI regime job's scale run.

    Scaling choices (also documented in DESIGN.md "Memory layout at
    scale"): relay pools are skipped ([World.create ~pools:false]), only
    the stabilization loop runs hot (finger/walk/surveillance/workload/gc
    periods are pushed past the horizon), and lookup traffic is a fixed
    sparse schedule of direct lookups. Churn stops at [0.45 * duration]
    so the final {!Octopus.Invariant.check_convergence} asserts a ring
    that has had [0.55 * duration] seconds of quiet stabilization to
    re-knit. *)

type result = {
  n : int;
  duration : float;  (** simulated seconds *)
  events : int;  (** engine events fired *)
  trace_events : int;  (** events emitted into the trace sink *)
  departures : int;  (** churn leave events *)
  outcome : Regime.outcome;  (** lookup counts and the finished checker *)
  bytes_per_node : float;
      (** live heap attributable to one node right after bootstrap
          (before maintenance timers), compacted measurement *)
  peak_heap_mb : float;  (** [Gc.top_heap_words] at the end of the run *)
  live_mb : float;  (** live heap after the run, post-compaction *)
  cpu_s : float;  (** wall CPU seconds consumed by the whole run *)
}

val scale_cfg : stabilize_every:float -> Octopus.Config.t
(** The population-scale config: stabilization at [stabilize_every]
    seconds, every other periodic loop dormant (period 1e6 s, so the
    phase-randomized first firing lands past any realistic horizon). *)

val run : ?n:int -> ?duration:float -> ?seed:int -> unit -> result
(** Defaults: [n = 10_000], [duration = 180] s, [seed = 7]. Fixed shape:
    stabilization every 20 s, churn with a 3600 s mean lifetime over the
    first 45% of the run (so roughly [n * duration * 0.45 / 3600]
    departures), and 400 direct lookups. The world is built by hand (no
    relay pools), with {!Regime.attach} where the checker joins. *)

val report : result -> Regime.report
(** No floor; lines with the event and departure counts and the memory
    envelope. *)
