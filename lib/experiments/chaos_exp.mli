(** Chaos scenarios: the full lookup workload under each fault regime.

    Each {!regime} names one fault-injection schedule ({!plan_for}); the
    configuration additionally arms the graceful-degradation paths —
    anonymous-path fallback ([anon_path_retries]) and post-heal ring
    repair ([ring_repair]) — that the default config keeps off for trace
    compatibility. A run drives the standard maintained workload, counts
    lookup outcomes, and finishes with the post-heal convergence check
    and the corrupted-documents-never-accepted audit.

    Same seed, same regime ⇒ byte-identical traces: all fault decisions
    come from the engine RNG in message-send order. *)

type regime = Partition_heal | Corruption | Dup_reorder | Crash_burst | Regional_outage

val all_regimes : regime list

val regime_name : regime -> string
(** CLI names: ["partition"], ["corrupt"], ["dup-reorder"], ["crash"],
    ["outage"]. *)

val threshold : regime -> float
(** Documented lookup success-rate floor for the regime (see
    EXPERIMENTS.md); a run below it fails {!Regime.passed}. *)

val plan_for : regime -> n:int -> duration:float -> Octo_sim.Fault.plan
(** The regime's fault schedule, windows placed as fractions of the run
    so bootstrap settles first and re-convergence has a tail. *)

type result = {
  regime : regime;
  outcome : Regime.outcome;
  drops : int;
  corruptions : int;
  duplicates : int;
  reorders : int;
  crashes : int;
}

val run : ?n:int -> ?duration:float -> ?seed:int -> regime:regime -> unit -> result
(** Defaults: n = 60, duration = 240 s, seed = 7. Runs the maintained
    workload under the regime's plan inside {!Regime.run}, which ends
    with {!Octopus.Invariant.check_convergence} and
    {!Octopus.Invariant.finish}. *)

val report : result -> Regime.report
(** Converged fraction of finished lookups against {!threshold}, plus
    one line of fault-injection counters. *)
