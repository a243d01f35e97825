(** Active-adversary campaigns as gated regimes (EXPERIMENTS.md "Active
    adversaries").

    Where the chaos regimes degrade the {e network}, these degrade the
    {e membership}: each runs a deterministic attacker campaign inside a
    live scenario, measures the lookup workload under it, and gates on a
    documented success floor plus the online invariant checker — the
    attack counterpart of the chaos suite, and part of the pre-merge
    gate via [bin/main.exe attack].

    - {b sybil}: colluding sources flood {!Octopus.Ca.request_admission}
      with identifiers crafted around a victim key, against the CA's
      token-bucket admission defense with assigned identifiers; admitted
      Sybils join live from reserved address slots. The result carries
      the measured admission counters, the documented campaign ceiling,
      and the analytic cost curve (requests needed to own the victim's
      successor set per defense setting).
    - {b eclipse}: colluders switch on Bias table-serving timed around a
      partition heal, so victims re-converging from the partition learn
      poisoned entries; the eclipse watch ({!Octopus.Invariant.check_eclipse})
      samples the poisoning at its peak and must read zero at the end —
      post-heal recovery with no honest node left fully surrounded.
    - {b churn-range}: the Appendix III range-estimation attack replayed
      against a churning ring: the adversary calibrates a
      {!Octo_anonymity.Ring_model} snapshot mid-run and applies the
      estimator to lookups observed immediately (fresh) and much later
      (stale), measuring how membership drift degrades estimator
      accuracy. *)

type regime = Sybil_flood | Eclipse | Churn_range

val all_regimes : regime list
val regime_name : regime -> string

val threshold : regime -> float
(** Documented lookup-success floor (below the observed rates at the
    default scale, seeds 7 and 11 — see EXPERIMENTS.md). *)

type cost_point = {
  c_label : string;  (** e.g. ["assigned/limited"] *)
  c_assigned : bool;  (** CA-assigned random ids (placement defense)? *)
  c_rate : float;  (** token-bucket refill, grants/s; [0.] = unlimited *)
  c_requests : int;  (** admission requests spent (the attack's cost) *)
  c_admitted : int;
  c_owned : int;  (** victim successor-set slots held by Sybils *)
  c_success : bool;  (** all [list_size] slots owned *)
}

type result = {
  regime : regime;
  outcome : Regime.outcome;
  sybil_requests : int;  (** admission requests judged by the CA *)
  sybils_admitted : int;
  sybil_refused : int;
  sybil_cap : int;
      (** admission ceiling implied by the campaign's rate-limit
          settings; [sybils_admitted] beyond it fails the {!report} *)
  cost_curve : cost_point list;
  revocations : int;  (** certificate revocations during the run *)
  cache_flushes : int;
      (** result-cache flushes ({!Octopus.Rcache.flushes}) — conviction-
          driven revocation must flush cached owners *)
  eclipsed_peak : int;
      (** max honest nodes fully surrounded by colluders at the sampled
          peaks of the eclipse campaign *)
  fresh_total : int;  (** estimates produced right after calibration *)
  fresh_hits : int;  (** ... whose interval contained the true owner *)
  stale_total : int;  (** estimates produced late, after churn drift *)
  stale_hits : int;
}

val cost_factor : cost_point list -> float
(** Requests the attacker must spend to own the victim's successor set
    once the CA assigns identifiers, relative to crafting them freely
    ([assigned/open] over [crafted/open]); [0.] if either campaign is
    missing from the curve. *)

val run :
  ?n:int -> ?duration:float -> ?seed:int -> ?cache:bool -> regime:regime -> unit -> result
(** Run one regime (defaults: n=60, duration=240, seed=7) inside
    {!Regime.run}, ending with post-campaign convergence and the eclipse
    watch at zero tolerance. [cache] additionally enables the hot-key
    result cache during the eclipse regime (the Rcache-under-attack
    regression); it is ignored by the other regimes. *)

val report : result -> Regime.report
(** Lookup success against {!threshold}, plus per-regime conditions: the
    Sybil campaign must respect its admission ceiling, and the
    churn-range estimator must have produced fresh estimates. The lines
    carry the campaign counters and, for Sybil flooding, the cost
    curve. *)
