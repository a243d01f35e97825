(** Octopus protocol and simulation parameters.

    Defaults follow the paper's evaluation setup (§5.1): 12 fingers, 6
    successors/predecessors, stabilization every 2 s, finger updates every
    30 s, security checks every 60 s, a random walk for relay selection
    every 15 s, one lookup per minute, 6 retained successor-list proofs,
    and a random delay of up to 100 ms added at the middle relay B.

    Every protocol constant lives here. The record {!t} carries only the
    values some caller varies (a regime, an ablation sweep, the benchmark
    or a property test); everything else is a plain value below, read as
    [Config.x]. DESIGN.md "Architecture layering" lists who sets each
    field. *)

type t = {
  bits : int;  (** identifier space width *)
  stabilize_every : float;
  finger_update_every : float;  (** one full fingertable refresh per period *)
  security_check_every : float;  (** secret neighbor + finger surveillance *)
  random_walk_every : float;
  lookup_every : float;
  proof_queue_len : int;  (** retained signed successor lists *)
  bound_tolerance : float;  (** NISAN-style bound check slack, in gaps *)
  table_freshness : float;  (** max age of an accepted signed table *)
  dos_defense : bool;  (** receipts + witness statements *)
  query_deadline : float;  (** selective-DoS delivery deadline *)
  rpc_in_flight_cap : int;  (** per-destination cap; [0] = unbounded *)
  gc_every : float;  (** per-node garbage-collection period *)
  metrics_sample_every : float;
  fault_plan : Octo_sim.Fault.plan option;
      (** fault-injection schedule installed at world build time; [None]
          (the default) leaves the network fast path untouched and keeps
          traces byte-identical to a build without fault support *)
  anon_path_retries : int;
      (** times an anonymous lookup step may fall back to a fresh relay
          pair after its path dies; [0] reproduces the historical
          single-path behaviour exactly *)
  ring_repair : bool;
      (** when set, nodes remember peers lost to timeout eviction and
          probe them during stabilization, re-merging their successor
          lists once they respond — the post-partition re-convergence
          path; off by default for trace compatibility *)
  result_cache : bool;
      (** when set, initiators remember the owners their own lookups
          resolved and answer repeats of the same key locally until the
          entry expires; off by default so traces stay byte-identical to
          cacheless builds. Cached answers never feed routing or
          verification state, and the whole cache is flushed whenever a
          certificate is revoked, since the revoked identity may have
          vouched for any cached answer. *)
  ca_admission : bool;
      (** arm the CA's certificate-admission defense: per-source token-
          bucket rate limiting plus admission-cost accounting
          ({!Ca.request_admission}). Off by default — the admission path
          is only exercised by attack scenarios, and disabled
          configurations never touch the limiter state, so ordinary runs
          stay byte-identical to defenseless builds *)
  ca_admission_rate : float;
      (** sustained certificate grants per second per source once its
          burst allowance is spent *)
  ca_admission_burst : int;
      (** token-bucket depth: certificates a single source may obtain
          back-to-back before the rate limit bites *)
  ca_assign_ids : bool;
      (** when set, the CA ignores the requested identifier and assigns a
          uniform random one — the classic anti-Sybil placement defense
          (an attacker can no longer craft identifiers surrounding a
          victim key; see EXPERIMENTS.md "Active adversaries") *)
}

val default : t

(** {1 Paper parameters} *)

val num_fingers : int

val list_size : int
(** successor/predecessor list length *)

val walk_length : int
(** hops per random-walk phase (l) *)

val num_dummies : int
(** dummy queries per lookup *)

val pool_target : int
(** relay pairs kept available *)

val relay_max_delay : float
(** middle relay's anti-timing random delay *)

(** {1 Protocol thresholds} *)

val pred_age_before_report : float
(** how long a predecessor must be known before surveillance may report
    it (suppresses join-race false positives) *)

val interior_threshold : int
(** CA conviction threshold: certified nodes that must lie between an
    ideal finger id and the reported finger *)

val cert_lifetime : float

val max_chain_depth : int
(** investigation chain length bound *)

val finger_revet_prob : float
(** probability an unchanged finger is re-vetted anyway *)

val adversary_backdate : float
(** how far a colluder backdates a fabricated covering proof *)

(** {1 Timings} *)

val rpc_timeout : float
(** per-call timeout of every protocol RPC; calls are single-attempt *)

val walk_step_timeout_base : float
(** phase-1 walk step timeout at hop 0 *)

val walk_step_timeout_per_hop : float
(** added per phase-1 hop *)

val walk_phase2_timeout_base : float
(** phase-2 fetch timeout base *)

val walk_phase2_timeout_per_hop : float
(** added per walk hop *)

val walk_establish_timeout : float
(** session-establishment timeout *)

val walk_max_attempts : int
(** full-walk restarts before the walk is abandoned *)

val receipt_wait : float
(** exit's grace before asking witnesses about a missing receipt *)

val witness_timeout_slack : float
(** extra wait on witness replies *)

val exit_min_timeout : float
(** floor on exit-delivery timeouts *)

val finger_check_max_delay : float
(** random spread before the anonymous consistency re-fetch *)

val identification_grace : float
(** how long the CA may take to identify a reported node before the
    reporter counts the report as unresolved *)

val surveillance_retest_delay : float
(** delay before re-testing a suspicious predecessor list *)

val dummy_fire_window : float
(** dummy queries fire within this window *)

val gc_horizon : float
(** age beyond which volatile state is dropped *)

val churn_rejoin_delay : float
(** downtime before a churned node rejoins *)

val timeout_strike_window : float
(** successive-timeout window before evicting a routing entry *)

val timeout_strikes : int
(** strikes within the window that evict *)

val ca_recheck_delay : float
(** CA's wait before re-fetching a suspect's neighborhood *)

val ca_evidence_delay : float
(** CA's wait for witness statements in a DoS investigation *)

val ca_dos_slack : float
(** slack past [query_deadline] before a DoS report is judged *)

val ca_proof_gap_slack : float
(** max age gap between consecutive archived proofs *)

val ca_intro_max_age : float
(** freshness bound on introduction proofs *)

val ca_finger_max_age : float
(** freshness bound on finger-report evidence *)

val ca_evidence_max_age : float
(** freshness bound on DoS evidence *)

(** {1 Result-cache sizing} *)

val result_cache_ttl : float
(** seconds a cached lookup result stays servable; expiry is strict (an
    entry hit exactly [ttl] after it was stored is already a miss) *)

val result_cache_cap : int
(** entry cap across all nodes; on overflow the cache resets rather than
    evicting, so its memory stays bounded without per-entry bookkeeping *)
