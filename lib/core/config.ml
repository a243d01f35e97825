type t = {
  bits : int;
  stabilize_every : float;
  finger_update_every : float;
  security_check_every : float;
  random_walk_every : float;
  lookup_every : float;
  proof_queue_len : int;
  bound_tolerance : float;
  table_freshness : float;
  dos_defense : bool;
  query_deadline : float;
  rpc_in_flight_cap : int;
  gc_every : float;
  metrics_sample_every : float;
  (* fault injection & graceful degradation *)
  fault_plan : Octo_sim.Fault.plan option;
  anon_path_retries : int;
  ring_repair : bool;
  result_cache : bool;
  (* CA admission defense (Sybil flooding) *)
  ca_admission : bool;
  ca_admission_rate : float;
  ca_admission_burst : int;
  ca_assign_ids : bool;
}

let default =
  {
    bits = 40;
    stabilize_every = 2.0;
    finger_update_every = 30.0;
    security_check_every = 60.0;
    random_walk_every = 15.0;
    lookup_every = 60.0;
    proof_queue_len = 6;
    bound_tolerance = 8.0;
    table_freshness = 10.0;
    dos_defense = false;
    query_deadline = 3.0;
    rpc_in_flight_cap = 0;
    gc_every = 60.0;
    metrics_sample_every = 5.0;
    fault_plan = None;
    anon_path_retries = 0;
    ring_repair = false;
    result_cache = false;
    ca_admission = false;
    ca_admission_rate = 0.25;
    ca_admission_burst = 4;
    ca_assign_ids = false;
  }

(* paper parameters *)
let num_fingers = 12
let list_size = 6
let walk_length = 3
let num_dummies = 6
let pool_target = 14
let relay_max_delay = 0.1

(* protocol thresholds *)
let pred_age_before_report = 10.0
let interior_threshold = 2
let cert_lifetime = 86_400.0
let max_chain_depth = 10
let finger_revet_prob = 0.1
let adversary_backdate = 15.0

(* RPC and random-walk timeouts, walk restart budget *)
let rpc_timeout = 1.5
let walk_step_timeout_base = 1.0
let walk_step_timeout_per_hop = 0.5
let walk_phase2_timeout_base = 2.0
let walk_phase2_timeout_per_hop = 1.0
let walk_establish_timeout = 3.0
let walk_max_attempts = 3

(* DoS-defense timing *)
let receipt_wait = 2.0
let witness_timeout_slack = 1.0
let exit_min_timeout = 0.5

(* surveillance / finger checks *)
let finger_check_max_delay = 2.0
let identification_grace = 90.0
let surveillance_retest_delay = 4.0

(* lookup machinery and maintenance *)
let dummy_fire_window = 2.0
let gc_horizon = 120.0
let churn_rejoin_delay = 2.0
let timeout_strike_window = 30.0
let timeout_strikes = 2

(* CA investigation timing *)
let ca_recheck_delay = 8.0
let ca_evidence_delay = 7.0
let ca_dos_slack = 6.0
let ca_proof_gap_slack = 16.0
let ca_intro_max_age = 120.0
let ca_finger_max_age = 60.0
let ca_evidence_max_age = 30.0

(* hot-key result cache sizing *)
let result_cache_ttl = 30.0
let result_cache_cap = 65536
