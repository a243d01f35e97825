(** The simulated Octopus deployment: population, CA authority, network,
    RPC substrate, result cache, and metrics.

    Per-node protocol state lives in {!Node_state}; behaviour lives in
    the protocol modules ({!Serve}, {!Query}, {!Walk}, {!Olookup},
    {!Surveillance}, {!Finger_check}, {!Ca}, {!Maintain}). {!World}
    re-exports this module (plus the {!Node_state} records) as a thin
    facade, so protocol code addresses both through one name. *)

module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Rtable = Octo_chord.Rtable
module Imap = Octo_sim.Imap

(** A relay leg the initiator shares a session key with. *)
type relay = Node_state.relay = { r_peer : Peer.t; r_sid : int; r_key : bytes }

(** An anonymization relay pair — the last two hops of a random walk. *)
type pair = Node_state.pair = { p_first : relay; p_second : relay; p_born : float }

type node = Node_state.t = {
  addr : int;
  mutable peer : Peer.t;
  mutable rt : Rtable.t Lazy.t;
  mutable alive : bool;
  mutable revoked : bool;
  mutable malicious : bool;
  mutable keypair : Octo_crypto.Keys.keypair;
  mutable cert : Octo_crypto.Cert.t;
  mutable proofs : Node_state.proof_queue;
  sessions : bytes Imap.t;
  relay_log : Relay_log.t;  (** forward evidence and reply paths, by cid *)
  receipts : Types.receipt Imap.t;
  statements : Types.witness_statement list Imap.t;
  mutable buffered_tables : Types.signed_table list;
  mutable pool : pair list;
  pred_since : (int * float) Imap.t;
  witness_waits : (int * int) Imap.t;
  mutable intro_proofs : (float * Types.signed_list) list;
  storage : bytes Imap.t;
  timeout_strikes : (int * float) Imap.t;
  mutable lost_peers : (Peer.t * float) list;
  mutable succ_mark : Node_state.list_mark option;
  mutable pred_mark : Node_state.list_mark option;
  mutable table_mark : Node_state.table_mark option;
}
(** Re-export of {!Node_state.t}; see that module for field docs.
    Access the routing table through {!rt}, never [Lazy.force] directly. *)

val rt : node -> Rtable.t
(** The node's routing table, materializing it on first touch (see
    DESIGN.md "Memory layout at scale"). Materialization replays the
    recorded boot topology, draws no randomness, and emits no trace, so
    forcing order never perturbs same-seed runs; {!revoke} materializes
    every table it purges. *)

type attack_kind = No_attack | Bias | Finger_manip | Pollution | Selective_dos

type attack_spec = { kind : attack_kind; rate : float; consistency : float }
(** [rate]: probability a malicious node attacks a given opportunity;
    [consistency]: probability a checked colluding predecessor covers for a
    manipulated finger (Table 2 uses 50%). *)

val no_attack : attack_spec

type metrics = {
  lookups : Octo_sim.Metrics.Series.t;
  biased : Octo_sim.Metrics.Series.t;
  ca_msgs : Octo_sim.Metrics.Series.t;
  mal_frac : Octo_sim.Metrics.Series.t;
  mutable tests_on_attacker : int;
  mutable attacker_identified : int;
  mutable reports : int;
  mutable convicted_malicious : int;
  mutable convicted_honest : int;
  mutable no_conviction : int;
  mutable walks_abandoned : int;
}

type boot = {
  mutable b_ring : Peer.t array;  (** boot peers, ascending id *)
  mutable b_rank : int array;  (** addr -> rank in [b_ring] *)
  mutable b_time : float;  (** engine time at bootstrap *)
}
(** The recorded bootstrap topology that unmaterialized routing-table
    thunks replay; see {!rt}. *)

type t = {
  engine : Octo_sim.Engine.t;
  cfg : Config.t;
  net : Types.msg Octo_sim.Net.t;
  space : Id.space;
  nodes : node array;
  ca_addr : int;
  registry : Octo_crypto.Keys.registry;
  authority : Octo_crypto.Cert.authority;
  rpc : Types.msg Octo_sim.Rpc.t;
      (** shared request/response substrate: ids, timeouts, backpressure;
          also the anonymous-query wait table (a query's cid {e is} its
          rid) *)
  rng : Octo_sim.Rng.t;
  used_ids : (int, unit) Hashtbl.t;
  mutable attack : attack_spec;
  mutable next_sid : int;
  verify_cache : (string, bool) Hashtbl.t;
      (** always empty: verification is not cached (see {!verify_list});
          kept only because the benchmark reports its length *)
  rcache : Rcache.t;
      (** hot-key lookup result cache; inert unless
          [Config.result_cache], flushed on revocation *)
  corrupted_docs : (string, unit) Hashtbl.t;
      (** keys (digest, signature, cert tag) of documents the fault layer
          garbled in flight; any verifier accepting one bumps
          [corrupt_accepted] *)
  mutable corrupt_accepted : int;
      (** corrupted documents that nonetheless verified — must stay 0
          (checked by {!Invariant}) *)
  metrics : metrics;
  boot : boot;
  members : Peer.t Imap.t;
      (** alive, unrevoked nodes keyed by ring id — ground truth for
          {!find_owner} *)
  default_rpc_policy : Octo_sim.Rpc.policy;
  mutable misroute : (Peer.t -> Peer.t) option;
      (** fault injection that tests the invariant checker: when set
          ({!set_misroute}), rewrites the owner a converged lookup
          reports, before its [Lookup_done] event. [None] unless a run
          asks for a known-bad trace. *)
  mutable finger_checks : bool;
      (** finger surveillance is scheduled: [Maintain.start] sets it under
          [enable_checks]. Until then {!buffer_table} keeps nothing, since
          surveillance is the one reader of the table buffer. *)
}

val create :
  ?cfg:Config.t ->
  ?fraction_malicious:float ->
  ?metrics_bucket:float ->
  ?pools:bool ->
  ?reserve:int ->
  Octo_sim.Engine.t ->
  Octo_sim.Latency.t ->
  n:int ->
  t
(** Build a bootstrapped network of [n] nodes (addresses [0..n-1]; the CA
    listens on address [n + reserve], so the latency space must have
    [n + reserve + 1] slots). Topology, certificates, and an initial
    relay-pair pool are provisioned from global knowledge, as for the
    Chord bootstrap. [pools:false] skips the relay-pair provisioning
    (population-scale runs that never do anonymous lookups; saves
    [2 * pool_target] sessions per node). [reserve] (default 0) holds
    extra address slots [n..n+reserve-1] that start dead and outside the
    boot ring — identities the CA may admit mid-run ({!Ca.request_admission}
    followed by {!revive_as}); with [reserve = 0] construction is
    draw-for-draw the historical sequence. No handlers are installed —
    call {!Serve.install} and {!Ca.create}. *)

val now : t -> float
val node : t -> int -> node
val n_nodes : t -> int
val space : t -> Id.space
val engine : t -> Octo_sim.Engine.t
val fresh_sid : t -> int
val fresh_id : t -> int

val is_active_malicious : node -> bool
(** Malicious, alive, and not yet revoked. *)

val malicious_fraction : t -> float
val is_malicious : t -> int -> bool
val alive_honest_addrs : t -> int list
val random_alive : t -> Octo_sim.Rng.t -> int
val colluders : t -> node list
(** Active malicious nodes. *)

val find_owner : t -> key:int -> Peer.t option
(** Ground truth among alive, unrevoked nodes — O(log n) via the member
    index, not a population scan. *)

val send : t -> src:int -> dst:int -> Types.msg -> unit

val rpc_policy : t -> ?timeout:float -> unit -> Octo_sim.Rpc.policy
(** The policy protocol calls run under: [timeout], defaulting to
    {!Config.rpc_timeout}. *)

val rpc :
  t ->
  src:int ->
  dst:int ->
  ?timeout:float ->
  make:(int -> Types.msg) ->
  on_timeout:(unit -> unit) ->
  (Types.msg -> unit) ->
  unit
(** Fire a request through {!Octo_sim.Rpc} under {!rpc_policy}.
    [on_timeout] fires once, when the call times out. *)

val resolve : t -> int -> Types.msg -> bool
(** Route a response to the outstanding call with this rid. *)

val rpc_caller : t -> int -> int option
(** Source address of the live call with this rid, if any. *)

val after : t -> delay:float -> (unit -> unit) -> unit
(** One-shot timer; the only scheduling primitive protocol modules use
    besides {!rpc} itself. *)

(* -- signing and verification ------------------------------------- *)

val sign_list : t -> node -> Types.list_kind -> Peer.t list -> Types.signed_list
val sign_table : t -> node -> fingers:Peer.t option list -> succs:Peer.t list -> Types.signed_table

val honest_list : t -> node -> Types.list_kind -> Types.signed_list
(** The node's true successor/predecessor list, signed now. *)

val honest_table : t -> node -> Types.signed_table

val verify_list : t -> ?max_age:float -> ?revoked_ok:bool -> Types.signed_list -> bool
(** Signature, certificate, freshness, clockwise ordering. Whether the
    signer is the peer that was asked is {!judge_list}'s question.
    By default a structure from a *currently revoked* identity fails, even
    if it was signed before the revocation — routing must never act on a
    revoked node's state. The CA passes [~revoked_ok:true] when weighing
    historical evidence (justification chains legitimately verify
    documents whose signer has since been ejected). Every call checks the
    signature: documents are signed and timestamped when served and each
    receipt is judged once, so a verdict cache would not hit. *)

val verify_table : t -> ?max_age:float -> ?revoked_ok:bool -> Types.signed_table -> bool
(** {!verify_list} for a table; the two share one body and differ only in
    the digest and the order check. *)

(* -- receipts: routing state fetched from a peer --------------------- *)

(** How a fetched document was judged. *)
type 'a verdict =
  | Valid of 'a  (** signed by the asked identity, of the asked kind, and verified *)
  | Moved of 'a
      (** verified, but under another identity at the asked address: the
          peer churned away and a newcomer holds the slot, so the caller's
          entry for the asked identity is stale *)
  | Invalid  (** anything else: forged, stale, revoked, foreign or malformed *)

val judge_list :
  t -> ?revoked_ok:bool -> kind:Types.list_kind -> Peer.t -> Types.signed_list ->
  Types.signed_list verdict
(** The receipt rule for a list the given peer was asked for, verified at
    most once: every reply {!fetch_list} and {!Query.fetch_list} get. *)

val judge_table : t -> Peer.t -> Types.signed_table -> Types.signed_table verdict
(** {!judge_list} for a table. *)

val fetch_list :
  t ->
  src:int ->
  ?revoked_ok:bool ->
  ?announce:Peer.t ->
  kind:Types.list_kind ->
  Peer.t ->
  on_timeout:(unit -> unit) ->
  (Types.signed_list verdict -> unit) ->
  unit
(** The one entry point for a node's or the CA's direct list request:
    send [src]'s [List_req] for [kind] (carrying [announce], the Chord
    notify) to the given peer through {!rpc}, and judge the reply with
    {!judge_list} under [revoked_ok]. Timeouts go to [on_timeout]. *)

val fetch_table :
  t ->
  src:int ->
  Peer.t ->
  on_timeout:(unit -> unit) ->
  (Types.signed_table verdict -> unit) ->
  unit
(** {!fetch_list} for a [Table_req], judged with {!verify_table}. *)

val register_corrupted_list : t -> Types.signed_list -> unit
(** Mark a garbled signed list so any later successful verification of it
    is counted in [corrupt_accepted]. Called by the fault layer's
    corrupter, never by protocol code. *)

val register_corrupted_table : t -> Types.signed_table -> unit

val sanitize_table : t -> node -> Types.signed_table -> Types.signed_table
(** NISAN-style bound filtering (§4.1): drop fingers implausibly far past
    their ideal positions, judged against the density estimated from the
    node's own neighborhood. Successor lists are kept whole (they have no
    ideal positions; their manipulation is countered by secret neighbor
    surveillance). The result is for local routing decisions only (its
    signature no longer covers it). *)

val sign_receipt : t -> node -> cid:int -> Types.receipt
val verify_receipt : t -> Types.receipt -> bool
(** The signer must be the identity now at the address it names; an
    address outside the population (negative, or the CA's) verifies
    false. *)

val sign_statement : t -> node -> target:Peer.t -> cid:int -> Types.witness_statement

val verify_statement : t -> Types.witness_statement -> bool
(** Judged like {!verify_receipt}, by the witness's address. *)

(* -- node state helpers (config-applying wrappers) ------------------ *)

val push_proof : t -> node -> Types.signed_list -> unit
val push_intro : t -> node -> Types.signed_list -> unit

val buffer_table : t -> node -> Types.signed_table -> unit
(** Keep a signed table the node saw for finger surveillance to audit;
    a no-op unless [finger_checks] is set. *)

val update_preds : t -> node -> Peer.t list -> unit
(** [Rtable.set_preds] plus arrival-time tracking for the surveillance
    freshness rule. *)

val note_timeout : t -> node -> Peer.t -> unit
(** Record an RPC give-up against a peer's address, and remove the address
    from the node's routing table on the final strike
    ({!Config.timeout_strikes} within {!Config.timeout_strike_window} —
    one slow round trip never drops a live neighbor). Under
    [cfg.ring_repair], evictions are additionally remembered
    ({!Node_state.remember_lost}) for the stabilization repair probe. *)

val pred_known_since : node -> Peer.t -> float option
(** When this exact identity entered the predecessor list, if current. *)

(* -- membership events --------------------------------------------- *)

val kill : t -> int -> unit
(** Mark the node dead and fail any RPC calls still queued behind its
    in-flight cap (fail-fast instead of serial timeouts). *)

val revive : t -> int -> unit
(** Rejoin with a fresh identity and certificate; routing state empty. *)

val revive_as : t -> int -> id:int -> unit
(** {!revive} under a *chosen* identifier — the activation half of the
    certificate-admission path. The id must already be registered
    (granted by {!Ca.request_admission}, or {!claim_id} directly in
    tests); no randomness is drawn for it. *)

val claim_id : t -> int -> bool
(** Register a caller-chosen identifier in the population's id registry;
    [false] if it is out of range or already taken. *)

val revoke : t -> int -> unit
(** Certificate revocation: the node is ejected and purged from every
    other node's routing table (modelling CRL distribution), materializing
    the tables nobody has touched yet. *)

val sample_metrics : t -> unit
(** Record the current malicious fraction into the time series. *)

val score_attacker_test : t -> node -> unit
(** Count one completed surveillance test on an attacker and, after
    {!Config.identification_grace}, count the attacker as identified if it
    was revoked by then: Table 2's FN inputs. Callers keep their own rule
    for which tests count. *)

val cache_find : t -> node -> key:int -> Peer.t option
(** Fresh hot-key cache entry for [key] at [node]. Always [None] (with
    no counter or RNG activity at all) unless [Config.result_cache] is
    set, so disabled configurations stay byte-identical to cacheless
    builds. *)

val cache_store : t -> node -> key:int -> Peer.t -> unit
(** Remember the owner a completed lookup resolved. No-op unless
    [Config.result_cache] is set. *)

val result_cache : t -> Rcache.t
(** The underlying cache, for accounting ({!Rcache.hits} etc.) and the
    anonymity model's {!Rcache.holders} probe. Flushed by {!revoke}. *)

(* -- experiment-facing accessors ----------------------------------- *)

val set_attack : t -> attack_spec -> unit

val set_misroute : t -> (Peer.t -> Peer.t) -> unit
(** Arm the [misroute] fault injection: every converged lookup reports
    [f owner] instead of its owner. *)

val clear_pools : t -> unit
(** Empty every node's relay-pair pool (ablation setup). *)

val honest_pool_relay_addrs : t -> int list
(** Every relay address currently appearing in an honest node's pool,
    with multiplicity. *)

type metrics_snapshot = {
  ms_reports : int;
  ms_convicted_honest : int;
  ms_convicted_malicious : int;
  ms_no_conviction : int;
  ms_tests_on_attacker : int;
  ms_attacker_identified : int;
  ms_walks_abandoned : int;
  ms_mal_frac : (float * float) list;  (** bucketed rows *)
  ms_lookups_cum : (float * float) list;  (** cumulative rows *)
  ms_biased_cum : (float * float) list;
  ms_ca_msgs_cum : (float * float) list;
}

val metrics_snapshot : t -> metrics_snapshot
(** A plain-data copy of the counters and series, so experiments never
    reach into the live record. *)
