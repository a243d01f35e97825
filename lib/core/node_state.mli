(** Per-node protocol state.

    One value of {!t} holds everything a single Octopus node owns:
    identity and keys, routing table, relay-pair pool, DoS-defense
    receipts/statements, proof archive, and storage shard. The
    population-level bookkeeping (network, CA, result cache, metrics)
    lives in {!Deployment}; {!World} re-exports both so
    existing call sites keep working. Helpers take the current time
    explicitly — this module never reads a clock or a {!Config.t}
    record, only {!Config}'s fixed values.

    Memory layout (see DESIGN.md "Memory layout at scale"): the volatile
    per-node maps are {!Octo_sim.Imap} sorted-array maps, not hashtables
    — an idle node's maps cost 4 words each — the relay state is one
    {!Relay_log} of unboxed words, and the routing table is a [Lazy.t] so
    population bootstrap materializes no table until a node is first
    touched. *)

module Peer = Octo_chord.Peer
module Rtable = Octo_chord.Rtable
module Imap = Octo_sim.Imap

(** A relay leg the initiator shares a session key with. *)
type relay = { r_peer : Peer.t; r_sid : int; r_key : bytes }

(** An anonymization relay pair — the last two hops of a random walk. *)
type pair = { p_first : relay; p_second : relay; p_born : float }

(** Where the digest of the last list of one kind a node signed stood
    before its time part, with the owner and entries it covers. *)
type list_mark = { lm_owner : Peer.t; lm_peers : Peer.t list; lm_at : Octo_crypto.Wire.mark }

(** The same for the last routing table a node signed. *)
type table_mark = {
  tm_owner : Peer.t;
  tm_fingers : Peer.t option list;
  tm_succs : Peer.t list;
  tm_at : Octo_crypto.Wire.mark;
}

type proof_queue
(** The proof queue (§4.3): the signed successor lists a node adopted,
    at most [Config.proof_queue_len] of them. A ring of that many slots,
    arrival times unboxed, allocated on the first {!push_proof}; read it
    newest first through {!proof_list}. *)

type t = {
  addr : int;
  mutable peer : Peer.t;
  mutable rt : Rtable.t Lazy.t;
      (** force through {!rt}; unmaterialized nodes carry only the thunk *)
  mutable alive : bool;
  mutable revoked : bool;
  mutable malicious : bool;
  mutable keypair : Octo_crypto.Keys.keypair;
  mutable cert : Octo_crypto.Cert.t;
  mutable proofs : proof_queue;
  sessions : bytes Imap.t;  (** sid -> relay-session key *)
  relay_log : Relay_log.t;
      (** cid -> when the forward last arrived (the evidence the CA asks
          for) and the previous hop and session its reply goes back
          through; each ages out on its own at the gc horizon *)
  receipts : Types.receipt Imap.t;  (** cid -> next hop's receipt *)
  statements : Types.witness_statement list Imap.t;
  mutable buffered_tables : Types.signed_table list;
      (** the 16 newest signed tables seen, newest first; filled only
          while finger surveillance, their one reader, runs (see
          [Deployment.buffer_table]) *)
  mutable pool : pair list;  (** available relay pairs *)
  pred_since : (int * float) Imap.t;
      (** addr -> (identity, entered pred list at) *)
  witness_waits : (int * int) Imap.t;
      (** cid -> (rid, requester) while acting as a delivery witness *)
  mutable intro_proofs : (float * Types.signed_list) list;
      (** (received_at, document) introductions of adopted successors:
          verification-probe pred lists and archived former-head inputs,
          newest first, bounded *)
  storage : bytes Imap.t;  (** the node's key-value shard *)
  timeout_strikes : (int * float) Imap.t;
      (** addr -> (consecutive timeouts, last at); see {!note_timeout} *)
  mutable lost_peers : (Peer.t * float) list;
      (** (peer, lost at), newest first, bounded, one per address; peers evicted on
          timeout and remembered for ring repair — see {!remember_lost} *)
  mutable succ_mark : list_mark option;
  mutable pred_mark : list_mark option;
  mutable table_mark : table_mark option;
      (** one mark per document kind; see {!list_digest} *)
}

val rt : t -> Rtable.t
(** The node's routing table, materializing it on first touch. *)

val make :
  addr:int ->
  peer:Peer.t ->
  rt:Rtable.t Lazy.t ->
  malicious:bool ->
  keypair:Octo_crypto.Keys.keypair ->
  cert:Octo_crypto.Cert.t ->
  t
(** A fresh, alive node with empty volatile state. *)

val is_active_malicious : t -> bool
(** Malicious, alive, and not yet revoked. *)

val push_intro : t -> now:float -> cap:int -> Types.signed_list -> unit

val push_proof : t -> now:float -> queue_len:int -> Types.signed_list -> unit
(** Push onto the proof queue of [queue_len] slots. When the queue is
    full, the oldest document leaves it and is archived with
    {!push_intro} (cap [2 * queue_len]) unless its owner still has a
    document in the queue. *)

val proof_list : t -> (float * Types.signed_list) list
(** The proof queue as (received_at, signed input) pairs, newest first,
    built on each call. *)

val buffer_table : t -> Types.signed_table -> unit

val update_preds : t -> now:float -> Peer.t list -> unit
(** [Rtable.set_preds] plus arrival-time tracking for the surveillance
    freshness rule. *)

val note_timeout : t -> now:float -> int -> bool
(** Record an RPC give-up against a peer address; [true] when it should
    now be evicted ({!Config.timeout_strikes} give-ups within
    {!Config.timeout_strike_window} seconds). *)

val remember_lost : t -> at:float -> Peer.t -> unit
(** Record a peer evicted on timeout so stabilization can probe it again
    once (ring repair). Re-remembering keeps the original loss time, so
    a peer that stays unreachable ages out against the gc horizon. *)

val take_lost : t -> (Peer.t * float) option
(** Pop the oldest remembered lost peer, or [None]. *)

val pred_known_since : t -> Peer.t -> float option
(** When this exact identity entered the predecessor list, if current. *)

val reset_volatile : t -> unit

val list_digest : t -> Types.list_kind -> Peer.t list -> time:float -> bytes
(** [Types.list_digest] of the list this node would sign with these
    entries at [time]. When the owner is {!Peer.equal} to its mark's for
    [kind] and the entries are [==] or element-wise {!Peer.equal} to the
    mark's, only the time part is hashed; otherwise the digest runs from
    scratch and replaces the mark. *)

val table_digest :
  t -> fingers:Peer.t option list -> succs:Peer.t list -> time:float -> bytes
(** The same for a routing table: the fingers must also be equal,
    element-wise, to the mark's. *)
