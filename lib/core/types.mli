(** Octopus message vocabulary and signed data structures.

    Every routing-state response is signed by its owner and timestamped
    (§4.3), providing the non-repudiable evidence the CA's investigations
    rely on. Anonymous traffic travels as onion-forwarded envelopes whose
    route is represented structurally (the simulator's stand-in for layered
    next-hop headers) together with a *real* onion-encrypted capsule that
    carries the end-to-end integrity digest — each relay peels or adds one
    authentic cipher layer, so the cryptographic path behaviour (sizes,
    unlinkability of representations, integrity) is exercised on every
    message. *)

module Peer = Octo_chord.Peer

type list_kind = Succ_list | Pred_list

type signed_list = {
  l_owner : Peer.t;
  l_kind : list_kind;
  l_peers : Peer.t list;
  l_time : float;
  l_sig : Octo_crypto.Keys.signature;
  l_cert : Octo_crypto.Cert.t;
  mutable l_memo : bytes option;
      (** cached {!list_digest}; not part of the logical value. Any
          [{ sl with ... }] copy that alters a digest-covered field MUST
          set [l_memo = None], or the stale digest will keep verifying.
          The copy reads the memo before the new fields' expressions run,
          so a digest computed inside them is lost unless the update sets
          [l_memo = Some d] itself (as {!Deployment.sign_list} does). *)
}

type signed_table = {
  t_owner : Peer.t;
  t_fingers : Peer.t option list;
  t_succs : Peer.t list;
  t_time : float;
  t_sig : Octo_crypto.Keys.signature;
  t_cert : Octo_crypto.Cert.t;
  mutable t_memo : bytes option;
      (** cached {!table_digest}; same contract as [l_memo]. *)
}

val list_digest : signed_list -> bytes
(** Canonical digest covered by [l_sig]. Memoized on the structure: the
    returned bytes are shared, treat them as read-only. *)

val table_digest : signed_table -> bytes
(** Canonical digest covered by [t_sig]. Memoized like {!list_digest}. *)

(** {2 Digests in two steps}

    A list or table digest hashes every part but the time first, then
    the time. The prefix writers are the ones {!list_digest} and
    {!table_digest} use, so a digest taken from a {!Octo_crypto.Wire.mark}
    after the prefix is byte-identical to one computed from scratch. *)

val list_prefix :
  Octo_crypto.Wire.writer -> owner:Peer.t -> kind:list_kind -> Peer.t list -> unit

val table_prefix :
  Octo_crypto.Wire.writer ->
  owner:Peer.t ->
  fingers:Peer.t option list ->
  succs:Peer.t list ->
  unit

val finish_at : Octo_crypto.Wire.writer -> time:float -> bytes
(** Hashes the time part and finishes the digest. *)

(** Queries deliverable through an anonymous path. [session] carries the
    initiator's key-establishment material for the queried node (the
    simulation's stand-in for a DH handshake; see DESIGN.md), making walk
    steps, lookups and surveillance checks wire-indistinguishable. *)
type anon_query =
  | Q_table of { session : (int * bytes) option }
  | Q_list of list_kind
  | Q_phase2 of { seed : int; length : int }
      (** ask the walk's phase-1 terminus to run phase 2 *)
  | Q_establish of { sid : int; key : bytes }
  | Q_put of { key : int; value : bytes }
  | Q_get of { key : int }
  | Q_echo of bytes

type anon_reply =
  | R_table of signed_table
  | R_list of signed_list
  | R_phase2 of signed_table list
  | R_ok
  | R_stored
  | R_value of bytes option
  | R_echo of bytes

(** Evidence bundles sent to the CA. *)
type report =
  | R_neighbor of { reporter : Peer.t; missing : Peer.t; claimed : signed_list }
      (** surveillance found [missing] absent from [claimed] (§4.3) *)
  | R_finger of {
      y_table : signed_table;
      index : int;
      f_preds : signed_list;
      p1_succs : signed_list;
    }  (** secret finger surveillance evidence (§4.4/§4.5) *)
  | R_table_omission of { reporter : Peer.t; missing : Peer.t; table : signed_table }
      (** a finger-update lookup ended on a signed table whose successor
          list omits a closer live node (§4.5 pollution evidence) *)
  | R_dos of { reporter : Peer.t; relays : Peer.t list; cid : int; sent_at : float }
      (** a query that missed its deadline; [relays] in path order *)

type receipt = {
  rc_cid : int;
  rc_signer : Peer.t;
  rc_time : float;
  rc_sig : Octo_crypto.Keys.signature;
}

val receipt_digest : cid:int -> signer:Peer.t -> time:float -> bytes

type witness_statement = {
  ws_witness : Peer.t;
  ws_target : Peer.t;
  ws_cid : int;
  ws_time : float;
  ws_sig : Octo_crypto.Keys.signature;
}

val compare_statement : witness_statement -> witness_statement -> int
(** Field-wise order on (witness, target, cid, time) — the identity of a
    statement; the signature is a deterministic function of these. *)

val statement_digest : witness:Peer.t -> target:Peer.t -> cid:int -> time:float -> bytes

type msg =
  (* direct maintenance and serving *)
  | List_req of { rid : int; kind : list_kind; announce : Peer.t option }
  | List_resp of { rid : int; slist : signed_list }
  | Table_req of { rid : int }
  | Table_resp of { rid : int; table : signed_table }
  | Ping_req of { rid : int }
  | Ping_resp of { rid : int }
  (* onion-forwarded traffic: [hops] are the remaining (addr, sid) relay
     legs; the last relay queries [target] directly *)
  | Anon_req of { rid : int; query : anon_query }
      (** the exit relay's direct delivery of an anonymous query *)
  | Anon_resp of { rid : int; reply : anon_reply }
  | Fwd of {
      cid : int;
      sid : int;  (** receiving relay's session *)
      delay : float;  (** anti-timing hold before forwarding (relay B) *)
      hops : (int * int * float) list;  (** remaining (addr, sid, delay) legs *)
      target : Peer.t;
      query : anon_query;
      deadline : float;
      capsule : bytes;
    }
  | Fwd_reply of { cid : int; reply : anon_reply option; capsule : bytes }
  | Replicate of { rid : int; key : int; value : bytes }
      (** owner-to-successor replication of a stored value *)
  | Replicate_ack of { rid : int }
  | Receipt_msg of { cid : int; receipt : receipt }
  | Witness_req of { rid : int; cid : int; target : Peer.t; fwd : msg }
  | Witness_resp of { rid : int; outcome : (receipt, witness_statement) Either.t }
  (* CA traffic *)
  | Report_msg of { rid : int; report : report }
  | Justify_req of { rid : int; missing : Peer.t; source : Peer.t; provenance : bool; before : float }
      (** CA asks the accused for a stored signed input as of [before]:
          with [provenance = false], the successor-list input received from
          head [source] that its claimed list was computed from; with
          [provenance = true], the signed document that introduced [source]
          into its successor list (an earlier head's successor list naming
          it, or [source]'s own verified announcement — a signed
          predecessor list). *)
  | Justify_resp of { rid : int; proof : signed_list option }
  | Proofs_req of { rid : int }
  | Proofs_resp of { rid : int; proofs : signed_list list }
  | Evidence_req of { rid : int; cid : int }
      (** CA asks a relay for its forwarding evidence on circuit [cid] *)
  | Evidence_resp of {
      rid : int;
      received : bool;
      receipt : receipt option;
      statements : witness_statement list;
    }

val kind : msg -> string
(** Constructor tag, e.g. ["Table_req"] — stable labels for tracing. *)

val rid : msg -> int option
(** Request id for request/response correlation ([None] for Fwd/Receipt
    traffic, which correlates by [cid]). *)

val size : msg -> int
(** Wire size in bytes per the paper's byte budget. *)

val query_digest : target:Peer.t -> cid:int -> anon_query -> bytes
(** End-to-end integrity digest carried (onion-encrypted) in a forward
    capsule. *)

val reply_digest : cid:int -> anon_reply option -> bytes
(** Integrity digest carried in a reply capsule. *)
