(** Identity certificates and the certificate authority.

    Octopus limits Sybil identities by a CA that issues X.509-style
    certificates binding a node's ring identifier and address to its public
    key (paper §3.2, §4.6). Unlike Myrmic/Torsk, certificates are
    independent of routing state, so they never need re-signing on churn;
    the CA's only online duties are issuing at join and *revoking*
    identified attackers. Each certificate costs 50 bytes on the wire
    (paper footnote 4). *)

type t = {
  node_id : int;  (** ring identifier *)
  addr : int;  (** network address (stands in for the IP) *)
  public : Keys.public;
  issued_at : float;  (** when the CA issued it (validity-from) *)
  expires : float;  (** absolute simulated time *)
  tag : Keys.signature;  (** CA signature over the binding *)
}

type authority

val create_authority : Keys.registry -> Octo_sim.Rng.t -> authority

val issue :
  authority -> node_id:int -> addr:int -> public:Keys.public -> now:float -> expires:float -> t
(** Sign a fresh certificate. *)

val verify : authority -> now:float -> t -> bool
(** Signature valid, in its validity window, and the identity not revoked
    as of [now] — i.e. documents signed before a revocation remain
    verifiable evidence afterwards (the CA records revocation times).
    The authority remembers each certificate whose signature it has
    accepted; a later certificate with the same tag and identical signed
    fields skips the signature check. *)

val revoke : authority -> now:float -> node_id:int -> unit
(** Eject an identity: its certificates stop verifying for times after
    [now], and it cannot be re-issued. *)

val revoked_at : authority -> node_id:int -> float option

val is_revoked : authority -> node_id:int -> bool
val revoked_count : authority -> int
