(** Malicious-node strategies (§5's attack scenarios).

    Colluders know each other, share a fast side channel, and can produce
    signatures with any colluder's key (the fabricated "proofs" used to
    stall CA investigations). They cannot forge honest nodes' signatures —
    that is what the investigation chains exploit. *)

module Peer = Octo_chord.Peer

val covers_now : World.t -> World.node -> bool
(** Colluder consistency draw (Table 2's 50% covering behaviour). *)

val biased_succs : World.t -> World.node -> Peer.t list
(** A successor list containing only colluders (nearest ones clockwise),
    the lookup-bias manipulation of §4.3. *)

val fake_preds : World.t -> World.node -> Peer.t list
(** An all-colluder predecessor list (what a manipulated finger F' answers
    to hide from secret finger surveillance). *)

val fabricated_justification :
  World.t -> claimed_succ:Peer.t -> World.node option
(** If the claimed successor is a colluder, return it (its key is available
    to fabricate a signed list); [None] when it is honest, in which case no
    justification can be forged. *)

val forge_list :
  World.t -> World.node -> Types.list_kind -> Peer.t list -> at:float -> Types.signed_list
(** A list in a colluder's name dated [at]: the fabricated evidence that
    stalls a CA investigation. It is signed at the current time and then
    relabelled, so the signature covers the signing time rather than [at],
    and a forgery dated in the past does not verify. ROADMAP "The
    adversary the paper models, and a CA that still convicts it" signs at
    [at] instead. *)

val serve_table : World.t -> World.node -> Types.signed_table
(** The table a node serves for an (anonymous or direct) table request,
    applying the active attack. *)

val serve_list : World.t -> World.node -> Types.list_kind -> Types.signed_list
(** The list a node serves, applying the active attack. *)

val drops_fwd : World.t -> World.node -> bool
(** Selective-DoS: whether a malicious relay drops this forwarded message. *)
