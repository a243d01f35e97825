(** Layered (onion) encryption for anonymous paths.

    The initiator shares a symmetric key with each relay on a path and
    wraps the payload once per relay, outermost layer first peeled. Each
    layer carries its own nonce, so two wrappings of the same payload are
    unlinkable ciphertexts. Reply payloads are wrapped by each relay on the
    way back and peeled all at once by the initiator. *)

val gen_key : Octo_sim.Rng.t -> bytes
(** Fresh 16-byte layer key. *)

val wrap : rng:Octo_sim.Rng.t -> keys:bytes list -> bytes -> bytes
(** [wrap ~rng ~keys payload] encrypts with the *last* key of [keys]
    innermost and the first outermost: the first relay on the path peels
    the first key's layer. *)

val peel : key:bytes -> key_off:int -> bytes -> bytes option
(** Remove one layer with the key at [key.(key_off)]. [None] if the
    ciphertext is too short to carry a layer header. *)

val add_layer : rng:Octo_sim.Rng.t -> key:bytes -> key_off:int -> bytes -> bytes
(** Add one layer with the key at [key.(key_off)] (used by relays on the
    reply path). *)

val peel_all : keys:bytes list -> bytes -> bytes option
(** Peel one layer per key, first key first. *)

val layer_overhead : int
(** Bytes added per layer (the nonce). *)
