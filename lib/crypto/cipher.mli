(** Symmetric stream cipher in counter mode.

    The keystream is [HMAC-SHA256(key, nonce || counter)] blocks, XORed with
    the plaintext: a standard CTR construction over a PRF. It stands in for
    the paper's AES-128 onion layers (see DESIGN.md substitutions); its
    confidentiality against the simulated adversary reduces to the PRF. *)

val key_size : int
(** 16 bytes, matching the paper's AES-128 parameterization. *)

val nonce_size : int
(** 16 bytes per layer, counted in wire sizes. *)

val encrypt : key:bytes -> nonce:bytes -> bytes -> bytes
(** CTR encryption; same length as the input. *)

val xor_in_place : key:bytes -> nonce_src:bytes -> nonce_off:int -> bytes -> off:int -> len:int -> unit
(** [xor_in_place ~key ~nonce_src ~nonce_off buf ~off ~len] XORs the
    keystream for the {!nonce_size}-byte nonce at [nonce_src.(nonce_off)]
    over [buf.(off..off+len-1)], allocating nothing. Applying it twice with
    the same key/nonce is the identity (CTR involution). [nonce_src] may
    alias [buf] as long as the nonce bytes are outside the XORed range —
    the onion layout (nonce header, ciphertext body) relies on this.
    Streams of up to 96 bytes under {!key_size}-byte keys are kept in a
    fixed-size memo, so the receiver of an onion layer usually reads the
    sender's stream back instead of recomputing it; the bytes are the
    same either way. *)

val decrypt : key:bytes -> nonce:bytes -> bytes -> bytes
(** Inverse of {!encrypt} (CTR is an involution given key and nonce). *)
