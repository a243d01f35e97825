(** AES-128 in counter mode: the paper's onion-layer cipher.

    AES-128 (FIPS-197) is implemented from scratch, encryption direction
    only. CTR mode follows SP 800-38A: the 16-byte nonce is the initial
    counter block, incremented per 16-byte block as a 128-bit big-endian
    integer, and the encrypted counter blocks are XORed with the data.
    Tested against the FIPS-197 and SP 800-38A vectors. *)

val key_size : int
(** 16 bytes (AES-128). *)

val nonce_size : int
(** 16 bytes per layer, counted in wire sizes. *)

val encrypt : key:bytes -> nonce:bytes -> bytes -> bytes
(** CTR encryption; same length as the input. Raises [Invalid_argument]
    unless the key is {!key_size} and the nonce {!nonce_size} bytes. *)

val xor_in_place : key:bytes -> nonce_src:bytes -> nonce_off:int -> bytes -> off:int -> len:int -> unit
(** [xor_in_place ~key ~nonce_src ~nonce_off buf ~off ~len] XORs the
    keystream for the {!nonce_size}-byte nonce at [nonce_src.(nonce_off)]
    over [buf.(off..off+len-1)], allocating nothing. Applying it twice with
    the same key/nonce is the identity (CTR involution). [nonce_src] may
    alias [buf] as long as the nonce bytes are outside the XORed range —
    the onion layout (nonce header, ciphertext body) relies on this.
    Raises [Invalid_argument], with [buf] untouched, if the key is not
    {!key_size} bytes or either range lies outside its buffer. *)

val decrypt : key:bytes -> nonce:bytes -> bytes -> bytes
(** Inverse of {!encrypt} (CTR is an involution given key and nonce). *)
