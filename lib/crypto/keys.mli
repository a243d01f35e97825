(** Simulated public-key signatures.

    The paper uses ECDSA; no elliptic-curve library is available offline, so
    signatures are simulated with a construction that is unforgeable
    *within the simulation*: a signature is SHA-256 of the signer's 64-byte
    key block (32 random bytes, zero-padded) followed by the 32-byte digest
    it signs, the public key is a 20-byte hash of the random bytes, and
    verification goes through a {!registry} oracle mapping public keys to
    secrets. Malicious nodes in the simulation never read other nodes'
    secrets, so they cannot produce a tag that verifies — the property the
    protocols rely on. Wire sizes use the paper's ECDSA figures (40-byte
    signatures, 20-byte public keys) so bandwidth accounting matches.

    For a fixed one-block message the tag is the inner function of
    NMAC/HMAC, a PRF under the compression-function assumption HMAC's
    proof uses. HMAC's outer hash stops length extension on
    variable-length messages; only 32-byte digests are signed here. *)

type secret
(** The SHA-256 chain state after the key block, 32 bytes. *)

type public

val public_equal : public -> public -> bool
val public_hex : public -> string

type keypair = { secret : secret; public : public }

type registry
(** The verification oracle for one simulated world. *)

val create_registry : unit -> registry

val generate : registry -> Octo_sim.Rng.t -> keypair
(** Fresh keypair, recorded in the registry. *)

type signature

val sign : secret -> bytes -> signature
(** [sign sk d] signs the 32-byte digest [d] with one SHA-256
    compression. Raises [Invalid_argument] if [d] is not 32 bytes. *)

val verify : registry -> public -> bytes -> signature -> bool
(** [verify reg pk msg s] holds iff [s] was produced by [sign sk msg] for
    the [sk] registered under [pk]; it recomputes the one compression. *)

val forge : unit -> signature
(** A fresh all-zero tag that never verifies — what an adversary without
    the secret can produce at best. *)

val signature_bytes : signature -> bytes
(** Raw tag bytes; with the three below, lets {!Cert} copy a tag and key. *)

val signature_of_bytes : bytes -> signature
val public_bytes : public -> bytes
val public_of_bytes : bytes -> public
