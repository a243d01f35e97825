(** Simulated public-key signatures.

    The paper uses ECDSA; no elliptic-curve library is available offline, so
    signatures are simulated with a construction that is unforgeable
    *within the simulation*: a signature is [HMAC-SHA256(secret, msg)], the
    public key is a 20-byte hash of the secret, and verification goes
    through a {!registry} oracle mapping public keys to secrets. Malicious
    nodes in the simulation never read other nodes' secrets, so they cannot
    produce a tag that verifies — the property the protocols rely on.
    Wire sizes use the paper's ECDSA figures (40-byte signatures, 20-byte
    public keys) so bandwidth accounting matches. *)

type secret
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
val verify : registry -> public -> bytes -> signature -> bool
(** [verify reg pk msg s] holds iff [s] was produced by [sign sk msg] for
    the [sk] registered under [pk]. *)

val forge : signature
(** A tag that never verifies — what an adversary without the secret can
    produce at best. *)

val signature_bytes : signature -> bytes
(** Raw tag bytes; with the three below, lets {!Cert} copy a tag and key. *)

val signature_of_bytes : bytes -> signature
val public_bytes : public -> bytes
val public_of_bytes : bytes -> public
