(** SHA-256 (FIPS 180-4), implemented from scratch in pure OCaml.

    Used as the hash underlying signatures and content digests throughout
    the repository. Tested against the FIPS test vectors. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
val reset : ctx -> unit
val update : ctx -> bytes -> unit
val update_string : ctx -> string -> unit

val update_sub : ctx -> bytes -> int -> int -> unit
(** [update_sub ctx data off len] hashes [data.(off) .. data.(off+len-1)].
    Raises [Invalid_argument] if the range is not inside [data]. *)

val finalize : ctx -> bytes
(** 32-byte digest. The context must be {!reset} before reuse. *)

type mark
(** A snapshot of a context at any point: its chain state, the partial
    block and the length hashed so far, in 40 bytes plus the partial
    block. *)

val mark : ctx -> mark

val resume : ctx -> mark -> unit
(** [resume ctx m] puts [ctx] back where {!mark} took [m]. Hashing a
    suffix from there gives the digest of the marked prefix and the
    suffix, without hashing the prefix again. *)

val digest_bytes : bytes -> bytes
val digest_string : string -> bytes

val hex : bytes -> string
(** Lowercase hex rendering of a digest. *)

(** {1 Keyed digests}

    The digest of a 64-byte key block followed by a message, computed
    from the chain state after the block. For a 32-byte message this is
    one compression. *)

val key_chain : bytes -> bytes
(** [key_chain block] is the 32-byte chain state after compressing the
    64-byte [block]. Raises [Invalid_argument] if [block] is not 64
    bytes. *)

val keyed_digest : chain:bytes -> bytes -> bytes
(** [keyed_digest ~chain msg] is the SHA-256 digest of [block ‖ msg],
    where [chain = key_chain block]. *)

val keyed_digest_equal : chain:bytes -> bytes -> bytes -> bool
(** [keyed_digest_equal ~chain msg tag] is [Bytes.equal (keyed_digest
    ~chain msg) tag], without allocating and without an early exit. *)

(** {1 Counting} *)

val compressions : unit -> int
(** Compressions run by this process so far, in every context. A
    difference of two readings is the cost of the code between them. *)
