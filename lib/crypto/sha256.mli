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

val finalize_into : ctx -> bytes -> int -> unit
(** [finalize_into ctx out off] writes the 32-byte digest at [out.(off)]
    without allocating. *)

type state
(** Chain-state snapshot, valid only at a 64-byte block boundary. *)

val save : ctx -> state
val restore : ctx -> state -> unit
(** [restore ctx st] rewinds [ctx] to the snapshot; hashing a common prefix
    once and restoring per message skips its compressions (HMAC key pads). *)

val digest_bytes : bytes -> bytes
val digest_string : string -> bytes

val hex : bytes -> string
(** Lowercase hex rendering of a digest. *)
