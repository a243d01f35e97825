(** HMAC-SHA256 (RFC 2104), the MAC underlying simulated signatures and
    keystream derivation. Tested against RFC 4231 vectors. *)

val mac : key:bytes -> bytes -> bytes
(** 32-byte authentication tag. Chain states for the key's inner/outer pad
    blocks are cached (bounded, keyed by key content), so repeated MACs
    under one key skip half the compressions. *)

val mac_into : key:bytes -> bytes -> bytes -> int -> unit
(** [mac_into ~key msg out off] writes the 32-byte tag at [out.(off)]
    without allocating. *)

type keyed
(** A key's schedule: the chain states after its inner and outer pad
    blocks. *)

val keyed_of : bytes -> keyed
(** [keyed_of key] looks the schedule up in the per-key cache (deriving
    and caching it on a miss). *)

val mac_keyed_into : keyed -> bytes -> bytes -> int -> unit
(** {!mac_into} with the key schedule already looked up, for callers
    that MAC many messages under one key in a row (keystream blocks). *)

val mac_string : key:bytes -> string -> bytes

val verify : key:bytes -> bytes -> tag:bytes -> bool
(** Constant-shape comparison of a recomputed tag. *)
