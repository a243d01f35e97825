(** HMAC-SHA256 (RFC 2104), the MAC underlying simulated signatures and
    certificates. Tested against RFC 4231 vectors. *)

val mac : key:bytes -> bytes -> bytes
(** 32-byte authentication tag. Chain states for the key's inner/outer pad
    blocks are cached (bounded, keyed by key content), so repeated MACs
    under one key skip half the compressions. *)

val mac_string : key:bytes -> string -> bytes

val verify : key:bytes -> bytes -> tag:bytes -> bool
(** Constant-shape comparison of a recomputed tag. *)
