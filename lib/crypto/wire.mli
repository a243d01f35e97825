(** Wire-size accounting, using the paper's byte budget (footnote 4):
    10-byte routing items, 40-byte ECDSA signatures with 4-byte timestamps,
    50-byte certificates, AES-128-sized onion layers. Message sizes feed
    the bandwidth comparison of Table 3 and all Net byte counters.

    Also provides the canonical digest used by every signature in the
    repository: fields are rendered into a canonical string and hashed. *)

val header : int
(** Fixed per-message overhead (UDP/IP headers, message type, request id):
    36 bytes. *)

val routing_item : int
(** 10 bytes per finger / successor / predecessor entry. *)

val signature : int
val timestamp : int
val certificate : int
val onion_layer : int
val key : int

val routing_entries : int -> int
(** Size of [n] routing items. *)

val signed_routing_table : fingers:int -> succs:int -> int
(** A full signed routing table reply: entries + signature + timestamp +
    the owner's certificate. *)

val signed_list : entries:int -> int
(** A single signed node list (successor or predecessor list) with
    timestamp and certificate. *)

val onion_wrapped : layers:int -> int -> int
(** [onion_wrapped ~layers payload] is the payload size plus per-layer
    overhead plus the next-hop address per layer. *)

val decimal : int -> string
(** [decimal n] is [string_of_int n], rendered in OCaml instead of through
    C [snprintf]. Every integer a digest covers is rendered with it. *)

val digest_parts : string list -> bytes
(** Canonical SHA-256 digest of the given fields, used as the message body
    for {!Keys.sign}. Fields are length-prefixed so the encoding is
    injective. *)
