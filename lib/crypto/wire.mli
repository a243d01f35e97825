(** Wire-size accounting, using the paper's byte budget (footnote 4):
    10-byte routing items, 40-byte ECDSA signatures with 4-byte timestamps,
    50-byte certificates, AES-128-sized onion layers. Message sizes feed
    the bandwidth comparison of Table 3 and all Net byte counters.

    Also provides the canonical digest used by every signature in the
    repository: fields are rendered into length-prefixed parts and
    hashed. *)

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

(** {1 Digests}

    A digest hashes a sequence of parts, each as its decimal length, a
    colon and its bytes, so the encoding is injective. The writer streams
    the parts into SHA-256 and allocates only the 32-byte result.

    One digest is open at a time: compute any digest a part needs (a
    table digest a reply covers, a payload hash) before {!open_digest}. *)

type writer

val open_digest : unit -> writer
(** Opens the shared writer on an empty digest. Raises [Invalid_argument]
    if a digest is already open. *)

type mark
(** The state of an open digest between parts. *)

val mark : writer -> mark
(** [mark w] records the parts closed so far. Raises [Invalid_argument]
    if text was appended after the last {!close_part}. *)

val open_at : mark -> writer
(** Opens the shared writer where {!mark} left it: the parts closed
    before the mark are hashed already, and the digest goes on from
    there. Raises [Invalid_argument] like {!open_digest}. *)

val add_char : writer -> char -> unit
val add_string : writer -> string -> unit

val add_int : writer -> int -> unit
(** Appends [string_of_int n]. *)

val add_hex : writer -> bytes -> unit
(** Appends [Sha256.hex d]. *)

val add_time : writer -> float -> unit
(** Appends [Printf.sprintf "%.6f" x], without printf for finite [x]
    below 2{^40} in magnitude. *)

val close_part : writer -> unit
(** Ends the current part and hashes it with its length prefix. *)

val finish : writer -> bytes
(** The digest of the closed parts; releases the writer. Raises
    [Invalid_argument] if text was appended after the last
    {!close_part} (the writer is released either way). *)

val digest_parts : string list -> bytes
(** Canonical SHA-256 digest of the given fields, used as the message body
    for {!Keys.sign}: one part per field. *)
