(** One relay's session keys, by session id.

    A relay keeps the key of every session an initiator opened with it
    (a relay pair's leg, a walk step, a circuit hop) and reads it to peel
    a forward or wrap a reply. The table has [Imap]'s set/find/clear
    semantics over sorted session ids, but stores each 16-byte key in
    one packed buffer: a session costs one word for its id and two for
    its key, plus spare capacity as it grows by doubling. A key is read in place
    through its offset in {!keys} (see {!Octo_crypto.Cipher.xor_at}). *)

type t

val create : unit -> t
(** An empty table. It allocates its storage on the first {!set}. *)

val length : t -> int

val mem : t -> int -> bool

val set : t -> int -> bytes -> key_off:int -> unit
(** [set t sid key ~key_off] stores a copy of the 16 bytes of [key] at
    [key_off] under [sid], replacing any earlier key. Raises
    [Invalid_argument] unless [key] holds 16 bytes at [key_off]. *)

val find : t -> int -> int
(** The offset of [sid]'s key in {!keys}, or [-1] when the table has
    none. The offset is good until the table next changes. *)

val keys : t -> bytes
(** The packed keys; read the one {!find} points at, and only until the
    table next changes. *)

val clear : t -> unit
(** Forget every session and release the storage. *)

val reserve : t -> int -> unit
(** [reserve t n] makes room for [n] sessions in all, for a table whose
    size is known ahead (every relay's, as the bootstrap provisions the
    pools), so it grows at most once and holds no spare capacity. *)
