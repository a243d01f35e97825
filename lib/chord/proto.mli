(** Chord wire protocol: the message vocabulary exchanged between nodes of
    the plain (baseline) Chord network, also used by the Halo baseline. *)

type table = {
  owner : Peer.t;
  fingers : Peer.t option list;  (** aligned with finger indexes *)
  succs : Peer.t list;
  sent_at : float;
}
(** A routing-table snapshot as served to other nodes. *)

type msg =
  | Table_req of { rid : int }
  | Table_resp of { rid : int; table : table }
  | Succs_req of { rid : int; from : Peer.t }
  | Succs_resp of { rid : int; succs : Peer.t list }
  | Preds_req of { rid : int; from : Peer.t }
  | Preds_resp of { rid : int; preds : Peer.t list }

val rid : msg -> int

val size : msg -> int
(** Wire size in bytes (see {!Octo_crypto.Wire}); plain Chord tables are
    unsigned. *)
