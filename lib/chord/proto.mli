(** Chord wire protocol: the message vocabulary exchanged between nodes of
    the plain (baseline) Chord network, also reused by the Halo / NISAN /
    Torsk baselines. *)

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
  | Ping_req of { rid : int }
  | Ping_resp of { rid : int }
  | Find_req of { rid : int; key : int; reply_to : Peer.t; hops_so_far : int }
      (** recursive lookup: forwarded hop by hop; the covering node
          answers [reply_to] directly *)
  | Find_resp of { rid : int; owner : Peer.t; hops : int }
  | Proxy_req of { rid : int; key : int }
      (** Torsk-style buddy request: perform a lookup on my behalf. *)
  | Proxy_resp of { rid : int; result : Peer.t option; hops : int }

val rid : msg -> int

val size : msg -> int
(** Wire size in bytes (see {!Octo_crypto.Wire}); plain Chord tables are
    unsigned. *)
