module Peer = Octo_chord.Peer
module Wire = Octo_crypto.Wire
module Keys = Octo_crypto.Keys
module Cert = Octo_crypto.Cert

type list_kind = Succ_list | Pred_list

type signed_list = {
  l_owner : Peer.t;
  l_kind : list_kind;
  l_peers : Peer.t list;
  l_time : float;
  l_sig : Keys.signature;
  l_cert : Cert.t;
  mutable l_memo : bytes option;
}

type signed_table = {
  t_owner : Peer.t;
  t_fingers : Peer.t option list;
  t_succs : Peer.t list;
  t_time : float;
  t_sig : Keys.signature;
  t_cert : Cert.t;
  mutable t_memo : bytes option;
}

(* Digest text for peers: [id@addr], lists joined by commas, an absent
   finger as [-]. *)
let add_peer w p =
  Wire.add_int w p.Peer.id;
  Wire.add_char w '@';
  Wire.add_int w p.Peer.addr

let rec add_peers w = function
  | [] -> ()
  | [ p ] -> add_peer w p
  | p :: rest ->
    add_peer w p;
    Wire.add_char w ',';
    add_peers w rest

let add_finger w = function None -> Wire.add_char w '-' | Some p -> add_peer w p

let rec add_fingers w = function
  | [] -> ()
  | [ f ] -> add_finger w f
  | f :: rest ->
    add_finger w f;
    Wire.add_char w ',';
    add_fingers w rest

let string_field w s =
  Wire.add_string w s;
  Wire.close_part w

let peer_field w p =
  add_peer w p;
  Wire.close_part w

let int_field w n =
  Wire.add_int w n;
  Wire.close_part w

let time_field w x =
  Wire.add_time w x;
  Wire.close_part w

(* Every part but the time, which comes last: the prefix a node's next
   signature over the same content can resume from. *)
let list_prefix w ~owner ~kind peers =
  string_field w "slist";
  peer_field w owner;
  string_field w (match kind with Succ_list -> "S" | Pred_list -> "P");
  add_peers w peers;
  Wire.close_part w

let table_prefix w ~owner ~fingers ~succs =
  string_field w "table";
  peer_field w owner;
  add_fingers w fingers;
  Wire.close_part w;
  add_peers w succs;
  Wire.close_part w

let finish_at w ~time =
  time_field w time;
  Wire.finish w

let list_digest sl =
  match sl.l_memo with
  | Some d -> d
  | None ->
    let w = Wire.open_digest () in
    list_prefix w ~owner:sl.l_owner ~kind:sl.l_kind sl.l_peers;
    let d = finish_at w ~time:sl.l_time in
    sl.l_memo <- Some d;
    d

let table_digest st =
  match st.t_memo with
  | Some d -> d
  | None ->
    let w = Wire.open_digest () in
    table_prefix w ~owner:st.t_owner ~fingers:st.t_fingers ~succs:st.t_succs;
    let d = finish_at w ~time:st.t_time in
    st.t_memo <- Some d;
    d

type anon_query =
  | Q_table of { session : (int * bytes) option }
  | Q_list of list_kind
  | Q_phase2 of { seed : int; length : int }
  | Q_establish of { sid : int; key : bytes }
  | Q_put of { key : int; value : bytes }
  | Q_get of { key : int }
  | Q_echo of bytes

type anon_reply =
  | R_table of signed_table
  | R_list of signed_list
  | R_phase2 of signed_table list
  | R_ok
  | R_stored
  | R_value of bytes option
  | R_echo of bytes

type report =
  | R_neighbor of { reporter : Peer.t; missing : Peer.t; claimed : signed_list }
  | R_finger of {
      y_table : signed_table;
      index : int;
      f_preds : signed_list;
      p1_succs : signed_list;
    }
  | R_table_omission of { reporter : Peer.t; missing : Peer.t; table : signed_table }
  | R_dos of { reporter : Peer.t; relays : Peer.t list; cid : int; sent_at : float }

type receipt = {
  rc_cid : int;
  rc_signer : Peer.t;
  rc_time : float;
  rc_sig : Keys.signature;
}

let receipt_digest ~cid ~signer ~time =
  let w = Wire.open_digest () in
  string_field w "receipt";
  int_field w cid;
  peer_field w signer;
  time_field w time;
  Wire.finish w

type witness_statement = {
  ws_witness : Peer.t;
  ws_target : Peer.t;
  ws_cid : int;
  ws_time : float;
  ws_sig : Keys.signature;
}

(* A statement is identified by (witness, target, cid, time): the
   signature is a deterministic function of those via [statement_digest],
   so field-wise ordering both dedupes exact duplicates and avoids
   polymorphic compare on the abstract signature. *)
let compare_statement a b =
  let c = Peer.compare a.ws_witness b.ws_witness in
  if c <> 0 then c
  else
    let c = Peer.compare a.ws_target b.ws_target in
    if c <> 0 then c
    else
      let c = Int.compare a.ws_cid b.ws_cid in
      if c <> 0 then c else Float.compare a.ws_time b.ws_time

let statement_digest ~witness ~target ~cid ~time =
  let w = Wire.open_digest () in
  string_field w "statement";
  peer_field w witness;
  peer_field w target;
  int_field w cid;
  time_field w time;
  Wire.finish w

(* Payload hashes and the digests a reply covers are computed before the
   outer digest opens: the writer holds one digest at a time. *)
let query_digest ~target ~cid query =
  let payload =
    match query with
    | Q_put { value = b; _ } | Q_echo b -> Octo_crypto.Sha256.digest_bytes b
    | Q_table _ | Q_list _ | Q_phase2 _ | Q_establish _ | Q_get _ -> Bytes.empty
  in
  let w = Wire.open_digest () in
  string_field w "query";
  peer_field w target;
  int_field w cid;
  (match query with
  | Q_table { session } -> (
    Wire.add_string w "qt";
    match session with Some (sid, _) -> Wire.add_int w sid | None -> Wire.add_char w '-')
  | Q_list Succ_list -> Wire.add_string w "qls"
  | Q_list Pred_list -> Wire.add_string w "qlp"
  | Q_phase2 { seed; length } ->
    Wire.add_string w "qp2:";
    Wire.add_int w seed;
    Wire.add_char w ':';
    Wire.add_int w length
  | Q_establish { sid; _ } ->
    Wire.add_string w "qe:";
    Wire.add_int w sid
  | Q_put { key; _ } ->
    Wire.add_string w "qp:";
    Wire.add_int w key;
    Wire.add_char w ':';
    Wire.add_hex w payload
  | Q_get { key } ->
    Wire.add_string w "qg:";
    Wire.add_int w key
  | Q_echo _ ->
    Wire.add_string w "qec:";
    Wire.add_hex w payload);
  Wire.close_part w;
  Wire.finish w

let rec add_table_hexes w = function
  | [] -> ()
  | [ t ] -> Wire.add_hex w (table_digest t)
  | t :: rest ->
    Wire.add_hex w (table_digest t);
    Wire.add_char w ',';
    add_table_hexes w rest

let reply_digest ~cid reply =
  let inner =
    match reply with
    | Some (R_table st) -> table_digest st
    | Some (R_list sl) -> list_digest sl
    | Some (R_phase2 tables) ->
      (* Fills every table's memo, so the writer below only reads them. *)
      List.iter (fun t -> ignore (table_digest t)) tables;
      Bytes.empty
    | Some (R_value (Some b) | R_echo b) -> Octo_crypto.Sha256.digest_bytes b
    | None | Some (R_ok | R_stored | R_value None) -> Bytes.empty
  in
  let w = Wire.open_digest () in
  string_field w "reply";
  int_field w cid;
  (match reply with
  | None -> Wire.add_string w "none"
  | Some (R_table _ | R_list _) -> Wire.add_hex w inner
  | Some (R_phase2 tables) -> add_table_hexes w tables
  | Some R_ok -> Wire.add_string w "ok"
  | Some R_stored -> Wire.add_string w "stored"
  | Some (R_value None) -> Wire.add_string w "value:-"
  | Some (R_value (Some _)) ->
    Wire.add_string w "value:";
    Wire.add_hex w inner
  | Some (R_echo _) ->
    Wire.add_string w "echo:";
    Wire.add_hex w inner);
  Wire.close_part w;
  Wire.finish w

type msg =
  | List_req of { rid : int; kind : list_kind; announce : Peer.t option }
  | List_resp of { rid : int; slist : signed_list }
  | Table_req of { rid : int }
  | Table_resp of { rid : int; table : signed_table }
  | Ping_req of { rid : int }
  | Ping_resp of { rid : int }
  | Anon_req of { rid : int; query : anon_query }
  | Anon_resp of { rid : int; reply : anon_reply }
  | Fwd of {
      cid : int;
      sid : int;
      delay : float;
      hops : (int * int * float) list;
      target : Peer.t;
      query : anon_query;
      deadline : float;
      capsule : bytes;
    }
  | Fwd_reply of { cid : int; reply : anon_reply option; capsule : bytes }
  | Replicate of { rid : int; key : int; value : bytes }
      (** owner-to-successor replication of a stored value *)
  | Replicate_ack of { rid : int }
  | Receipt_msg of { cid : int; receipt : receipt }
  | Witness_req of { rid : int; cid : int; target : Peer.t; fwd : msg }
  | Witness_resp of { rid : int; outcome : (receipt, witness_statement) Either.t }
  | Report_msg of { rid : int; report : report }
  | Justify_req of { rid : int; missing : Peer.t; source : Peer.t; provenance : bool; before : float }
  | Justify_resp of { rid : int; proof : signed_list option }
  | Proofs_req of { rid : int }
  | Proofs_resp of { rid : int; proofs : signed_list list }
  | Evidence_req of { rid : int; cid : int }
  | Evidence_resp of {
      rid : int;
      received : bool;
      receipt : receipt option;
      statements : witness_statement list;
    }

let kind = function
  | List_req _ -> "List_req"
  | List_resp _ -> "List_resp"
  | Table_req _ -> "Table_req"
  | Table_resp _ -> "Table_resp"
  | Ping_req _ -> "Ping_req"
  | Ping_resp _ -> "Ping_resp"
  | Anon_req _ -> "Anon_req"
  | Anon_resp _ -> "Anon_resp"
  | Fwd _ -> "Fwd"
  | Fwd_reply _ -> "Fwd_reply"
  | Replicate _ -> "Replicate"
  | Replicate_ack _ -> "Replicate_ack"
  | Receipt_msg _ -> "Receipt_msg"
  | Witness_req _ -> "Witness_req"
  | Witness_resp _ -> "Witness_resp"
  | Report_msg _ -> "Report_msg"
  | Justify_req _ -> "Justify_req"
  | Justify_resp _ -> "Justify_resp"
  | Proofs_req _ -> "Proofs_req"
  | Proofs_resp _ -> "Proofs_resp"
  | Evidence_req _ -> "Evidence_req"
  | Evidence_resp _ -> "Evidence_resp"

let rid = function
  | List_req { rid; _ }
  | List_resp { rid; _ }
  | Table_req { rid }
  | Table_resp { rid; _ }
  | Ping_req { rid }
  | Ping_resp { rid }
  | Witness_req { rid; _ }
  | Witness_resp { rid; _ }
  | Report_msg { rid; _ }
  | Justify_req { rid; _ }
  | Justify_resp { rid; _ }
  | Proofs_req { rid }
  | Proofs_resp { rid; _ }
  | Evidence_req { rid; _ }
  | Evidence_resp { rid; _ }
  | Anon_req { rid; _ }
  | Anon_resp { rid; _ }
  | Replicate { rid; _ }
  | Replicate_ack { rid } -> Some rid
  | Fwd _ | Fwd_reply _ | Receipt_msg _ -> None

let signed_list_size sl = Wire.signed_list ~entries:(List.length sl.l_peers)

let signed_table_size st =
  let fingers =
    List.fold_left (fun n f -> match f with Some _ -> n + 1 | None -> n) 0 st.t_fingers
  in
  Wire.signed_routing_table ~fingers ~succs:(List.length st.t_succs)

let query_payload_size = function
  | Q_table { session } -> (
    Wire.routing_item + match session with Some _ -> 4 + Wire.key | None -> 0)
  | Q_list _ -> Wire.routing_item
  | Q_phase2 _ -> 12
  | Q_establish _ -> 4 + Wire.key
  | Q_put { value; _ } -> 8 + Bytes.length value
  | Q_get _ -> 8
  | Q_echo payload -> Bytes.length payload

let reply_payload_size = function
  | R_table st -> signed_table_size st
  | R_list sl -> signed_list_size sl
  | R_phase2 tables -> List.fold_left (fun acc t -> acc + signed_table_size t) 0 tables
  | R_ok -> 4
  | R_stored -> 4
  | R_value v -> 1 + (match v with Some b -> Bytes.length b | None -> 0)
  | R_echo payload -> Bytes.length payload

let receipt_size = Wire.routing_item + Wire.timestamp + Wire.signature
let statement_size = (2 * Wire.routing_item) + Wire.timestamp + Wire.signature

let report_size = function
  | R_neighbor { claimed; _ } -> (2 * Wire.routing_item) + signed_list_size claimed
  | R_finger { y_table; f_preds; p1_succs; _ } ->
    signed_table_size y_table + 4 + signed_list_size f_preds + signed_list_size p1_succs
  | R_table_omission { table; _ } -> (2 * Wire.routing_item) + signed_table_size table
  | R_dos { relays; _ } -> (List.length relays * Wire.routing_item) + 8

let rec size msg =
  match msg with
  | List_req _ | Table_req _ | Ping_req _ | Ping_resp _ | Proofs_req _ -> Wire.header
  | List_resp { slist; _ } -> Wire.header + signed_list_size slist
  | Table_resp { table; _ } -> Wire.header + signed_table_size table
  | Anon_req { query; _ } -> Wire.header + query_payload_size query
  | Anon_resp { reply; _ } -> Wire.header + reply_payload_size reply
  | Fwd { hops; query; capsule; _ } ->
    Wire.header
    + ((List.length hops + 1) * (Wire.routing_item + 4))
    + query_payload_size query + Bytes.length capsule
  | Fwd_reply { reply; capsule; _ } ->
    Wire.header
    + (match reply with Some r -> reply_payload_size r | None -> 1)
    + Bytes.length capsule
  | Replicate { value; _ } -> Wire.header + 8 + Bytes.length value
  | Replicate_ack _ -> Wire.header
  | Receipt_msg _ -> Wire.header + receipt_size
  | Witness_req { fwd; _ } -> Wire.header + size fwd
  | Witness_resp { outcome; _ } ->
    Wire.header + (match outcome with Either.Left _ -> receipt_size | Either.Right _ -> statement_size)
  | Report_msg { report; _ } -> Wire.header + report_size report
  | Justify_req _ -> Wire.header + (2 * Wire.routing_item)
  | Justify_resp { proof; _ } ->
    Wire.header + (match proof with Some p -> signed_list_size p | None -> 1)
  | Proofs_resp { proofs; _ } ->
    Wire.header + List.fold_left (fun acc p -> acc + signed_list_size p) 0 proofs
  | Evidence_req _ -> Wire.header + 4
  | Evidence_resp { receipt; statements; _ } ->
    Wire.header + 1
    + (match receipt with Some _ -> receipt_size | None -> 0)
    + (List.length statements * statement_size)
