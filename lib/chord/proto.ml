type table = {
  owner : Peer.t;
  fingers : Peer.t option list;
  succs : Peer.t list;
  sent_at : float;
}

type msg =
  | Table_req of { rid : int }
  | Table_resp of { rid : int; table : table }
  | Succs_req of { rid : int; from : Peer.t }
  | Succs_resp of { rid : int; succs : Peer.t list }
  | Preds_req of { rid : int; from : Peer.t }
  | Preds_resp of { rid : int; preds : Peer.t list }

let rid = function
  | Table_req { rid }
  | Table_resp { rid; _ }
  | Succs_req { rid; _ }
  | Succs_resp { rid; _ }
  | Preds_req { rid; _ }
  | Preds_resp { rid; _ } -> rid

let table_entries table =
  List.length (List.filter_map (fun f -> f) table.fingers) + List.length table.succs + 1

let size msg =
  let open Octo_crypto in
  match msg with
  | Table_req _ | Succs_req _ | Preds_req _ -> Wire.header
  | Table_resp { table; _ } -> Wire.header + Wire.routing_entries (table_entries table)
  | Succs_resp { succs; _ } -> Wire.header + Wire.routing_entries (List.length succs)
  | Preds_resp { preds; _ } -> Wire.header + Wire.routing_entries (List.length preds)
