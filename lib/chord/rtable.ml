type t = {
  space : Id.space;
  owner : Peer.t;
  fingers : Peer.t option array;
  mutable succs : Peer.t list;
  mutable preds : Peer.t list;
  list_size : int;
}

let create space ~owner ~num_fingers ~list_size =
  {
    space;
    owner;
    fingers = Array.make num_fingers None;
    succs = [];
    preds = [];
    list_size;
  }

let space t = t.space
let owner t = t.owner
let num_fingers t = Array.length t.fingers
let finger t i = t.fingers.(i)
let set_finger t i peer = t.fingers.(i) <- peer

let fingers t =
  Array.to_list t.fingers |> List.filter_map (fun peer -> peer)

let succs t = t.succs
let preds t = t.preds
let successor t = match t.succs with [] -> None | s :: _ -> Some s
let predecessor t = match t.preds with [] -> None | p :: _ -> Some p

let not_self t peer = peer.Peer.id <> t.owner.Peer.id

let truncate k lst =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take k lst

(* An unchanged member set keeps the stored list: stabilization re-sets
   the same neighbors every round, and a fresh copy of each would outlive
   a minor collection only to be duplicated into every signed list that
   quotes it. Lists are compared structurally everywhere, so sharing is
   invisible. *)
let set_succs t peers =
  let next =
    truncate t.list_size
      (Peer.sort_cw t.space ~from:t.owner.Peer.id (List.filter (not_self t) peers))
  in
  if not (List.equal Peer.equal t.succs next) then t.succs <- next

let set_preds t peers =
  let next =
    truncate t.list_size
      (Peer.sort_ccw t.space ~from:t.owner.Peer.id (List.filter (not_self t) peers))
  in
  if not (List.equal Peer.equal t.preds next) then t.preds <- next

let merge_succs t peers = set_succs t (t.succs @ peers)
let merge_preds t peers = set_preds t (t.preds @ peers)

let remove t ~addr =
  let keep p = p.Peer.addr <> addr in
  (* Most nodes do not list the removed peer; keep their lists too. *)
  let drop l = if List.for_all keep l then l else List.filter keep l in
  Array.iteri
    (fun i f -> match f with Some p when not (keep p) -> t.fingers.(i) <- None | _ -> ())
    t.fingers;
  t.succs <- drop t.succs;
  t.preds <- drop t.preds

let entries t =
  Peer.sort_cw t.space ~from:t.owner.Peer.id (fingers t @ t.succs @ t.preds)

let covers t ~key =
  (* Walk the successor list from the owner: the first successor whose id
     succeeds [key] owns it. Only valid while [key] is within the span of
     the list. *)
  let rec walk lo = function
    | [] -> None
    | s :: rest ->
      if Id.between t.space key ~lo ~hi:s.Peer.id then Some s else walk s.Peer.id rest
  in
  walk t.owner.Peer.id t.succs
