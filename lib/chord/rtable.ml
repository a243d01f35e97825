type t = {
  space : Id.space;
  owner : Peer.t;
  fingers : Peer.t option array;
  mutable finger_list : Peer.t option list;
      (* [fingers] as a list, shared by every caller until a finger
         changes; [[]] while stale *)
  mutable succs : Peer.t list;
  mutable preds : Peer.t list;
  list_size : int;
}

let create space ~owner ~num_fingers ~list_size =
  {
    space;
    owner;
    fingers = Array.make num_fingers None;
    finger_list = [];
    succs = [];
    preds = [];
    list_size;
  }

let space t = t.space
let owner t = t.owner
let num_fingers t = Array.length t.fingers
let finger t i = t.fingers.(i)

let set_finger t i peer =
  if not (Option.equal Peer.equal t.fingers.(i) peer) then begin
    t.fingers.(i) <- peer;
    t.finger_list <- []
  end

let finger_list t =
  match t.finger_list with
  | [] ->
    let l = Array.to_list t.fingers in
    t.finger_list <- l;
    l
  | l -> l

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

(* Normalizing a list drops the owner, orders by distance from the owner,
   keeps the first of each id and truncates to [list_size]. Stabilization
   re-sets the same neighbors every round, so before building anything
   [keeps] decides, by selection over the input, whether the result would
   equal the stored list; only a list that differs is built. Keeping the
   stored list also spares the signed lists that quote it a copy, and
   lists are compared structurally everywhere, so sharing is invisible.

   Distances from the owner are one-to-one on ids, and the owner's own id
   is at distance 0, so the k-th entry of the result is the first input
   peer at the smallest distance above the (k-1)-th's (above 0 for the
   first). These helpers take every value as an argument, so a check
   allocates nothing. *)
let dist t ~cw (p : Peer.t) =
  if cw then Id.distance_cw t.space t.owner.Peer.id p.Peer.id
  else Id.distance_cw t.space p.Peer.id t.owner.Peer.id

(* The first of [peers] at the smallest distance above [above], or [best]
   when every peer is at [above] or closer. *)
let rec nearest t ~cw ~above best best_d = function
  | [] -> best
  | p :: rest ->
    let d = dist t ~cw p in
    if d > above && d < best_d then nearest t ~cw ~above p d rest
    else nearest t ~cw ~above best best_d rest

(* Whether normalizing [peers] gives [stored], with [room] entries left
   to fill after the ones at distance [above] or closer. The owner stands
   for "no peer left": it never matches a stored entry. *)
let rec keeps t ~cw stored peers ~above ~room =
  match stored with
  | [] -> room = 0 || nearest t ~cw ~above t.owner max_int peers == t.owner
  | s :: rest ->
    room > 0
    &&
    let next = nearest t ~cw ~above t.owner max_int peers in
    next != t.owner && Peer.equal next s
    && keeps t ~cw rest peers ~above:(dist t ~cw next) ~room:(room - 1)

let normalize t ~cw peers =
  let peers = List.filter (not_self t) peers in
  truncate t.list_size
    (if cw then Peer.sort_cw t.space ~from:t.owner.Peer.id peers
     else Peer.sort_ccw t.space ~from:t.owner.Peer.id peers)

let set_succs t peers =
  if not (keeps t ~cw:true t.succs peers ~above:0 ~room:t.list_size) then
    t.succs <- normalize t ~cw:true peers

let set_preds t peers =
  if not (keeps t ~cw:false t.preds peers ~above:0 ~room:t.list_size) then
    t.preds <- normalize t ~cw:false peers

let merge_succs t peers = set_succs t (t.succs @ peers)
let merge_preds t peers = set_preds t (t.preds @ peers)

let remove t ~addr =
  let keep p = p.Peer.addr <> addr in
  (* Most nodes do not list the removed peer; keep their lists too. *)
  let drop l = if List.for_all keep l then l else List.filter keep l in
  Array.iteri
    (fun i f ->
      match f with
      | Some p when not (keep p) ->
        t.fingers.(i) <- None;
        t.finger_list <- []
      | _ -> ())
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
