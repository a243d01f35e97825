type t = { id : int; addr : int }

let make ~id ~addr = { id; addr }
let equal a b = a.id = b.id && a.addr = b.addr
let compare a b =
  let c = Int.compare a.id b.id in
  if c <> 0 then c else Int.compare a.addr b.addr

(* Keeps the first of each run of equal ids. Both callers sort by
   distance from one point, which is one-to-one on ring ids, so equal ids
   are adjacent, and the stable sort keeps their input order. *)
let dedupe_by_id peers =
  let rec drop prev = function
    | [] -> []
    | p :: rest -> if p.id = prev then drop prev rest else p :: drop p.id rest
  in
  match peers with [] -> [] | p :: rest -> p :: drop p.id rest

let sort_cw space ~from peers =
  dedupe_by_id
    (List.sort
       (fun a b -> Int.compare (Id.distance_cw space from a.id) (Id.distance_cw space from b.id))
       peers)

let sort_ccw space ~from peers =
  dedupe_by_id
    (List.sort
       (fun a b -> Int.compare (Id.distance_cw space a.id from) (Id.distance_cw space b.id from))
       peers)
