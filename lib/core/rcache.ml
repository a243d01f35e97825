module Peer = Octo_chord.Peer

type entry = { owner : Peer.t; expires : float }

type t = {
  ttl : float;
  cap : int;
  table : (int * int, entry) Hashtbl.t; (* (node addr, key) -> entry *)
  mutable hits : int;
  mutable misses : int;
  mutable expired : int;
  mutable stores : int;
  mutable flushes : int;
}

let create ~ttl ~cap =
  {
    ttl;
    cap;
    (* octolint: allow compact-node-state — one capacity-bounded cache per
       deployment (cap enforced on insert), not unbounded per-node state *)
    table = Hashtbl.create 256;
    hits = 0;
    misses = 0;
    expired = 0;
    stores = 0;
    flushes = 0;
  }

let pair_compare (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let find t ~now ~node ~key =
  match Hashtbl.find_opt t.table (node, key) with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some e ->
    (* Strict expiry: an entry is servable only strictly before its
       expiry instant, so a hit exactly [ttl] after the store misses. *)
    if now < e.expires then begin
      t.hits <- t.hits + 1;
      Some e.owner
    end
    else begin
      Hashtbl.remove t.table (node, key);
      t.expired <- t.expired + 1;
      t.misses <- t.misses + 1;
      None
    end

let store t ~now ~node ~key owner =
  (* Bounded memory: on overflow, reset rather than evict -- the cache is
     a pure optimisation and correctness never depends on its contents. *)
  if t.cap > 0 && Hashtbl.length t.table >= t.cap then Hashtbl.reset t.table;
  Hashtbl.replace t.table (node, key) { owner; expires = now +. t.ttl };
  t.stores <- t.stores + 1

let flush t =
  Hashtbl.reset t.table;
  t.flushes <- t.flushes + 1

let size t = Hashtbl.length t.table

let holders t ~now ~key =
  Octo_sim.Tbl.fold_sorted ~cmp:pair_compare
    (fun (_node, k) e acc -> if k = key && now < e.expires then acc + 1 else acc)
    t.table 0

let hits t = t.hits
let misses t = t.misses
let expired t = t.expired
let stores t = t.stores
let flushes t = t.flushes
