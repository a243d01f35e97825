module Engine = Octo_sim.Engine
module Net = Octo_sim.Net
module Rng = Octo_sim.Rng
module Rpc = Octo_sim.Rpc

let bits = 40
let num_fingers = 12
let list_size = 6
let rpc_timeout = 1.5

type node = {
  peer : Peer.t;
  rt : Rtable.t;
  mutable alive : bool;
}

type t = {
  engine : Engine.t;
  net : Proto.msg Net.t;
  space : Id.space;
  nodes : node array;
  rpc : Proto.msg Rpc.t;
  rng : Rng.t;
}

let engine t = t.engine
let net t = t.net
let space t = t.space
let rng t = t.rng
let size t = Array.length t.nodes
let node t addr = t.nodes.(addr)

let random_alive t rng =
  let n = Array.length t.nodes in
  let rec pick attempts =
    if attempts > 20 * n then invalid_arg "random_alive: no alive node"
    else begin
      let addr = Rng.int rng n in
      if t.nodes.(addr).alive then addr else pick (attempts + 1)
    end
  in
  pick 0

let snapshot t addr =
  let node = t.nodes.(addr) in
  {
    Proto.owner = node.peer;
    fingers = List.init (Rtable.num_fingers node.rt) (Rtable.finger node.rt);
    succs = Rtable.succs node.rt;
    sent_at = Engine.now t.engine;
  }

let send t ~src ~dst msg = Net.send t.net ~src ~dst ~size:(Proto.size msg) msg

let handle t addr (env : Proto.msg Net.envelope) =
  let node = t.nodes.(addr) in
  (* Copy the sender out of the pooled envelope before building closures. *)
  let src = env.Net.src in
  let reply msg = send t ~src:addr ~dst:src msg in
  match env.Net.payload with
  | Proto.Table_req { rid } -> reply (Proto.Table_resp { rid; table = snapshot t addr })
  | Proto.Succs_req { rid; from } ->
    (* The requester announces itself: it believes we are its successor, so
       it belongs in our predecessor list (Chord's notify). *)
    Rtable.merge_preds node.rt [ from ];
    reply (Proto.Succs_resp { rid; succs = Rtable.succs node.rt })
  | Proto.Preds_req { rid; from } ->
    Rtable.merge_succs node.rt [ from ];
    reply (Proto.Preds_resp { rid; preds = Rtable.preds node.rt })
  | (Proto.Table_resp _ | Proto.Succs_resp _ | Proto.Preds_resp _) as resp ->
    ignore (Rpc.resolve t.rpc (Proto.rid resp) resp)

let bootstrap t =
  (* Global-knowledge initial topology: exact successor/predecessor lists
     and fingers, as in standard DHT simulation practice. *)
  let n = Array.length t.nodes in
  let sorted = Array.map (fun node -> node.peer) t.nodes in
  Array.sort (fun a b -> Int.compare a.Peer.id b.Peer.id) sorted;
  (* octolint: allow compact-node-state — bootstrap-time scratch index
     over the whole population, dropped after construction *)
  let index_of = Hashtbl.create n in
  Array.iteri (fun i p -> Hashtbl.replace index_of p.Peer.id i) sorted;
  let successor_of_key key =
    (* Binary search: first sorted id >= key, wrapping. *)
    let lo = ref 0 and hi = ref (n - 1) and res = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid).Peer.id >= key then begin
        res := Some mid;
        hi := mid - 1
      end
      else lo := mid + 1
    done;
    match !res with Some i -> sorted.(i) | None -> sorted.(0)
  in
  Array.iter
    (fun node ->
      let my_index = Hashtbl.find index_of node.peer.Peer.id in
      let rt = node.rt in
      let k = list_size in
      let succs = List.init k (fun j -> sorted.((my_index + j + 1) mod n)) in
      let preds = List.init k (fun j -> sorted.((my_index - j - 1 + n) mod n)) in
      Rtable.set_succs rt succs;
      Rtable.set_preds rt preds;
      for i = 0 to num_fingers - 1 do
        let ideal = Id.ideal_finger t.space node.peer.Peer.id ~num_fingers i in
        Rtable.set_finger rt i (Some (successor_of_key ideal))
      done)
    t.nodes

let create engine latency ~n =
  assert (n <= Octo_sim.Latency.n latency);
  let space = Id.space ~bits in
  let rng = Rng.split (Engine.rng engine) in
  let net = Net.create engine latency in
  (* octolint: allow compact-node-state — construction-time scratch: the
     ids drawn so far, dropped once every node has a distinct one *)
  let used_ids = Hashtbl.create n in
  let rec fresh_id () =
    let id = Id.random space rng in
    if Hashtbl.mem used_ids id then fresh_id ()
    else begin
      Hashtbl.add used_ids id ();
      id
    end
  in
  let nodes =
    Array.init n (fun addr ->
        let peer = Peer.make ~id:(fresh_id ()) ~addr in
        { peer; rt = Rtable.create space ~owner:peer ~num_fingers ~list_size; alive = true })
  in
  let t = { engine; net; space; nodes; rpc = Rpc.create engine ~rng (); rng } in
  bootstrap t;
  Array.iteri (fun addr _ -> Net.register net addr (handle t addr)) t.nodes;
  t

let kill t addr =
  let node = t.nodes.(addr) in
  node.alive <- false;
  Net.set_alive t.net addr false

let find_owner t ~key =
  let best = ref None in
  Array.iter
    (fun node ->
      if node.alive then begin
        let d = Id.distance_cw t.space key node.peer.Peer.id in
        match !best with
        | None -> best := Some (node.peer, d)
        | Some (_, bd) -> if d < bd then best := Some (node.peer, d)
      end)
    t.nodes;
  Option.map fst !best

let policy = Rpc.policy ~timeout:rpc_timeout ()

let rpc t ~src ~dst ~make ~on_timeout k =
  ignore
    (Rpc.call t.rpc ~src ~dst ~policy
       ~send:(fun rid -> send t ~src ~dst (make rid))
       ~on_give_up:on_timeout k)
