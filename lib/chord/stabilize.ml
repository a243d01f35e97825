module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng

let stabilize_succs net addr =
  let node = Network.node net addr in
  match Rtable.successor node.Network.rt with
  | None -> ()
  | Some succ ->
    Network.rpc net ~src:addr ~dst:succ.Peer.addr
      ~make:(fun rid -> Proto.Succs_req { rid; from = node.Network.peer })
      ~on_timeout:(fun () -> Rtable.remove node.Network.rt ~addr:succ.Peer.addr)
      (fun msg ->
        match msg with
        | Proto.Succs_resp { succs; _ } ->
          Rtable.set_succs node.Network.rt (succ :: succs)
        | _ -> ())

let stabilize_preds net addr =
  let node = Network.node net addr in
  match Rtable.predecessor node.Network.rt with
  | None -> ()
  | Some pred ->
    Network.rpc net ~src:addr ~dst:pred.Peer.addr
      ~make:(fun rid -> Proto.Preds_req { rid; from = node.Network.peer })
      ~on_timeout:(fun () -> Rtable.remove node.Network.rt ~addr:pred.Peer.addr)
      (fun msg ->
        match msg with
        | Proto.Preds_resp { preds; _ } ->
          Rtable.set_preds node.Network.rt (pred :: preds)
        | _ -> ())

let stabilize_once net addr =
  stabilize_succs net addr;
  stabilize_preds net addr

let refresh_finger net addr ~index k =
  let node = Network.node net addr in
  let space = Network.space net in
  let ideal =
    Id.ideal_finger space node.Network.peer.Peer.id ~num_fingers:Network.num_fingers index
  in
  Lookup.run net ~from:addr ~key:ideal (fun result ->
      (match result.Lookup.owner with
      | Some owner when owner.Peer.addr <> addr ->
        Rtable.set_finger node.Network.rt index (Some owner)
      | Some _ | None -> ());
      k ())

let start net ?(stabilize_every = 2.0) ?(fingers_every = 30.0) () =
  let engine = Network.engine net in
  let rng = Rng.split (Network.rng net) in
  let n = Network.size net in
  for addr = 0 to n - 1 do
    let phase = Rng.float rng stabilize_every in
    Engine.every engine ~phase ~period:stabilize_every (fun () ->
        if (Network.node net addr).Network.alive then stabilize_once net addr);
    let fphase = Rng.float rng fingers_every in
    let next_finger = ref 0 in
    Engine.every engine ~phase:fphase ~period:fingers_every (fun () ->
        let node = Network.node net addr in
        if node.Network.alive then begin
          let index = !next_finger mod Network.num_fingers in
          next_finger := !next_finger + 1;
          refresh_finger net addr ~index (fun () -> ())
        end)
  done
