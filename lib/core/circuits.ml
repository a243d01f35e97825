module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Onion = Octo_crypto.Onion
module Trace = Octo_sim.Trace

type t = {
  relays : Peer.t list;
  sessions : World.relay list;
  built_at : float;
}

let anon_establish w node ~target k =
  match Query.pick_pairs w node ~n:2 with
  | [ ab; cd ] ->
    let sid = World.fresh_sid w in
    let key = Onion.gen_key w.World.rng in
    Query.send w node ~relays:(Query.path_relays ab cd) ~target
      ~query:(Types.Q_establish { sid; key })
      (fun reply ->
        match reply with
        | Some Types.R_ok -> k (Some { World.r_peer = target; r_sid = sid; r_key = key })
        | Some _ | None -> k None)
  | _ -> k None

let build w (node : World.node) ?(hops = 3) k =
  let torn reason =
    if Trace.on () then
      Trace.emit ~time:(World.now w) ~node:node.World.addr (Trace.Circuit_torn { reason });
    k None
  in
  let rec select chosen attempts =
    if List.length chosen = hops then establish (List.rev chosen) []
    else if attempts > 5 * hops then torn "select-exhausted"
    else begin
      let key = Id.random w.World.space w.World.rng in
      Olookup.anonymous w node ~key (fun result ->
          match result.Olookup.owner with
          | Some relay
            when relay.Peer.addr <> node.World.addr
                 && not (List.exists (Peer.equal relay) chosen) ->
            select (relay :: chosen) (attempts + 1)
          | Some _ | None -> select chosen (attempts + 1))
    end
  and establish relays sessions_rev =
    match relays with
    | [] ->
      let sessions = List.rev sessions_rev in
      let relays = List.map (fun s -> s.World.r_peer) sessions in
      if Trace.on () then
        Trace.emit ~time:(World.now w) ~node:node.World.addr
          (Trace.Circuit_built { relays = List.map (fun p -> p.Peer.addr) relays });
      k (Some { relays; sessions; built_at = World.now w })
    | relay :: rest ->
      anon_establish w node ~target:relay (fun session ->
          match session with
          | Some s ->
            if Trace.on () then
              Trace.emit ~time:(World.now w) ~node:node.World.addr
                (Trace.Circuit_relay { relay = relay.Peer.addr });
            establish rest (s :: sessions_rev)
          | None -> torn "establish-failed")
  in
  select [] 0

let send w (node : World.node) circuit ~payload k =
  match List.rev circuit.sessions with
  | [] -> k None
  | exit :: _ ->
    (* All sessions but the exit are forwarding hops; the exit receives the
       echo query directly from the penultimate relay. *)
    let hops = List.filter (fun s -> not (s == exit)) circuit.sessions in
    Query.send w node ~relays:hops ~target:exit.World.r_peer
      ~query:(Types.Q_echo payload)
      (fun reply ->
        match reply with
        | Some (Types.R_echo echoed) when Bytes.equal echoed payload -> k (Some echoed)
        | Some _ | None -> k None)
