module Peer = Octo_chord.Peer
module Id = Octo_chord.Id

let anon_op w node ~target ~query k =
  match Node_state.pick_two node w.World.rng with
  | Some (ab, cd) -> Query.send w node ~path:(Query.Pairs (ab, cd)) ~target ~query k
  | None -> k None

let put w (node : World.node) ~key ~value k =
  Olookup.anonymous w node ~key (fun result ->
      match result.Olookup.owner with
      | None -> k false
      | Some owner ->
        anon_op w node ~target:owner ~query:(Types.Q_put { key; value }) (fun reply ->
            match reply with Some Types.R_stored -> k true | Some _ | None -> k false))

let get w (node : World.node) ~key ?(replica_fallbacks = 2) k =
  Olookup.anonymous w node ~key (fun result ->
      match result.Olookup.owner with
      | None -> k None
      | Some owner ->
        (* The owner first, then the nodes that follow it clockwise in the
           covering table's successor list — the replicas a put would have
           created. *)
        let fallbacks =
          match result.Olookup.final_table with
          | Some st ->
            st.Types.t_succs
            |> List.filter (fun (p : Peer.t) ->
                   (not (Peer.equal p owner))
                   && Id.distance_cw w.World.space owner.Peer.id p.Peer.id > 0)
            |> Peer.sort_cw w.World.space ~from:owner.Peer.id
            |> List.filteri (fun i _ -> i < replica_fallbacks)
          | None -> []
        in
        let rec try_targets = function
          | [] -> k None
          | target :: rest ->
            anon_op w node ~target ~query:(Types.Q_get { key }) (fun reply ->
                match reply with
                | Some (Types.R_value (Some v)) -> k (Some v)
                | Some (Types.R_value None) | Some _ | None -> try_targets rest)
        in
        try_targets (owner :: fallbacks))
