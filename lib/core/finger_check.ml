module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Rtable = Octo_chord.Rtable
module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng

let report w (node : World.node) r =
  World.send w ~src:node.World.addr ~dst:w.World.ca_addr (Types.Report_msg { rid = 0; report = r })

let witnesses_between space ~ideal ~finger (p1_succs : Types.signed_list) =
  let d_finger = Id.distance_cw space ideal finger.Peer.id in
  let closer (z : Peer.t) =
    (not (Peer.equal z finger)) && Id.distance_cw space ideal z.Peer.id < d_finger
  in
  (* P'1 itself counts: if a true predecessor of F' sits at or past the
     ideal id, it is itself evidence that F' is not the ideal's owner. *)
  List.filter closer (p1_succs.Types.l_owner :: p1_succs.Types.l_peers)

let consistency_check w (node : World.node) ~ideal ~finger k =
  (* Step 1: ask F' directly for its signed predecessor list. *)
  World.fetch_list w ~src:node.World.addr ~kind:Types.Pred_list finger
    ~on_timeout:(fun () -> k `Unknown)
    (function
      | World.Valid f_preds -> (
        match f_preds.Types.l_peers with
        | [] -> k `Unknown
        | preds ->
          let p1 = Rng.choose w.World.rng (Array.of_list preds) in
          if p1.Peer.addr = node.World.addr then k `Clean
          else begin
            (* Step 2: after a short random delay, anonymously fetch P'1's
               successor list. *)
            let delay = Rng.float w.World.rng Config.finger_check_max_delay in
            World.after w ~delay (fun () ->
                   if not node.World.alive then k `Unknown
                   else begin
                     match Node_state.pick_two node w.World.rng with
                     | Some (ab, cd) ->
                       Query.fetch_list w node ~path:(Query.Pairs (ab, cd))
                         ~kind:Types.Succ_list p1
                         ~on_lost:(fun () -> k `Unknown)
                         (function
                           | World.Valid p1_succs ->
                             if
                               witnesses_between w.World.space ~ideal ~finger p1_succs <> []
                             then k (`Suspicious (f_preds, p1_succs))
                             else k `Clean
                           | World.Moved _ | World.Invalid -> k `Unknown)
                     | None -> k `Unknown
                   end)
          end)
      | World.Moved _ | World.Invalid -> k `Unknown)

(* Ground truth (metrics only): is this finger a manipulation — a colluder
   placed past honest nodes that should own the ideal id? *)
let is_manipulated w ~ideal ~finger =
  let fnode = World.node w finger.Peer.addr in
  fnode.World.malicious
  &&
  match World.find_owner w ~key:ideal with
  | Some true_owner ->
    (not (Peer.equal true_owner finger))
    && Id.distance_cw w.World.space ideal true_owner.Peer.id
       < Id.distance_cw w.World.space ideal finger.Peer.id
  | None -> false

(* A completed test (a verdict other than [`Unknown]) of a manipulated
   finger, under the attacks finger surveillance targets, is scored. *)
let score w ~ideal ~finger outcome =
  let counted_attack =
    match w.World.attack.World.kind with
    | World.Finger_manip | World.Pollution -> true
    | World.Bias | World.Selective_dos | World.No_attack -> false
  in
  if outcome <> `Unknown && counted_attack && is_manipulated w ~ideal ~finger then
    World.score_attacker_test w (World.node w finger.Peer.addr)

let audit w (node : World.node) ~y_table ~index ~ideal ~finger k =
  consistency_check w node ~ideal ~finger (fun outcome ->
      score w ~ideal ~finger outcome;
      (match outcome with
      | `Suspicious (f_preds, p1_succs) ->
        report w node (Types.R_finger { y_table; index; f_preds; p1_succs })
      | `Clean | `Unknown -> ());
      k outcome)

let surveillance_round w (node : World.node) =
  match node.World.buffered_tables with
  | [] -> ()
  | tables -> (
    let y_table = Rng.choose w.World.rng (Array.of_list tables) in
    if not (Peer.equal y_table.Types.t_owner node.World.peer) then begin
      let indexed =
        List.filteri (fun _ f -> Option.is_some f) y_table.Types.t_fingers
        |> List.length
      in
      if indexed > 0 then begin
        let candidates =
          List.mapi (fun i f -> (i, f)) y_table.Types.t_fingers
          |> List.filter_map (fun (i, f) -> Option.map (fun p -> (i, p)) f)
          |> List.filter (fun (_, p) -> (p : Peer.t).Peer.addr <> node.World.addr)
        in
        match candidates with
        | [] -> ()
        | _ ->
          let index, finger = Rng.choose w.World.rng (Array.of_list candidates) in
          let ideal =
            Id.ideal_finger w.World.space y_table.Types.t_owner.Peer.id
              ~num_fingers:(List.length y_table.Types.t_fingers)
              index
          in
          audit w node ~y_table ~index ~ideal ~finger (fun _ -> ())
      end
    end)

let vet_finger_update w (node : World.node) ~index ~candidate ~evidence_table k =
  let ideal =
    Id.ideal_finger w.World.space node.World.peer.Peer.id ~num_fingers:Config.num_fingers
      index
  in
  let unchanged =
    match Rtable.finger (World.rt node) index with
    | Some cur -> Peer.equal cur candidate
    | None -> false
  in
  (* Steady state is cheap: an unchanged finger is re-vetted only
     occasionally; a changed candidate is always vetted. *)
  if unchanged && not (Rng.coin w.World.rng Config.finger_revet_prob) then k true
  else begin
    consistency_check w node ~ideal ~finger:candidate (fun outcome ->
        score w ~ideal ~finger:candidate outcome;
        match outcome with
        | `Clean -> k true
        | `Suspicious (_f_preds, p1_succs) ->
          (* The culprit is whoever signed the table that named [candidate]
             as the ideal id's owner while omitting the closer nodes the
             witnesses reveal (§4.5 / Figure 2b). *)
          (match
             ( evidence_table,
               witnesses_between w.World.space ~ideal ~finger:candidate p1_succs )
           with
          | Some table, z :: _ ->
            report w node
              (Types.R_table_omission { reporter = node.World.peer; missing = z; table })
          | _ -> ());
          k false
        | `Unknown -> k false)
  end
