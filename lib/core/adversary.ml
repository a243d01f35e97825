module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Rng = Octo_sim.Rng

let attacks_now (w : World.t) node =
  World.is_active_malicious node
  && w.World.attack.World.kind <> World.No_attack
  && Rng.coin w.World.rng w.World.attack.World.rate

let covers_now (w : World.t) node =
  World.is_active_malicious node && Rng.coin w.World.rng w.World.attack.World.consistency

(* Colluders sorted clockwise from [from], excluding [self]. *)
let colluders_cw (w : World.t) ~from ~self =
  World.colluders w
  |> List.filter_map (fun (n : World.node) ->
         if n.World.addr = self then None else Some n.World.peer)
  |> Peer.sort_cw w.World.space ~from

let biased_succs (w : World.t) (node : World.node) =
  let rec take n = function [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r in
  take Config.list_size
    (colluders_cw w ~from:node.World.peer.Peer.id ~self:node.World.addr)

let nearest_colluder_cw (w : World.t) ~from ~self =
  match colluders_cw w ~from ~self with [] -> None | c :: _ -> Some c

let manipulated_fingers (w : World.t) (node : World.node) =
  let rt = (World.rt node) in
  let num_fingers = Octo_chord.Rtable.num_fingers rt in
  List.init num_fingers (fun i ->
      let honest = Octo_chord.Rtable.finger rt i in
      if Rng.coin w.World.rng 0.5 then begin
        let ideal =
          Id.ideal_finger w.World.space node.World.peer.Peer.id ~num_fingers i
        in
        match nearest_colluder_cw w ~from:ideal ~self:node.World.addr with
        | Some c -> Some c
        | None -> honest
      end
      else honest)

let fake_preds (w : World.t) (node : World.node) =
  let rec take n = function [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r in
  let ccw =
    World.colluders w
    |> List.filter_map (fun (n : World.node) ->
           if n.World.addr = node.World.addr then None else Some n.World.peer)
    |> Peer.sort_ccw w.World.space ~from:node.World.peer.Peer.id
  in
  take Config.list_size ccw

let fabricated_justification (w : World.t) ~claimed_succ =
  let n = World.node w claimed_succ.Peer.addr in
  if
    n.World.malicious && (not n.World.revoked)
    && Peer.equal n.World.peer claimed_succ
  then Some n
  else None

let forge_list (w : World.t) (colluder : World.node) kind peers ~at =
  let sl = World.sign_list w colluder kind peers in
  { sl with Types.l_time = at; l_memo = None }

let serve_table (w : World.t) (node : World.node) =
  let honest_fingers () =
    List.init (Octo_chord.Rtable.num_fingers (World.rt node))
      (Octo_chord.Rtable.finger (World.rt node))
  in
  match w.World.attack.World.kind with
  | (World.Bias | World.Pollution) when attacks_now w node ->
    World.sign_table w node ~fingers:(honest_fingers ()) ~succs:(biased_succs w node)
  | World.Finger_manip when attacks_now w node ->
    World.sign_table w node ~fingers:(manipulated_fingers w node)
      ~succs:(Octo_chord.Rtable.succs (World.rt node))
  | World.No_attack | World.Bias | World.Pollution | World.Finger_manip
  | World.Selective_dos -> World.honest_table w node

let serve_list (w : World.t) (node : World.node) kind =
  match (kind, w.World.attack.World.kind) with
  | Types.Succ_list, (World.Bias | World.Pollution) when attacks_now w node ->
    World.sign_list w node Types.Succ_list (biased_succs w node)
  | Types.Succ_list, World.Finger_manip when covers_now w node ->
    (* A colluding predecessor covering for manipulated fingers: serve a
       successor list without the honest nodes that would expose them. *)
    World.sign_list w node Types.Succ_list (biased_succs w node)
  | Types.Pred_list, World.Finger_manip when covers_now w node ->
    World.sign_list w node Types.Pred_list (fake_preds w node)
  | Types.Pred_list, World.Pollution when covers_now w node ->
    World.sign_list w node Types.Pred_list (fake_preds w node)
  | (Types.Succ_list | Types.Pred_list), _ -> World.honest_list w node kind

let drops_fwd (w : World.t) node =
  w.World.attack.World.kind = World.Selective_dos && attacks_now w node
