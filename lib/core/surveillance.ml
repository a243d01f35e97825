module Peer = Octo_chord.Peer
module Rtable = Octo_chord.Rtable
module Rng = Octo_sim.Rng
module Trace = Octo_sim.Trace

let verdict_trace w (node : World.node) ~target verdict =
  if Trace.on () then
    Trace.emit ~time:(World.now w) ~node:node.World.addr
      (Trace.Surveillance { target; verdict })

let report w (node : World.node) report =
  World.send w ~src:node.World.addr ~dst:w.World.ca_addr (Types.Report_msg { rid = 0; report })

let test_pred w (node : World.node) (p : Peer.t) k =
  match Node_state.pick_two node w.World.rng with
  | Some (ab, cd) ->
    Query.fetch_list w node ~path:(Query.Pairs (ab, cd)) ~kind:Types.Succ_list p
      ~on_lost:(fun () -> k None)
      (function
        | World.Valid sl ->
          (* We are one of P's [list_size] closest successors, so an honest
             P's list must contain us. *)
          let contains_me =
            List.exists (fun q -> Peer.equal q node.World.peer) sl.Types.l_peers
          in
          k (Some (sl, contains_me))
        | World.Moved _ | World.Invalid -> k None)
  | None -> k None

let check w (node : World.node) =
  let old_enough (p : Peer.t) =
    match World.pred_known_since node p with
    | Some since -> World.now w -. since >= Config.pred_age_before_report
    | None -> false
  in
  match List.filter old_enough (Rtable.preds (World.rt node)) with
  | [] -> ()
  | eligible ->
    let p = Rng.choose w.World.rng (Array.of_list eligible) in
    let target_node = World.node w p.Peer.addr in
    test_pred w node p (fun first ->
        (* Count the test only when it actually completed (the paper's FN
           denominator is tests performed, not tests attempted while the
           relay pool was dry). *)
        let counted_attack =
          match w.World.attack.World.kind with
          | World.Bias | World.Selective_dos | World.No_attack -> true
          | World.Finger_manip | World.Pollution -> false
        in
        if first <> None && counted_attack && World.is_active_malicious target_node then
          World.score_attacker_test w target_node;
        match first with
        | Some (_, false) when node.World.alive ->
          (* Omission detected. A transient drop (e.g. a timed-out RPC
             evicting us) self-heals within a stabilization round, so
             re-test once before filing: only persistent omission is
             reported. *)
          verdict_trace w node ~target:p.Peer.addr "retest";
          World.after w ~delay:Config.surveillance_retest_delay
            (fun () ->
                 if node.World.alive then
                   test_pred w node p (fun second ->
                       match second with
                       | Some (sl, false) when node.World.alive ->
                         verdict_trace w node ~target:p.Peer.addr "reported";
                         report w node
                           (Types.R_neighbor
                              {
                                reporter = node.World.peer;
                                missing = node.World.peer;
                                claimed = sl;
                              })
                       | Some _ | None -> ()))
        | Some (_, true) -> verdict_trace w node ~target:p.Peer.addr "clean"
        | Some _ | None -> ())
