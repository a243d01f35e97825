module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Rtable = Octo_chord.Rtable
module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Series = Octo_sim.Metrics.Series

type opts = { enable_lookups : bool; churn_mean : float option; enable_checks : bool }

let default_opts = { enable_lookups = true; churn_mean = None; enable_checks = true }

(* ------------------------------------------------------------------ *)
(* Stabilization (§4.3: signed lists, proof queue, anti-clockwise too) *)

let stabilize_succs w (node : World.node) =
  match Rtable.successor (World.rt node) with
  | None -> ()
  | Some succ ->
    World.fetch_list w ~src:node.World.addr ~announce:node.World.peer ~kind:Types.Succ_list succ
      ~on_timeout:(fun () -> World.note_timeout w node succ)
      (function
        | World.Valid slist ->
          World.push_proof w node slist;
          (* Under ring repair, hold back entries *strictly closer* than
             the responder: an announce or repair probe may have just
             installed a closer successor learnt elsewhere, and this
             (older, in-flight) response must not wipe it — replacement
             sustains a post-heal deadlock where the re-learnt neighbor
             is discarded every round. Farther entries still follow
             replace semantics so stale identities age out of the list
             instead of being re-merged forever. *)
          let held =
            if w.World.cfg.Config.ring_repair then
              let d p =
                Id.distance_cw w.World.space node.World.peer.Peer.id p.Peer.id
              in
              List.filter (fun p -> d p < d succ) (Rtable.succs (World.rt node))
            else []
          in
          let peers = succ :: slist.Types.l_peers in
          Rtable.set_succs (World.rt node) (match held with [] -> peers | _ -> peers @ held)
        | World.Moved _ ->
          (* The stale entry would otherwise never time out. *)
          Rtable.remove (World.rt node) ~addr:succ.Peer.addr
        | World.Invalid -> ())

let stabilize_preds w (node : World.node) =
  match Rtable.predecessor (World.rt node) with
  | None -> ()
  | Some pred ->
    World.fetch_list w ~src:node.World.addr ~announce:node.World.peer ~kind:Types.Pred_list pred
      ~on_timeout:(fun () -> World.note_timeout w node pred)
      (function
        | World.Valid slist ->
          (* Same hold-back-closer rationale as the successor side, with
             the anti-clockwise distance. *)
          let held =
            if w.World.cfg.Config.ring_repair then
              let d p =
                Id.distance_cw w.World.space p.Peer.id node.World.peer.Peer.id
              in
              List.filter (fun p -> d p < d pred) (Rtable.preds (World.rt node))
            else []
          in
          let peers = pred :: slist.Types.l_peers in
          World.update_preds w node (match held with [] -> peers | _ -> peers @ held)
        | World.Moved _ -> Rtable.remove (World.rt node) ~addr:pred.Peer.addr
        | World.Invalid -> ())

(* Ring repair (post-partition re-convergence): each stabilization round,
   probe one peer previously evicted on timeout. If it answers with a
   verifiable table — i.e. the partition healed or the crash recovered —
   its successors are merged back into the routing table, and normal
   stabilization re-knits the ring from there. Unreachable peers are
   re-remembered under their original loss time, so they age out against
   the gc horizon instead of being probed forever. A newcomer now holding
   the lost peer's address ([Moved]) is as good a way back into the ring. *)
let repair_probe w (node : World.node) =
  match Node_state.take_lost node with
  | None -> ()
  | Some (peer, since) ->
    if World.now w -. since <= Config.gc_horizon && peer.Peer.addr <> node.World.addr
    then
      World.fetch_table w ~src:node.World.addr peer
        ~on_timeout:(fun () -> Node_state.remember_lost node ~at:since peer)
        (function
          | World.Valid table | World.Moved table ->
            Rtable.merge_succs (World.rt node) (table.Types.t_owner :: table.Types.t_succs)
          | World.Invalid -> ())

(* The back-link that pure succ/pred-list exchange lacks: when several
   ring-adjacent nodes recover at once (crash burst, partition heal), a
   node's true successor may be known only to the node's *current*
   successor, as its predecessor. Pulling the successor's predecessor
   list and merging the peers that sit between re-knits such gaps —
   Chord's "ask your successor for its predecessor", generalized to
   signed lists. *)
let repair_pull_preds w (node : World.node) =
  match Rtable.successor (World.rt node) with
  | None -> ()
  | Some succ ->
    World.fetch_list w ~src:node.World.addr ~kind:Types.Pred_list succ
      ~on_timeout:(fun () -> ())
      (function
        | World.Valid slist ->
          Rtable.merge_succs (World.rt node)
            (List.filter
               (fun (p : Peer.t) -> p.Peer.addr <> node.World.addr)
               slist.Types.l_peers)
        | World.Moved _ | World.Invalid -> ())

let stabilize_once w node =
  stabilize_succs w node;
  stabilize_preds w node;
  if w.World.cfg.Config.ring_repair then begin
    repair_probe w node;
    repair_pull_preds w node
  end

(* ------------------------------------------------------------------ *)
(* Secure finger updates (§4.5) *)

let finger_round w (node : World.node) k =
  let rec update index =
    if index >= Config.num_fingers || not node.World.alive then k ()
    else begin
      let ideal =
        Octo_chord.Id.ideal_finger w.World.space node.World.peer.Peer.id
          ~num_fingers:Config.num_fingers index
      in
      Olookup.direct w node ~key:ideal (fun result ->
          match result.Olookup.owner with
          | Some candidate when candidate.Peer.addr <> node.World.addr ->
            Finger_check.vet_finger_update w node ~index ~candidate
              ~evidence_table:result.Olookup.final_table (fun ok ->
                if ok then Rtable.set_finger (World.rt node) index (Some candidate);
                update (index + 1))
          | Some _ | None -> update (index + 1))
    end
  in
  update 0

(* ------------------------------------------------------------------ *)
(* Join protocol for revived nodes *)

let join w (node : World.node) k =
  let bootstrap = World.random_alive w w.World.rng in
  if bootstrap = node.World.addr then k false
  else begin
    Olookup.direct w (World.node w bootstrap) ~key:node.World.peer.Peer.id (fun result ->
        match result.Olookup.owner with
        | Some succ when succ.Peer.addr <> node.World.addr && node.World.alive ->
          World.fetch_list w ~src:node.World.addr ~announce:node.World.peer
            ~kind:Types.Succ_list succ
            ~on_timeout:(fun () -> k false)
            (function
              | World.Valid slist ->
                World.push_proof w node slist;
                Rtable.set_succs (World.rt node) (succ :: slist.Types.l_peers);
                World.fetch_list w ~src:node.World.addr ~kind:Types.Pred_list succ
                  ~on_timeout:(fun () -> k true)
                  (fun verdict ->
                    (match verdict with
                    | World.Valid slist ->
                      World.update_preds w node
                        (List.filter
                           (fun p -> not (Peer.equal p node.World.peer))
                           slist.Types.l_peers)
                    | World.Moved _ | World.Invalid -> ());
                    (* Fill fingers promptly so walks can resume. *)
                    finger_round w node (fun () -> ());
                    k true)
              | World.Moved _ | World.Invalid -> k false)
        | Some _ | None -> k false)
  end

(* The one rejoin ladder (guards documented in the interface). *)
let retry_join w (node : World.node) ?(tries = max_int) ~every k =
  let rec attempt left =
    if node.World.alive && not node.World.revoked then
      join w node (fun ok ->
          if ok then k ()
          else if node.World.alive && left > 1 then
            World.after w ~delay:every (fun () -> attempt (left - 1)))
  in
  attempt tries

(* ------------------------------------------------------------------ *)
(* Churn (Table 2): exponential lifetimes over every slot *)

let churn w ~rng ~mean_lifetime ~rejoin =
  Octo_sim.Churn.start (World.engine w) rng ~mean_lifetime
    ~rejoin_delay:Config.churn_rejoin_delay
    ~addrs:(List.init (World.n_nodes w) Fun.id)
    ~on_leave:(fun addr ->
      let node = World.node w addr in
      if node.World.alive && not node.World.revoked then World.kill w addr)
    ~on_join:(fun addr ->
      let node = World.node w addr in
      if not node.World.revoked then begin
        World.revive w addr;
        rejoin node
      end)
    ()

(* ------------------------------------------------------------------ *)
(* Measured lookup workload (Figure 3b) *)

let do_lookup w (node : World.node) =
  let key = Octo_chord.Id.random w.World.space w.World.rng in
  Olookup.anonymous w node ~key (fun result ->
      let time = World.now w in
      Series.add w.World.metrics.World.lookups ~time 1.0;
      match result.Olookup.owner with
      | Some owner ->
        let truth = World.find_owner w ~key in
        let owner_node = World.node w owner.Peer.addr in
        let biased =
          World.is_active_malicious owner_node
          &&
          match truth with Some t -> not (Peer.equal t owner) | None -> false
        in
        if biased then Series.add w.World.metrics.World.biased ~time 1.0
      | None -> ())

(* ------------------------------------------------------------------ *)
(* State garbage collection *)

let gc w (node : World.node) =
  let horizon = World.now w -. Config.gc_horizon in
  let prune_old table keep =
    (* [Imap.fold] is already key-ordered; collect first, since removal
       mid-walk is forbidden. *)
    let stale =
      Octo_sim.Imap.fold (fun k v acc -> if keep v then acc else k :: acc) table []
    in
    List.iter (Octo_sim.Imap.remove table) stale
  in
  Relay_log.prune node.World.relay_log ~horizon;
  prune_old node.World.receipts (fun (r : Types.receipt) -> r.Types.rc_time >= horizon);
  prune_old node.World.statements (fun stmts ->
      List.exists (fun (s : Types.witness_statement) -> s.Types.ws_time >= horizon) stmts)

(* ------------------------------------------------------------------ *)
(* Assembly *)

let start ?(opts = default_opts) w =
  let cfg = w.World.cfg in
  let engine = w.World.engine in
  let rng = Rng.split w.World.rng in
  let n = World.n_nodes w in
  let active (node : World.node) = node.World.alive && not node.World.revoked in
  (* Surveillance is the table buffer's one reader. *)
  w.World.finger_checks <- opts.enable_checks;
  for addr = 0 to n - 1 do
    let node = World.node w addr in
    let phase period = Rng.float rng period in
    Engine.every engine ~phase:(phase cfg.Config.stabilize_every)
      ~period:cfg.Config.stabilize_every (fun () ->
        if active node then stabilize_once w node);
    Engine.every engine ~phase:(phase cfg.Config.finger_update_every)
      ~period:cfg.Config.finger_update_every (fun () ->
        if active node then finger_round w node (fun () -> ()));
    Engine.every engine ~phase:(phase cfg.Config.random_walk_every)
      ~period:cfg.Config.random_walk_every (fun () ->
        if active node then
          Walk.run w node (function
            | Some pair -> Query.add_pair node pair
            | None -> ()));
    if opts.enable_checks then
      Engine.every engine ~phase:(phase cfg.Config.security_check_every)
        ~period:cfg.Config.security_check_every (fun () ->
          if active node && not node.World.malicious then begin
            Surveillance.check w node;
            Finger_check.surveillance_round w node
          end);
    if opts.enable_lookups then
      Engine.every engine ~phase:(phase cfg.Config.lookup_every)
        ~period:cfg.Config.lookup_every (fun () ->
          if active node && not node.World.malicious then do_lookup w node);
    Engine.every engine ~phase:(phase cfg.Config.gc_every) ~period:cfg.Config.gc_every
      (fun () -> if active node then gc w node)
  done;
  (match opts.churn_mean with
  | Some mean ->
    let rng = Rng.split w.World.rng in
    ignore (churn w ~rng ~mean_lifetime:mean ~rejoin:(fun node -> join w node ignore))
  | None -> ());
  (* Metric sampling for the remaining-malicious-fraction series. *)
  World.sample_metrics w;
  Engine.every engine ~phase:cfg.Config.metrics_sample_every
    ~period:cfg.Config.metrics_sample_every (fun () -> World.sample_metrics w)
