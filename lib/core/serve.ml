module Peer = Octo_chord.Peer
module Rtable = Octo_chord.Rtable
module Net = Octo_sim.Net
module Imap = Octo_sim.Imap
module Onion = Octo_crypto.Onion
module Sha256 = Octo_crypto.Sha256

let phase2_index ~seed ~step ~count =
  assert (count > 0);
  let digest = Sha256.digest_string (Printf.sprintf "phase2:%d:%d" seed step) in
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code (Bytes.get digest i)
  done;
  !v mod count

let table_entries (st : Types.signed_table) =
  let seen = Imap.create () in
  let keep p =
    if Imap.mem seen p.Peer.id then false
    else begin
      Imap.set seen p.Peer.id ();
      true
    end
  in
  List.filter keep (List.filter_map (fun f -> f) st.Types.t_fingers @ st.Types.t_succs)

(* ------------------------------------------------------------------ *)
(* Receipts and the witness protocol (Appendix II) *)

let send_receipt w (node : World.node) ~dst ~cid =
  if w.World.cfg.Config.dos_defense then begin
    let receipt = World.sign_receipt w node ~cid in
    World.send w ~src:node.World.addr ~dst (Types.Receipt_msg { cid; receipt })
  end

let record_statement (node : World.node) cid stmt =
  let cur = Option.value ~default:[] (Imap.find_opt node.World.statements cid) in
  Imap.set node.World.statements cid (stmt :: cur)

let arm_receipt_watch w (node : World.node) ~cid ~next ~fwd =
  let cfg = w.World.cfg in
  if cfg.Config.dos_defense then
    World.after w ~delay:Config.receipt_wait (fun () ->
           if
             node.World.alive
             && (not (Imap.mem node.World.receipts cid))
             && not node.World.malicious
           then begin
             (* No receipt: ask up to two witnesses (our closest successors)
                to re-deliver and either collect a receipt or sign a failure
                statement. *)
             let take2 = function a :: b :: _ -> [ a; b ] | l -> l in
             (* Successors and predecessors, per the paper's witness set. *)
             let witnesses =
               take2 (Rtable.succs (World.rt node)) @ take2 (Rtable.preds (World.rt node))
             in
             List.iter
               (fun (witness : Peer.t) ->
                 World.rpc w ~src:node.World.addr ~dst:witness.Peer.addr
                   ~timeout:((2.0 *. Config.receipt_wait) +. Config.witness_timeout_slack)
                   ~make:(fun rid -> Types.Witness_req { rid; cid; target = next; fwd })
                   ~on_timeout:(fun () -> ())
                   (fun msg ->
                     match msg with
                     | Types.Witness_resp { outcome = Either.Left receipt; _ } ->
                       if World.verify_receipt w receipt then
                         Imap.set node.World.receipts cid receipt
                     | Types.Witness_resp { outcome = Either.Right stmt; _ } ->
                       if World.verify_statement w stmt then record_statement node cid stmt
                     | _ -> ()))
               witnesses
           end)

(* ------------------------------------------------------------------ *)
(* Anonymous query handling at the final recipient *)

let handle_anon_query w (node : World.node) query k =
  match query with
  | Types.Q_table { session } ->
    Option.iter
      (fun (sid, key) -> Imap.set node.World.sessions sid key)
      session;
    k (Some (Types.R_table (Adversary.serve_table w node)))
  | Types.Q_list kind -> k (Some (Types.R_list (Adversary.serve_list w node kind)))
  | Types.Q_establish { sid; key } ->
    Imap.set node.World.sessions sid key;
    k (Some Types.R_ok)
  | Types.Q_put { key; value } ->
    Imap.set node.World.storage key value;
    (* Replicate to the closest successors so churn does not lose it. *)
    let replicas =
      match Rtable.succs (World.rt node) with a :: b :: _ -> [ a; b ] | l -> l
    in
    List.iter
      (fun (s : Peer.t) ->
        World.rpc w ~src:node.World.addr ~dst:s.Peer.addr
          ~make:(fun rid -> Types.Replicate { rid; key; value })
          ~on_timeout:(fun () -> ())
          (fun _ -> ()))
      replicas;
    k (Some Types.R_stored)
  | Types.Q_get { key } -> k (Some (Types.R_value (Imap.find_opt node.World.storage key)))
  | Types.Q_echo payload -> k (Some (Types.R_echo payload))
  | Types.Q_phase2 { length; _ } when length <> Config.walk_length ->
    (* Only the length {!Walk} asks for is answered: any other gets no
       reply and costs no table RPC, so a query cannot make a node walk
       without bound. *)
    k None
  | Types.Q_phase2 { seed; length } ->
    (* Appendix I second phase: walk [length] hops, selecting each next hop
       from the previous table with the seed-derived index, and return every
       signed table (our own current one first) for the initiator to audit. *)
    let own = World.honest_table w node in
    let rec step i (current : Types.signed_table) acc =
      if i >= length then k (Some (Types.R_phase2 (List.rev acc)))
      else begin
        match table_entries current with
        | [] -> k (Some (Types.R_phase2 (List.rev acc)))
        | entries ->
          let pick = List.nth entries (phase2_index ~seed ~step:i ~count:(List.length entries)) in
          World.rpc w ~src:node.World.addr ~dst:pick.Peer.addr
            ~make:(fun rid ->
              Types.Anon_req { rid; query = Types.Q_table { session = None } })
            ~on_timeout:(fun () -> k (Some (Types.R_phase2 (List.rev acc))))
            (fun msg ->
              match msg with
              | Types.Anon_resp { reply = Types.R_table st; _ } -> step (i + 1) st (st :: acc)
              | _ -> k (Some (Types.R_phase2 (List.rev acc))))
      end
    in
    step 0 own [ own ]

(* ------------------------------------------------------------------ *)
(* Onion relaying *)

let send_reply w (node : World.node) ~cid reply =
  let hop = Relay_log.reply_hop node.World.relay_log cid in
  if hop >= 0 then
    match Imap.find_opt node.World.sessions (Relay_log.sid hop) with
    | None -> ()
    | Some key ->
      let digest = Types.reply_digest ~cid reply in
      let capsule = Onion.add_layer ~rng:w.World.rng ~key digest in
      World.send w ~src:node.World.addr ~dst:(Relay_log.prev hop)
        (Types.Fwd_reply { cid; reply; capsule })

let exit_deliver w (node : World.node) ~cid ~target ~query ~deadline ~capsule =
  (* End-to-end integrity: the fully peeled capsule must match the query
     digest the initiator sealed in. *)
  if Bytes.equal capsule (Types.query_digest ~target ~cid query) then begin
    let timeout = Float.max Config.exit_min_timeout (deadline -. World.now w) in
    World.rpc w ~src:node.World.addr ~dst:target.Peer.addr ~timeout
      ~make:(fun rid -> Types.Anon_req { rid; query })
      ~on_timeout:(fun () -> send_reply w node ~cid None)
      (fun msg ->
        match msg with
        | Types.Anon_resp { reply; _ } -> send_reply w node ~cid (Some reply)
        | _ -> send_reply w node ~cid None)
  end

(* [prev] is copied out of the envelope by the caller: [proceed] may run
   after the envelope has been recycled. *)
let handle_fwd w (node : World.node) ~prev ~cid ~sid ~delay ~hops
    ~target ~query ~deadline ~capsule =
  let first_delivery = Relay_log.receive node.World.relay_log ~cid ~now:(World.now w) in
  if Adversary.drops_fwd w node then ()
  else begin
    send_receipt w node ~dst:prev ~cid;
    if first_delivery then begin
      match Imap.find_opt node.World.sessions sid with
      | None -> ()
      | Some key ->
        (match Onion.peel ~key capsule with
        | None -> ()
        | Some peeled ->
          let proceed () =
            if node.World.alive then begin
              Relay_log.route node.World.relay_log ~cid ~prev ~sid ~now:(World.now w);
              match hops with
              | (next_addr, next_sid, next_delay) :: rest ->
                let fwd =
                  Types.Fwd
                    {
                      cid;
                      sid = next_sid;
                      delay = next_delay;
                      hops = rest;
                      target;
                      query;
                      deadline;
                      capsule = peeled;
                    }
                in
                World.send w ~src:node.World.addr ~dst:next_addr fwd;
                arm_receipt_watch w node ~cid ~next:(World.node w next_addr).World.peer ~fwd
              | [] -> exit_deliver w node ~cid ~target ~query ~deadline ~capsule:peeled
            end
          in
          if delay > 0.0 then World.after w ~delay proceed else proceed ())
    end
  end

let handle_fwd_reply w (node : World.node) ~cid ~reply ~capsule =
  (* The cid is the initiator's rid in the shared RPC table: if we are
     that caller, the reply resolves the call (Query's continuation peels
     and validates the capsule). Otherwise we are a relay on the back
     route — or the entry is gone (duplicate or late reply), which falls
     through to the same branch and dies there. *)
  match World.rpc_caller w cid with
  | Some initiator when initiator = node.World.addr ->
    ignore (World.resolve w cid (Types.Fwd_reply { cid; reply; capsule }))
  | Some _ | None -> (
    let hop = Relay_log.reply_hop node.World.relay_log cid in
    if hop >= 0 then
      match Imap.find_opt node.World.sessions (Relay_log.sid hop) with
      | None -> ()
      | Some key ->
        if not (Adversary.drops_fwd w node) then begin
          let capsule = Onion.add_layer ~rng:w.World.rng ~key capsule in
          World.send w ~src:node.World.addr ~dst:(Relay_log.prev hop)
            (Types.Fwd_reply { cid; reply; capsule })
        end)

(* ------------------------------------------------------------------ *)
(* CA investigation requests *)

let handle_justify w (node : World.node) ~missing ~source ~provenance ~before =
  if World.is_active_malicious node then begin
    (* Colluders fabricate signed inputs on demand, but only with colluder
       keys; they cannot forge honest evidence. The fabricated lists follow
       the attack (colluders only, omitting the missing node). *)
    let at = Float.min before (World.now w) in
    let fabricate (colluder : World.node) extra =
      let peers =
        Peer.sort_cw w.World.space ~from:colluder.World.peer.Peer.id
          (List.filter
             (fun p -> not (Peer.equal p missing))
             (extra @ Adversary.biased_succs w colluder))
      in
      Some (Adversary.forge_list w colluder Types.Succ_list peers ~at)
    in
    if not provenance then
      match Adversary.fabricated_justification w ~claimed_succ:source with
      | Some colluder -> fabricate colluder []
      | None -> None
    else begin
      (* Introduce [source] from a colluder preceding it, if one exists. *)
      let preceding =
        World.colluders w
        |> List.filter_map (fun (n : World.node) ->
               if
                 n.World.addr <> node.World.addr
                 && (not (Peer.equal n.World.peer source))
                 && Octo_chord.Id.between_open w.World.space n.World.peer.Peer.id
                      ~lo:node.World.peer.Peer.id ~hi:source.Peer.id
               then Some n
               else None)
      in
      match preceding with
      | colluder :: _ -> fabricate colluder [ source ]
      | [] -> (
        (* Last resort: a fabricated announcement "signed" by [source]. *)
        match Adversary.fabricated_justification w ~claimed_succ:source with
        | Some src_node ->
          Some
            (Adversary.forge_list w src_node Types.Pred_list (Adversary.fake_preds w src_node)
               ~at)
        | None -> None)
    end
  end
  else begin
    (* A claimed list can only derive from inputs that had *arrived* by
       the time it was signed. *)
    let usable ((at, _) : float * Types.signed_list) = at <= before in
    let doc = snd in
    let proofs = Node_state.proof_list node in
    if not provenance then
      Option.map doc
        (List.find_opt
           (fun e -> usable e && Peer.equal (doc e).Types.l_owner source)
           proofs)
    else begin
      let from_heads =
        List.find_opt
          (fun e -> usable e && List.exists (Peer.equal source) (doc e).Types.l_peers)
          proofs
      in
      match from_heads with
      | Some e -> Some (doc e)
      | None ->
        Option.map doc
          (List.find_opt
             (fun e ->
               usable e
               && (Peer.equal (doc e).Types.l_owner source
                  || List.exists (Peer.equal source) (doc e).Types.l_peers))
             node.World.intro_proofs)
    end
  end

let handle_proofs w (node : World.node) =
  if World.is_active_malicious node && Adversary.covers_now w node then begin
    (* Fabricate a backdated covering proof from the nearest colluder. *)
    match Adversary.biased_succs w node with
    | [] -> []
    | first :: _ as cover -> (
      match Adversary.fabricated_justification w ~claimed_succ:first with
      | Some colluder ->
        [
          Adversary.forge_list w colluder Types.Succ_list cover
            ~at:(World.now w -. Config.adversary_backdate);
        ]
      | None -> [])
  end
  else List.map snd (Node_state.proof_list node)

let handle_evidence (node : World.node) ~cid =
  if World.is_active_malicious node then
    (* The dropper's best lie: deny having seen the message at all. *)
    (false, None, [])
  else
    ( Relay_log.received node.World.relay_log cid,
      Imap.find_opt node.World.receipts cid,
      Option.value ~default:[] (Imap.find_opt node.World.statements cid) )

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let dispatch w addr (env : Types.msg Net.envelope) =
  let node = World.node w addr in
  if node.World.alive then begin
    (* Copy the sender out: [reply] can fire from asynchronous
       continuations after the pooled envelope has been recycled. *)
    let src = env.Net.src in
    let reply msg = World.send w ~src:addr ~dst:src msg in
    match env.Net.payload with
    | Types.List_req { rid; kind; announce } ->
      Option.iter
        (fun from ->
          (* A stabilizing neighbor announces itself (Chord notify). *)
          match kind with
          | Types.Succ_list -> World.update_preds w node (from :: Rtable.preds (World.rt node))
          | Types.Pred_list ->
            (* Adopting a successor needs signed evidence: probe the
               announcer for its signed predecessor list; if it indeed
               claims us as a predecessor, adopt it (and the peers it
               names between us) and retain the document as the
               introduction proof for later CA justifications. *)
            let succs = Rtable.succs (World.rt node) in
            let already = List.exists (Peer.equal from) succs in
            let adoptable =
              List.length succs < Config.list_size
              ||
              match List.rev succs with
              | tail :: _ ->
                Octo_chord.Id.distance_cw w.World.space node.World.peer.Peer.id from.Peer.id
                < Octo_chord.Id.distance_cw w.World.space node.World.peer.Peer.id tail.Peer.id
              | [] -> true
            in
            if (not already) && adoptable && not (World.is_active_malicious node) then
              World.fetch_list w ~src:node.World.addr ~kind:Types.Pred_list from
                ~on_timeout:(fun () -> ())
                (function
                  | World.Valid slist
                    when List.exists (Peer.equal node.World.peer) slist.Types.l_peers ->
                    let between =
                      List.filter
                        (fun p ->
                          Octo_chord.Id.between_open w.World.space p.Peer.id
                            ~lo:node.World.peer.Peer.id ~hi:from.Peer.id)
                        slist.Types.l_peers
                    in
                    Rtable.merge_succs (World.rt node) (from :: between);
                    World.push_intro w node slist
                  | World.Valid _ | World.Moved _ | World.Invalid -> ())
            else if already then ()
            else Rtable.merge_succs (World.rt node) [ from ])
        announce;
      reply (Types.List_resp { rid; slist = Adversary.serve_list w node kind })
    | Types.Table_req { rid } ->
      reply (Types.Table_resp { rid; table = Adversary.serve_table w node })
    | Types.Ping_req { rid } -> reply (Types.Ping_resp { rid })
    | Types.Anon_req { rid; query } ->
      handle_anon_query w node query (fun reply_opt ->
          match reply_opt with
          | Some r -> reply (Types.Anon_resp { rid; reply = r })
          | None -> ())
    | Types.Fwd { cid; sid; delay; hops; target; query; deadline; capsule } ->
      handle_fwd w node ~prev:src ~cid ~sid ~delay ~hops ~target ~query ~deadline ~capsule
    | Types.Fwd_reply { cid; reply; capsule } -> handle_fwd_reply w node ~cid ~reply ~capsule
    | Types.Receipt_msg { cid; receipt } ->
      if World.verify_receipt w receipt then begin
        match Imap.find_opt node.World.witness_waits cid with
        | Some (rid, requester) ->
          Imap.remove node.World.witness_waits cid;
          World.send w ~src:addr ~dst:requester
            (Types.Witness_resp { rid; outcome = Either.Left receipt })
        | None -> Imap.set node.World.receipts cid receipt
      end
    | Types.Witness_req { rid; cid; target; fwd } ->
      (* Only an onion forward of the same cid is re-delivered: anything
         else would let a forged request send an arbitrary message to an
         honest target and then sign a failure statement against it. *)
      let own_forward = match fwd with Types.Fwd f -> f.cid = cid | _ -> false in
      if own_forward && not (World.is_active_malicious node) then begin
        Imap.set node.World.witness_waits cid (rid, src);
        World.send w ~src:addr ~dst:target.Peer.addr fwd;
        World.after w ~delay:Config.receipt_wait (fun () ->
            match Imap.find_opt node.World.witness_waits cid with
            | Some (rid, requester) ->
              Imap.remove node.World.witness_waits cid;
              let stmt = World.sign_statement w node ~target ~cid in
              World.send w ~src:addr ~dst:requester
                (Types.Witness_resp { rid; outcome = Either.Right stmt })
            | None -> ())
      end
    | Types.Replicate { rid; key; value } ->
      Imap.set node.World.storage key value;
      reply (Types.Replicate_ack { rid })
    | Types.Justify_req { rid; missing; source; provenance; before } ->
      reply
        (Types.Justify_resp
           { rid; proof = handle_justify w node ~missing ~source ~provenance ~before })
    | Types.Proofs_req { rid } -> reply (Types.Proofs_resp { rid; proofs = handle_proofs w node })
    | Types.Evidence_req { rid; cid } ->
      let received, receipt, statements = handle_evidence node ~cid in
      reply (Types.Evidence_resp { rid; received; receipt; statements })
    | ( Types.List_resp _ | Types.Table_resp _ | Types.Ping_resp _ | Types.Anon_resp _
      | Types.Witness_resp _ | Types.Justify_resp _ | Types.Proofs_resp _
      | Types.Evidence_resp _ | Types.Replicate_ack _ ) as resp -> (
      match Types.rid resp with
      | Some rid -> ignore (World.resolve w rid resp)
      | None -> ())
    | Types.Report_msg _ -> () (* only the CA processes reports *)
  end

let install w =
  Array.iter
    (fun (node : World.node) ->
      Net.register w.World.net node.World.addr (dispatch w node.World.addr))
    w.World.nodes
