module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Net = Octo_sim.Net
module Series = Octo_sim.Metrics.Series
module Cert = Octo_crypto.Cert
module Trace = Octo_sim.Trace

(* Per-source certificate-admission state: a token bucket plus the
   source's cumulative admission spend (every request costs one unit,
   granted or not — the accounting side of the Sybil cost curve). *)
type bucket = { mutable tokens : float; mutable last : float; mutable cost : int }

type t = {
  w : World.t;
  mutable received : int;
  strikes : (int, int) Hashtbl.t;
  buckets : (int, bucket) Hashtbl.t;
  mutable admitted : int;
  mutable refused : int;
}

type outcome = Convicted of int list | Nothing

type admission =
  | Admitted of { id : int }
  | Refused_rate_limited
  | Refused_revoked
  | Refused_id_taken

let messages_received t = t.received
let admitted t = t.admitted
let refused t = t.refused

let admission_cost t source =
  match Hashtbl.find_opt t.buckets source with None -> 0 | Some b -> b.cost

(* ------------------------------------------------------------------ *)
(* Certificate admission (Sybil flooding defense) *)

let bucket ~burst ~now = { tokens = float_of_int burst; last = now; cost = 0 }

let take_token b ~rate ~burst ~now =
  b.tokens <- Float.min (float_of_int burst) (b.tokens +. (rate *. (now -. b.last)));
  b.last <- now;
  if b.tokens >= 1.0 then begin
    b.tokens <- b.tokens -. 1.0;
    true
  end
  else false

let bucket_for t source =
  match Hashtbl.find_opt t.buckets source with
  | Some b -> b
  | None ->
    let b = bucket ~burst:t.w.World.cfg.Config.ca_admission_burst ~now:(World.now t.w) in
    Hashtbl.add t.buckets source b;
    b

(* Judge one certificate request from [source]. Never invoked by the
   protocol's own machinery — only attack scenarios (and their tests) call
   it, so ordinary runs leave the limiter state untouched and traces
   byte-identical to defenseless builds. Refusals draw no randomness, so
   the grant/refusal sequence under a fixed schedule is deterministic. *)
let request_admission t ~source ~requested_id =
  let w = t.w in
  let cfg = w.World.cfg in
  let b = bucket_for t source in
  b.cost <- b.cost + 1;
  let judge granted =
    if granted then t.admitted <- t.admitted + 1 else t.refused <- t.refused + 1;
    if Trace.on () then
      Trace.emit ~time:(World.now w) ~node:w.World.ca_addr
        (Trace.Ca_admission { source; granted; cost = b.cost })
  in
  if (World.node w source).World.revoked then begin
    (* Revocation is an admission ban, not just an ejection: a convicted
       node cannot buy its way back in under a fresh identifier. *)
    judge false;
    Refused_revoked
  end
  else begin
    let pass =
      (not cfg.Config.ca_admission)
      || take_token b ~rate:cfg.Config.ca_admission_rate ~burst:cfg.Config.ca_admission_burst
           ~now:(World.now w)
    in
    if not pass then begin
      judge false;
      Refused_rate_limited
    end
    else if cfg.Config.ca_assign_ids then begin
      (* Placement defense: the CA draws the identifier, so crafted
         surround-the-victim requests degrade to uniform sampling. The
         world RNG is safe here — admission never runs in non-attack
         configurations, and within a run the call schedule is fixed. *)
      let id = World.fresh_id w in
      judge true;
      Admitted { id }
    end
    else if World.claim_id w requested_id then begin
      judge true;
      Admitted { id = requested_id }
    end
    else begin
      judge false;
      Refused_id_taken
    end
  end

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

let conclude w outcome =
  let m = w.World.metrics in
  if Trace.on () then begin
    let convicted = match outcome with Convicted addrs -> addrs | Nothing -> [] in
    Trace.emit ~time:(World.now w) ~node:w.World.ca_addr (Trace.Ca_outcome { convicted })
  end;
  match outcome with
  | Convicted addrs ->
    (* FP counts *fresh* honest revocations: duplicate reports against an
       already-revoked node conclude Convicted but judge nobody new. *)
    let fresh = List.filter (fun a -> not (World.node w a).World.revoked) addrs in
    let any_mal = List.exists (fun a -> (World.node w a).World.malicious) addrs in
    let any_honest = List.exists (fun a -> not (World.node w a).World.malicious) fresh in
    if any_mal then m.World.convicted_malicious <- m.World.convicted_malicious + 1;
    if any_honest then m.World.convicted_honest <- m.World.convicted_honest + 1;
    List.iter (World.revoke w) addrs
  | Nothing -> m.World.no_conviction <- m.World.no_conviction + 1

let ca_rpc w ~dst ~make ~on_timeout k =
  World.rpc w ~src:w.World.ca_addr ~dst ~make ~on_timeout k

(* [missing]'s certificate must predate the accused list by a grace period:
   otherwise the omission is explainable by an honest node not having
   learnt of a fresh joiner yet. The CA issued every certificate, so it can
   check the current holder of the address. *)
let cert_age_ok w ~(missing : Peer.t) ~before ~grace =
  let n = World.node w missing.Peer.addr in
  Peer.equal n.World.peer missing && n.World.cert.Cert.issued_at <= before -. grace

let rec last = function [] -> None | [ x ] -> Some x | _ :: rest -> last rest

(* ------------------------------------------------------------------ *)
(* Omission chains (lookup bias §4.3, pollution §4.5 / Figure 2b) *)

let investigate_omission w ~missing ~owner ~peers ~time ~depth k =
  let grace = Config.pred_age_before_report in
  let space = w.World.space in
  let convict (owner : Peer.t) ~time =
    (* Join races cannot convict: the missing node's certificate must
       predate the incriminating document by the grace period. *)
    if cert_age_ok w ~missing ~before:time ~grace then k (Convicted [ owner.Peer.addr ])
    else k Nothing
  in
  let proof_valid ?(era = true) ~time (proof : Types.signed_list) =
    proof.Types.l_time <= time +. 0.001
    && World.verify_list w ~revoked_ok:true ~max_age:(World.now w -. proof.Types.l_time +. 1.0) proof
    && ((not era)
       (* An era input must be from the stabilization rounds just before
          the claim; provenance documents are legitimately older. *)
       || World.now w -. proof.Types.l_time
          <= World.now w -. time +. Config.ca_proof_gap_slack)
  in
  let justify (owner : Peer.t) ~source ~provenance ~before handler =
    ca_rpc w ~dst:owner.Peer.addr
      ~make:(fun rid -> Types.Justify_req { rid; missing; source; provenance; before })
      ~on_timeout:(fun () -> k Nothing)
      (fun msg ->
        match msg with
        | Types.Justify_resp { proof; _ } -> handler proof
        | _ -> k Nothing)
  in
  (* Every list the CA demands is judged by the receipt rule as historical
     evidence (its signer may since have been ejected); a timeout is
     inconclusive. *)
  let fetch ~kind (peer : Peer.t) handler =
    World.fetch_list w ~src:w.World.ca_addr ~revoked_ok:true ~kind peer
      ~on_timeout:(fun () -> k Nothing) handler
  in
  (* The justification chain (§4.3 / Figure 2b): a node whose signed
     successor list omits an in-span live node must show the signed input
     it computed that list from; suspicion follows the signed inputs. When
     a list's head already lies beyond the missing node, the provenance
     sub-chain demands the signed document that introduced that head — an
     earlier head's successor list (chained in turn) or the head's own
     verified announcement (terminal: the announcement either contains the
     missing node, or its signer omitted an in-span node and is guilty). *)
  let rec chain ~(owner : Peer.t) ~peers ~time ~depth =
    let accused = World.node w owner.Peer.addr in
    if depth > Config.max_chain_depth then k Nothing
    else if accused.World.revoked then k (Convicted [ owner.Peer.addr ])
    else if not (Peer.equal accused.World.peer owner) then k Nothing
    else begin
      let d_missing = Id.distance_cw space owner.Peer.id missing.Peer.id in
      match (peers, last peers) with
      | [], _ | _, None ->
        (* An empty successor list while live in-span nodes exist admits no
           justification — but a rejoining honest node is briefly empty, so
           the CA rechecks the accused's current list first: refilled with
           the missing node present means transient; still empty or still
           omitting means guilt. *)
        fetch ~kind:Types.Succ_list owner (function
          | World.Valid { Types.l_peers = []; _ } ->
            (* Still empty: nothing honest stays empty across rounds. *)
            convict owner ~time
          | World.Valid _ | World.Moved _ | World.Invalid ->
            (* Refilled: a rejoining node converging; if it still omits
               the reporter, the next surveillance round will re-detect
               and run the regular chain. *)
            k Nothing)
      | first :: _, Some last_peer ->
        let d_last = Id.distance_cw space owner.Peer.id last_peer.Peer.id in
        if List.exists (Peer.equal missing) peers then k Nothing
        else if d_missing > d_last then k Nothing
        else
          justify owner ~source:first ~provenance:false ~before:time (fun proof ->
              match proof with
              | None ->
                (* No input from the claimed head: how was it adopted? *)
                provenance_step ~owner ~about:first ~before:time ~depth:(depth + 1)
              | Some proof ->
                if
                  (not (proof_valid ~time proof))
                  || proof.Types.l_kind <> Types.Succ_list
                  || not (Peer.equal proof.Types.l_owner first)
                then convict owner ~time
                else if List.exists (Peer.equal missing) proof.Types.l_peers then begin
                  (* The accused's list is [head :: input] truncated to
                     [list_size]; an input entry can legitimately fall off
                     the end. Convict only if the missing node's rank in
                     the derived list survives truncation, and — one more
                     transient guard — only if the accused's *current* list
                     still omits it (input/merge/purge races heal within a
                     stabilization round). *)
                  let closer =
                    List.length
                      (List.filter
                         (fun p ->
                           Id.distance_cw space owner.Peer.id p.Peer.id
                           < Id.distance_cw space owner.Peer.id missing.Peer.id)
                         (first :: proof.Types.l_peers))
                  in
                  if closer + 2 < Config.list_size then
                    fetch ~kind:Types.Succ_list owner (function
                      | World.Valid slist when List.exists (Peer.equal missing) slist.Types.l_peers
                        ->
                        k Nothing
                      | World.Valid _ | World.Moved _ | World.Invalid -> convict owner ~time)
                  else k Nothing
                end
                else if Peer.equal first missing then convict owner ~time
                else if
                  Id.between_open space first.Peer.id ~lo:owner.Peer.id ~hi:missing.Peer.id
                then chain ~owner:first ~peers:proof.Types.l_peers ~time:proof.Types.l_time
                       ~depth:(depth + 1)
                else provenance_step ~owner ~about:first ~before:time ~depth:(depth + 1))
    end
  and provenance_step ~(owner : Peer.t) ~(about : Peer.t) ~before ~depth =
    if depth > Config.max_chain_depth then k Nothing
    else
      justify owner ~source:about ~provenance:true ~before (fun proof ->
          match proof with
          | None ->
            (* No stored introduction. Honest nodes can reach this state
               when mass revocations blow a hole past their head, so the
               terminal test interrogates the head itself: its signed
               predecessor list either reveals the missing node (clearing
               the accused) or, if it spans the region yet omits it, stands
               as the head's own omission evidence. *)
            fetch ~kind:Types.Pred_list about (function
              | World.Valid slist -> (
                if List.exists (Peer.equal missing) slist.Types.l_peers then
                  (* The head knows the missing node: the accused is
                     merely stale. *)
                  k Nothing
                else begin
                  match last slist.Types.l_peers with
                  | Some deepest
                    when Id.between space missing.Peer.id ~lo:deepest.Peer.id ~hi:about.Peer.id
                    ->
                    (* Corroborate before judging (churn turbulence
                       otherwise convicts stale honest heads): the missing
                       node's own signed state must place the head among
                       its successors, and the omission must persist
                       across several stabilization rounds. *)
                    fetch ~kind:Types.Succ_list missing (function
                      | World.Valid zs when List.exists (Peer.equal about) zs.Types.l_peers ->
                        World.after w ~delay:Config.ca_recheck_delay (fun () ->
                            fetch ~kind:Types.Pred_list about (function
                              | World.Valid again
                                when not (List.exists (Peer.equal missing) again.Types.l_peers) ->
                                convict about ~time:again.Types.l_time
                              | World.Valid _ | World.Moved _ | World.Invalid -> k Nothing))
                      | World.Valid _ | World.Moved _ | World.Invalid -> k Nothing)
                  | Some _ | None -> k Nothing
                end)
              | World.Moved _ | World.Invalid -> k Nothing)
          | Some proof ->
            if not (proof_valid ~era:false ~time:before proof) then
              convict owner ~time:before
            else begin
              match proof.Types.l_kind with
              | Types.Succ_list ->
                let o = proof.Types.l_owner in
                if Peer.equal o missing then
                  (* The input was signed by the missing node itself — the
                     accused clearly knew it, but head churn makes this
                     state reachable honestly; inconclusive. *)
                  k Nothing
                else if not (List.exists (Peer.equal about) proof.Types.l_peers) then
                  convict owner ~time:before
                else if List.exists (Peer.equal missing) proof.Types.l_peers then
                  (* The introducing input knew the missing node; losing it
                     afterwards is the replace semantics of stabilization —
                     inconclusive against this accused. *)
                  k Nothing
                else if
                  Id.between_open space o.Peer.id ~lo:owner.Peer.id ~hi:missing.Peer.id
                then
                  (* The introducer precedes the missing node, named [about]
                     beyond it, and omitted it: a standard omission by it. *)
                  chain ~owner:o ~peers:proof.Types.l_peers ~time:proof.Types.l_time
                    ~depth:(depth + 1)
                else if
                  Id.distance_cw space owner.Peer.id o.Peer.id
                  < Id.distance_cw space owner.Peer.id about.Peer.id
                then provenance_step ~owner ~about:o ~before:proof.Types.l_time
                       ~depth:(depth + 1)
                else k Nothing
              | Types.Pred_list ->
                (* A verified announcement: either by [about] itself, or by
                   another announcer whose predecessor list named [about]
                   (its "between" peers get adopted too). Predecessor lists
                   churn transiently, so third-party introductions are
                   inconclusive. *)
                if not (Peer.equal proof.Types.l_owner about) then begin
                  if List.exists (Peer.equal about) proof.Types.l_peers then k Nothing
                  else convict owner ~time:before
                end
                else if Peer.equal about missing then
                  (* Holding the missing node's own announcement while
                     omitting it from the list is indefensible. *)
                  convict owner ~time:before
                else if List.exists (Peer.equal missing) proof.Types.l_peers then k Nothing
                else begin
                  (* The announcement spans back past the missing node yet
                     omits it. Predecessor lists churn transiently, so the
                     CA re-queries the announcer before judging: an honest
                     transient has healed by now, while a manipulator keeps
                     serving covering lists (it cannot distinguish the CA's
                     probe from the surveillance it is hiding from). *)
                  match last proof.Types.l_peers with
                  | Some deepest
                    when Id.between space missing.Peer.id ~lo:deepest.Peer.id
                           ~hi:about.Peer.id ->
                    fetch ~kind:Types.Pred_list about (function
                      | World.Valid slist -> (
                        if List.exists (Peer.equal missing) slist.Types.l_peers then k Nothing
                        else begin
                          match last slist.Types.l_peers with
                          | Some d2
                            when Id.between space missing.Peer.id ~lo:d2.Peer.id ~hi:about.Peer.id
                            ->
                            (* Final corroboration: the missing node's own
                               signed state must place it in the omitted
                               region (its successor list naming [about]
                               or its predecessor list naming the
                               accused); churn turbulence fails this and
                               stays a false alarm. *)
                            fetch ~kind:Types.Succ_list missing (function
                              | World.Valid zs when List.exists (Peer.equal about) zs.Types.l_peers
                                ->
                                convict about ~time:slist.Types.l_time
                              | World.Valid _ | World.Moved _ | World.Invalid -> k Nothing)
                          | Some _ | None -> k Nothing
                        end)
                      | World.Moved _ | World.Invalid -> k Nothing)
                  | Some _ | None -> k Nothing
                end
            end)
  in
  chain ~owner ~peers ~time ~depth

(* ------------------------------------------------------------------ *)
(* Finger evidence (§4.4) *)

let investigate_finger w ~strikes ~(y_table : Types.signed_table) ~index ~f_preds ~p1_succs k =
  let cfg = w.World.cfg in
  let space = w.World.space in
  let generous = Config.ca_finger_max_age in
  let structural_ok =
    World.verify_table w ~revoked_ok:true ~max_age:generous y_table
    && World.verify_list w ~revoked_ok:true ~max_age:generous f_preds
    && World.verify_list w ~revoked_ok:true ~max_age:generous p1_succs
    && f_preds.Types.l_kind = Types.Pred_list
    && p1_succs.Types.l_kind = Types.Succ_list
    && List.exists (Peer.equal p1_succs.Types.l_owner) f_preds.Types.l_peers
  in
  if not structural_ok then k Nothing
  else begin
    match List.nth_opt y_table.Types.t_fingers index with
    | Some (Some finger) when Peer.equal finger f_preds.Types.l_owner ->
      let y = y_table.Types.t_owner in
      let ideal =
        Id.ideal_finger space y.Peer.id ~num_fingers:(List.length y_table.Types.t_fingers) index
      in
      let d_finger = Id.distance_cw space ideal finger.Peer.id in
      let witnesses =
        List.filter
          (fun (z : Peer.t) ->
            (not (Peer.equal z finger)) && (not (Peer.equal z y))
            && Id.distance_cw space ideal z.Peer.id < d_finger)
          (p1_succs.Types.l_owner :: p1_succs.Types.l_peers)
      in
      (* Honest staleness cannot produce [interior_threshold] witnesses
         whose certificates predate the table by a full refresh period. *)
      let qualifying =
        List.filter
          (fun z ->
            cert_age_ok w ~missing:z ~before:y_table.Types.t_time
              ~grace:cfg.Config.finger_update_every)
          witnesses
      in
      if List.length qualifying < Config.interior_threshold then k Nothing
      else begin
        (* Stability confirmation: a qualifying witness must already appear
           in P'1's oldest retained proof. *)
        let p1 = p1_succs.Types.l_owner in
        ca_rpc w ~dst:p1.Peer.addr
          ~make:(fun rid -> Types.Proofs_req { rid })
          ~on_timeout:(fun () -> k Nothing)
          (fun msg ->
            match msg with
            | Types.Proofs_resp { proofs; _ } -> (
              let valid =
                List.filter
                  (fun p ->
                    p.Types.l_kind = Types.Succ_list
                    && World.verify_list w ~revoked_ok:true ~max_age:Config.ca_intro_max_age p)
                  proofs
              in
              let oldest =
                List.fold_left
                  (fun acc p ->
                    match acc with
                    | None -> Some p
                    | Some b -> if p.Types.l_time < b.Types.l_time then Some p else acc)
                  None valid
              in
              match oldest with
              | None -> k Nothing
              | Some oldest ->
                let stable =
                  List.exists
                    (fun z ->
                      Peer.equal z p1_succs.Types.l_owner
                      || Peer.equal z oldest.Types.l_owner
                      || List.exists (Peer.equal z) oldest.Types.l_peers)
                    qualifying
                in
                (* F' is guilty only if its own signed predecessor list hid
                   a qualifying witness within its span — an honest F'
                   would have revealed its true predecessors. Y may be a
                   *victim* of pollution rather than the author, so Y is
                   convicted only on repeated strikes. *)
                let hidden z =
                  (not (List.exists (Peer.equal z) f_preds.Types.l_peers))
                  &&
                  match last f_preds.Types.l_peers with
                  | Some deepest ->
                    Id.between space z.Peer.id ~lo:deepest.Peer.id ~hi:finger.Peer.id
                  | None -> false
                in
                if stable && List.exists hidden qualifying then begin
                  let count = 1 + Option.value ~default:0 (Hashtbl.find_opt strikes y.Peer.id) in
                  Hashtbl.replace strikes y.Peer.id count;
                  if count >= 3 then k (Convicted [ y.Peer.addr; finger.Peer.addr ])
                  else k (Convicted [ finger.Peer.addr ])
                end
                else k Nothing)
            | _ -> k Nothing)
      end
    | Some (Some _) | Some None | None -> k Nothing
  end

(* ------------------------------------------------------------------ *)
(* Selective-DoS chains (Appendix II) *)

let investigate_dos w ~(reporter : Peer.t) ~relays ~cid ~sent_at k =
  let cfg = w.World.cfg in
  let deadline = sent_at +. cfg.Config.query_deadline +. Config.ca_dos_slack in
  let chain = Array.of_list (reporter :: relays) in
  let n = Array.length chain in
  if n < 2 then k Nothing
  else begin
    let evidence = Array.make n None in
    let remaining = ref n in
    let analyze () =
      let valid_receipt i ~(expected : Peer.t) =
        match evidence.(i) with
        | Some (_, Some (rc : Types.receipt), _) ->
          rc.Types.rc_cid = cid
          && Peer.equal rc.Types.rc_signer expected
          && rc.Types.rc_time <= deadline
          && World.verify_receipt w rc
        | _ -> false
      in
      let statement_count i ~(about : Peer.t) =
        match evidence.(i) with
        | Some (_, _, stmts) ->
          List.length
            (List.filter
               (fun (s : Types.witness_statement) ->
                 s.Types.ws_cid = cid
                 && Peer.equal s.Types.ws_target about
                 && World.verify_statement w s)
               (List.sort_uniq Types.compare_statement stmts))
        | None -> 0
      in
      let rec walk i =
        if i >= n - 1 then k Nothing
        else begin
          let next = chain.(i + 1) in
          let statements = statement_count i ~about:next in
          if valid_receipt i ~expected:next then walk (i + 1)
          else if statements >= 2 then
            (* Independent witnesses corroborated the next hop's refusal:
               guilty if it is still alive. *)
            ca_rpc w ~dst:next.Peer.addr
              ~make:(fun rid -> Types.Ping_req { rid })
              ~on_timeout:(fun () -> k Nothing)
              (fun _ -> k (Convicted [ next.Peer.addr ]))
          else if statements >= 1 then
            (* The relay demonstrably tried: exonerated, but one statement
               is not enough to convict the next hop. *)
            k Nothing
          else if i = 0 then k Nothing
          else begin
            (* This relay provably received (previous link held a receipt)
               but can show neither a receipt nor statements: it dropped. *)
            k (Convicted [ chain.(i).Peer.addr ])
          end
        end
      in
      walk 0
    in
    (* Let the witness protocol finish before demanding evidence. *)
    World.after w ~delay:Config.ca_evidence_delay
      (fun () ->
           Array.iteri
             (fun i (peer : Peer.t) ->
               ca_rpc w ~dst:peer.Peer.addr
                 ~make:(fun rid -> Types.Evidence_req { rid; cid })
                 ~on_timeout:(fun () ->
                   decr remaining;
                   if !remaining = 0 then analyze ())
                 (fun msg ->
                   (match msg with
                   | Types.Evidence_resp { received; receipt; statements; _ } ->
                     evidence.(i) <- Some (received, receipt, statements)
                   | _ -> ());
                   decr remaining;
                   if !remaining = 0 then analyze ()))
             chain)
  end

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let principal = function
  | Types.R_neighbor { claimed; _ } -> Some claimed.Types.l_owner
  | Types.R_table_omission { table; _ } -> Some table.Types.t_owner
  | Types.R_finger { y_table; _ } -> Some y_table.Types.t_owner
  | Types.R_dos _ -> None

let report_kind = function
  | Types.R_neighbor _ -> "neighbor"
  | Types.R_finger _ -> "finger"
  | Types.R_table_omission _ -> "table_omission"
  | Types.R_dos _ -> "dos"

let handle_report t report =
  let w = t.w in
  w.World.metrics.World.reports <- w.World.metrics.World.reports + 1;
  if Trace.on () then
    Trace.emit ~time:(World.now w) ~node:w.World.ca_addr
      (Trace.Ca_report { kind = report_kind report });
  let k outcome = conclude w outcome in
  let already_revoked =
    match principal report with
    | Some p -> (World.node w p.Peer.addr).World.revoked
    | None -> false
  in
  if already_revoked then begin
    match principal report with
    | Some p -> conclude w (Convicted [ p.Peer.addr ])
    | None -> ()
  end
  else begin
    match report with
    | Types.R_neighbor { missing; claimed; _ } ->
      let generous = Config.ca_evidence_max_age in
      if World.verify_list w ~revoked_ok:true ~max_age:generous claimed && claimed.Types.l_kind = Types.Succ_list
      then
        investigate_omission w ~missing ~owner:claimed.Types.l_owner
          ~peers:claimed.Types.l_peers ~time:claimed.Types.l_time ~depth:0 k
      else k Nothing
    | Types.R_table_omission { missing; table; _ } ->
      if World.verify_table w ~revoked_ok:true ~max_age:Config.ca_evidence_max_age table then
        investigate_omission w ~missing ~owner:table.Types.t_owner ~peers:table.Types.t_succs
          ~time:table.Types.t_time ~depth:0 k
      else k Nothing
    | Types.R_finger { y_table; index; f_preds; p1_succs } ->
      investigate_finger w ~strikes:t.strikes ~y_table ~index ~f_preds ~p1_succs k
    | Types.R_dos { reporter; relays; cid; sent_at } ->
      investigate_dos w ~reporter ~relays ~cid ~sent_at k
  end

let handle t (env : Types.msg Net.envelope) =
  t.received <- t.received + 1;
  Series.add t.w.World.metrics.World.ca_msgs ~time:(World.now t.w) 1.0;
  match env.Net.payload with
  | Types.Report_msg { report; _ } -> handle_report t report
  | ( Types.Justify_resp _ | Types.Proofs_resp _ | Types.Evidence_resp _ | Types.Ping_resp _
    | Types.List_resp _ | Types.Table_resp _ | Types.Anon_resp _ | Types.Witness_resp _ ) as
    resp -> (
    match Types.rid resp with
    | Some rid -> ignore (World.resolve t.w rid resp)
    | None -> ())
  | Types.List_req _ | Types.Table_req _ | Types.Ping_req _ | Types.Anon_req _ | Types.Fwd _
  | Types.Fwd_reply _ | Types.Receipt_msg _ | Types.Witness_req _ | Types.Justify_req _
  | Types.Proofs_req _ | Types.Evidence_req _ | Types.Replicate _ | Types.Replicate_ack _ -> ()

let create w =
  let t =
    (* octolint: allow compact-node-state — strike and admission tables on
       the single CA instance, not per-node state *)
    { w; received = 0; strikes = Hashtbl.create 32; buckets = Hashtbl.create 32;
      admitted = 0; refused = 0 }
  in
  Net.register w.World.net w.World.ca_addr (handle t);
  t
