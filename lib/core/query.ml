module Peer = Octo_chord.Peer
module Rpc = Octo_sim.Rpc
module Rng = Octo_sim.Rng
module Onion = Octo_crypto.Onion
module Trace = Octo_sim.Trace

let path_relays (ab : World.pair) (cd : World.pair) =
  [ ab.World.p_first; ab.World.p_second; cd.World.p_first; cd.World.p_second ]

let pick_pairs (w : World.t) (node : World.node) ~n =
  let pool = Array.of_list node.World.pool in
  Array.to_list (Rng.sample w.World.rng ~k:n pool)

let discard_pair (node : World.node) pair =
  node.World.pool <- List.filter (fun p -> p != pair) node.World.pool

let add_pair (node : World.node) pair =
  let rec take n = function [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r in
  node.World.pool <- take Config.pool_target (pair :: node.World.pool)

let distinct_addrs ~initiator relays =
  let addrs = List.map (fun r -> r.World.r_peer.Peer.addr) relays in
  List.length (List.sort_uniq Int.compare addrs) = List.length addrs
  && not (List.mem initiator addrs)

let send w (node : World.node) ?(dummy = false) ~relays ~target ~query ?timeout k =
  let cfg = w.World.cfg in
  let timeout = Option.value ~default:cfg.Config.query_deadline timeout in
  if not (distinct_addrs ~initiator:node.World.addr relays) then
    (* A relay appearing twice would treat its second leg as a duplicate
       delivery; fail fast so the caller picks other pairs. *)
    World.after w ~delay:0.0 (fun () -> k None)
  else
    match relays with
    | [] ->
      (* No relays: deliver directly (a walk's first hop, and tests). *)
      World.rpc w ~src:node.World.addr ~dst:target.Peer.addr ~timeout
        ~make:(fun rid -> Types.Anon_req { rid; query })
        ~on_timeout:(fun () -> k None)
        (fun msg ->
          match msg with Types.Anon_resp { reply; _ } -> k (Some reply) | _ -> k None)
    | first :: _ ->
      let self = node.World.addr in
      let sent_at = World.now w in
      let deadline = sent_at +. timeout in
      let keys = List.map (fun r -> r.World.r_key) relays in
      (* The query's cid is its rid in the shared RPC table, so the reply
         resolves the call like any other response. Relays de-duplicate
         cids in flight, which would drop a retransmission — anonymous
         queries are therefore always single-attempt; give-up after the
         query deadline is the (reported) failure. *)
      let policy = World.rpc_policy w ~timeout () in
      let cid_ref = ref (-1) in
      ignore
        (Rpc.call w.World.rpc ~src:self ~dst:first.World.r_peer.Peer.addr ~policy
           ~send:(fun cid ->
             cid_ref := cid;
             if Trace.on () then
               Trace.emit ~time:(World.now w) ~node:self
                 (Trace.Query_sent
                    {
                      cid;
                      target_addr = target.Peer.addr;
                      target_id = target.Peer.id;
                      relays = List.map (fun r -> r.World.r_peer.Peer.addr) relays;
                      dummy;
                    });
             let capsule =
               Onion.wrap ~rng:w.World.rng ~keys (Types.query_digest ~target ~cid query)
             in
             (* The second relay (B) adds the anti-timing random delay. *)
             let delay_for i =
               if i = 1 then Rng.float w.World.rng Config.relay_max_delay else 0.0
             in
             let legs =
               List.mapi
                 (fun i r -> (r.World.r_peer.Peer.addr, r.World.r_sid, delay_for i))
                 relays
             in
             match legs with
             | (first_addr, first_sid, first_delay) :: rest ->
               let fwd =
                 Types.Fwd
                   {
                     cid;
                     sid = first_sid;
                     delay = first_delay;
                     hops = rest;
                     target;
                     query;
                     deadline;
                     capsule;
                   }
               in
               World.send w ~src:self ~dst:first_addr fwd;
               Serve.arm_receipt_watch w node ~cid ~next:(World.node w first_addr).World.peer
                 ~fwd
             | [] -> assert false)
           ~on_give_up:(fun () ->
             if cfg.Config.dos_defense then begin
               let report =
                 Types.R_dos
                   {
                     reporter = node.World.peer;
                     relays = List.map (fun r -> r.World.r_peer) relays;
                     cid = !cid_ref;
                     sent_at;
                   }
               in
               (* Reports are one-way: the CA acts but does not acknowledge. *)
               World.send w ~src:self ~dst:w.World.ca_addr (Types.Report_msg { rid = 0; report })
             end;
             k None)
           (fun msg ->
             match msg with
             | Types.Fwd_reply { reply; capsule; _ } ->
               let ok =
                 match Onion.peel_all ~keys capsule with
                 | Some digest -> Bytes.equal digest (Types.reply_digest ~cid:!cid_ref reply)
                 | None -> false
               in
               if ok then k reply else k None
             | _ -> k None))

(* The anonymous side of the receipt rule: [World.judge_*], as for direct
   fetches. *)
let fetch_table w node ~relays ?session ?timeout (target : Peer.t) ~on_lost k =
  send w node ~relays ~target ~query:(Types.Q_table { session }) ?timeout (function
    | None -> on_lost ()
    | Some (Types.R_table table) -> k (World.judge_table w target table)
    | Some _ -> k World.Invalid)

let fetch_list w node ~relays ~kind (target : Peer.t) ~on_lost k =
  send w node ~relays ~target ~query:(Types.Q_list kind) (function
    | None -> on_lost ()
    | Some (Types.R_list slist) -> k (World.judge_list w ~kind target slist)
    | Some _ -> k World.Invalid)
