module Peer = Octo_chord.Peer
module Rpc = Octo_sim.Rpc
module Rng = Octo_sim.Rng
module Onion = Octo_crypto.Onion
module Trace = Octo_sim.Trace

type path = Relays of World.relay list | Pairs of World.pair * World.pair

let distinct_addrs ~initiator = function
  | Relays relays ->
    let addrs = List.map (fun r -> r.World.r_peer.Peer.addr) relays in
    List.length (List.sort_uniq Int.compare addrs) = List.length addrs
    && not (List.mem initiator addrs)
  | Pairs (ab, cd) ->
    let a = ab.World.p_first.Peer.addr and b = ab.World.p_second.Peer.addr in
    let c = cd.World.p_first.Peer.addr and d = cd.World.p_second.Peer.addr in
    a <> b && a <> c && a <> d && b <> c && b <> d && c <> d
    && initiator <> a && initiator <> b && initiator <> c && initiator <> d

(* The path's relays in order, built only for a trace event or a report. *)
let path_peers = function
  | Relays relays -> List.map (fun r -> r.World.r_peer) relays
  | Pairs (ab, cd) -> [ ab.World.p_first; ab.World.p_second; cd.World.p_first; cd.World.p_second ]

(* The first relay's session id and the (addr, sid, delay) legs after it.
   The second relay (B) adds the anti-timing random delay, drawn after
   the capsule's nonces. *)
let legs rng = function
  | Relays relays -> (
    let delay_for i = if i = 1 then Rng.float rng Config.relay_max_delay else 0.0 in
    match List.mapi (fun i r -> (r.World.r_peer.Peer.addr, r.World.r_sid, delay_for i)) relays with
    | (_, sid, _) :: rest -> (sid, rest)
    | [] -> assert false)
  | Pairs (ab, cd) ->
    let delay = Rng.float rng Config.relay_max_delay in
    ( ab.World.p_first_sid,
      [
        (ab.World.p_second.Peer.addr, ab.World.p_second_sid, delay);
        (cd.World.p_first.Peer.addr, cd.World.p_first_sid, 0.0);
        (cd.World.p_second.Peer.addr, cd.World.p_second_sid, 0.0);
      ] )

let entry = function
  | Relays (first :: _) -> first.World.r_peer.Peer.addr
  | Pairs (ab, _) -> ab.World.p_first.Peer.addr
  | Relays [] -> invalid_arg "Query.entry: no relays"

(* One key per relay, the first relay's first (its layer outermost). A
   walk's or a circuit's hops each carry their key; a pair keeps its two
   in one block, copied out for each wrap and peel so the query's
   closures hold only the pairs. *)
let keys = function
  | Relays relays -> List.map (fun r -> r.World.r_key) relays
  | Pairs (ab, cd) ->
    let key (p : World.pair) off = Bytes.sub p.World.p_keys off Octo_crypto.Cipher.key_size in
    [ key ab 0; key ab 16; key cd 0; key cd 16 ]

let send w (node : World.node) ?(dummy = false) ~path ~target ~query ?timeout k =
  let cfg = w.World.cfg in
  let timeout = Option.value ~default:cfg.Config.query_deadline timeout in
  if not (distinct_addrs ~initiator:node.World.addr path) then
    (* A relay appearing twice would treat its second leg as a duplicate
       delivery; fail fast so the caller picks other pairs. *)
    World.after w ~delay:0.0 (fun () -> k None)
  else
    match path with
    | Relays [] ->
      (* No relays: deliver directly (a walk's first hop, and tests). *)
      World.rpc w ~src:node.World.addr ~dst:target.Peer.addr ~timeout
        ~make:(fun rid -> Types.Anon_req { rid; query })
        ~on_timeout:(fun () -> k None)
        (fun msg ->
          match msg with Types.Anon_resp { reply; _ } -> k (Some reply) | _ -> k None)
    | Relays (_ :: _) | Pairs _ ->
      let self = node.World.addr in
      let sent_at = World.now w in
      let deadline = sent_at +. timeout in
      let entry = entry path in
      (* The query's cid is its rid in the shared RPC table, so the reply
         resolves the call like any other response. Relays de-duplicate
         cids in flight, which would drop a retransmission — anonymous
         queries are therefore always single-attempt; give-up after the
         query deadline is the (reported) failure. *)
      let policy = World.rpc_policy w ~timeout () in
      let cid_ref = ref (-1) in
      ignore
        (Rpc.call w.World.rpc ~src:self ~dst:entry ~policy
           ~send:(fun cid ->
             cid_ref := cid;
             if Trace.on () then
               Trace.emit ~time:(World.now w) ~node:self
                 (Trace.Query_sent
                    {
                      cid;
                      target_addr = target.Peer.addr;
                      target_id = target.Peer.id;
                      relays = List.map (fun (p : Peer.t) -> p.Peer.addr) (path_peers path);
                      dummy;
                    });
             let capsule =
               Onion.wrap ~rng:w.World.rng ~keys:(keys path) (Types.query_digest ~target ~cid query)
             in
             let sid, hops = legs w.World.rng path in
             let fwd =
               Types.Fwd { cid; sid; delay = 0.0; hops; target; query; deadline; capsule }
             in
             World.send w ~src:self ~dst:entry fwd;
             Serve.arm_receipt_watch w node ~cid ~next:(World.node w entry).World.peer ~fwd)
           ~on_give_up:(fun () ->
             if cfg.Config.dos_defense then begin
               let report =
                 Types.R_dos
                   { reporter = node.World.peer; relays = path_peers path; cid = !cid_ref; sent_at }
               in
               (* Reports are one-way: the CA acts but does not acknowledge. *)
               World.send w ~src:self ~dst:w.World.ca_addr (Types.Report_msg { rid = 0; report })
             end;
             k None)
           (fun msg ->
             match msg with
             | Types.Fwd_reply { reply; capsule; _ } ->
               let ok =
                 match Onion.peel_all ~keys:(keys path) capsule with
                 | Some digest -> Bytes.equal digest (Types.reply_digest ~cid:!cid_ref reply)
                 | None -> false
               in
               if ok then k reply else k None
             | _ -> k None))

(* The anonymous side of the receipt rule: [World.judge_*], as for direct
   fetches. *)
let fetch_table w node ~path ?session ?timeout (target : Peer.t) ~on_lost k =
  send w node ~path ~target ~query:(Types.Q_table { session }) ?timeout (function
    | None -> on_lost ()
    | Some (Types.R_table table) -> k (World.judge_table w target table)
    | Some _ -> k World.Invalid)

let fetch_list w node ~path ~kind (target : Peer.t) ~on_lost k =
  send w node ~path ~target ~query:(Types.Q_list kind) (function
    | None -> on_lost ()
    | Some (Types.R_list slist) -> k (World.judge_list w ~kind target slist)
    | Some _ -> k World.Invalid)
