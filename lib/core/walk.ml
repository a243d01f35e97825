module Peer = Octo_chord.Peer
module Rtable = Octo_chord.Rtable
module Rng = Octo_sim.Rng
module Onion = Octo_crypto.Onion
module Trace = Octo_sim.Trace

let verify_phase2 w ~expected_owner ~seed ~length tables =
  List.length tables = length + 1
  && (match tables with
     | first :: _ -> Peer.equal first.Types.t_owner expected_owner
     | [] -> false)
  && List.for_all (fun st -> World.verify_table w st) tables
  &&
  (* Seed consistency: step i's selection from table i must be table i+1's
     owner. *)
  let rec consistent i = function
    | cur :: (next :: _ as rest) -> (
      match Serve.table_entries cur with
      | [] -> false
      | entries ->
        let pick =
          List.nth entries (Serve.phase2_index ~seed ~step:i ~count:(List.length entries))
        in
        Peer.equal pick next.Types.t_owner && consistent (i + 1) rest)
    | [ _ ] | [] -> true
  in
  consistent 0 tables

let fresh_session w =
  (World.fresh_sid w, Onion.gen_key w.World.rng)

let run w (node : World.node) k0 =
  let l = Config.walk_length in
  (* Walk restarts are budgeted: a selective-DoS adversary can fail every
     walk, and an unbounded restart loop would spin silently. *)
  let attempts = ref 0 in
  let k outcome =
    if Trace.on () then
      Trace.emit ~time:(World.now w) ~node:node.World.addr
        (Trace.Walk_done { ok = outcome <> None });
    k0 outcome
  in
  let step_trace hop index =
    if Trace.on () then
      Trace.emit ~time:(World.now w) ~node:node.World.addr (Trace.Walk_step { hop; index })
  in
  let rec start () =
    incr attempts;
    if !attempts > Config.walk_max_attempts then begin
      let ran = !attempts - 1 in
      if Trace.on () then
        Trace.emit ~time:(World.now w) ~node:node.World.addr
          (Trace.Walk_abandoned { attempts = ran });
      w.World.metrics.World.walks_abandoned <- w.World.metrics.World.walks_abandoned + 1;
      k None
    end
    else if not node.World.alive then k None
    else phase1 ()
  and phase1 () =
    match Rtable.fingers (World.rt node) with
    | [] -> k None
    | fingers -> (
      let u1 = Rng.choose w.World.rng (Array.of_list fingers) in
      if u1.Peer.addr = node.World.addr then start ()
      else begin
        let sid, key = fresh_session w in
        (* The first hop is contacted directly, with no relays and a
           direct RPC's timeout (the walk necessarily reveals the initiator
           to U1). *)
        Query.fetch_table w node ~relays:[] ~session:(sid, key) ~timeout:Config.rpc_timeout u1
          ~on_lost:start
          (function
            | World.Valid st ->
              World.buffer_table w node st;
              step_trace u1.Peer.addr 0;
              extend [ { World.r_peer = u1; r_sid = sid; r_key = key } ] st 1
            | World.Moved _ | World.Invalid -> start ())
      end)
  and extend relays_rev current_table i =
    if i >= l then phase2 (List.rev relays_rev) current_table
    else begin
      let used p =
        p.Peer.addr = node.World.addr
        || List.exists (fun r -> r.World.r_peer.Peer.addr = p.Peer.addr) relays_rev
      in
      (* Exclude already-visited hops: a repeated relay cannot appear twice
         on one onion path (see Query.send). *)
      let candidates =
        List.filter (fun p -> not (used p))
          (Serve.table_entries (World.sanitize_table w node current_table))
      in
      match candidates with
      | [] -> start ()
      | _ ->
        let next = Rng.choose w.World.rng (Array.of_list candidates) in
        let sid, key = fresh_session w in
        Query.fetch_table w node ~relays:(List.rev relays_rev) ~session:(sid, key)
          ~timeout:
            (Config.walk_step_timeout_base
            +. (Config.walk_step_timeout_per_hop *. float_of_int i))
          next ~on_lost:start
          (function
            | World.Valid st ->
              World.buffer_table w node st;
              step_trace next.Peer.addr i;
              extend ({ World.r_peer = next; r_sid = sid; r_key = key } :: relays_rev) st (i + 1)
            | World.Moved _ | World.Invalid -> start ())
    end
  and phase2 relays _last_table =
    match List.rev relays with
    | [] -> k None
    | ul :: front_rev ->
      let front = List.rev front_rev in
      let seed = Rng.int w.World.rng 0x3FFFFFFF in
      Query.send w node ~relays:front ~target:ul.World.r_peer
        ~query:(Types.Q_phase2 { seed; length = l })
        ~timeout:
          (Config.walk_phase2_timeout_base
          +. (Config.walk_phase2_timeout_per_hop *. float_of_int l))
        (fun reply ->
          match reply with
          | Some (Types.R_phase2 tables)
            when verify_phase2 w ~expected_owner:ul.World.r_peer ~seed ~length:l tables ->
            List.iter (World.buffer_table w node) tables;
            let arr = Array.of_list tables in
            let c = arr.(l - 1).Types.t_owner and d = arr.(l).Types.t_owner in
            if Peer.equal c d || c.Peer.addr = node.World.addr || d.Peer.addr = node.World.addr
            then start ()
            else establish relays c d
          | Some _ | None -> start ())
  and establish relays c d =
    let sid_c, key_c = fresh_session w in
    Query.send w node ~relays ~target:c
      ~query:(Types.Q_establish { sid = sid_c; key = key_c })
      ~timeout:Config.walk_establish_timeout
      (fun reply ->
        match reply with
        | Some Types.R_ok ->
          let sid_d, key_d = fresh_session w in
          Query.send w node ~relays ~target:d
            ~query:(Types.Q_establish { sid = sid_d; key = key_d })
            ~timeout:Config.walk_establish_timeout
            (fun reply ->
              match reply with
              | Some Types.R_ok ->
                k
                  (Some
                     {
                       World.p_first = { World.r_peer = c; r_sid = sid_c; r_key = key_c };
                       p_second = { World.r_peer = d; r_sid = sid_d; r_key = key_d };
                       p_born = World.now w;
                     })
              | Some _ | None -> start ())
        | Some _ | None -> start ())
  in
  start ()
