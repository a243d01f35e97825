module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Rtable = Octo_chord.Rtable
module Rng = Octo_sim.Rng
module Trace = Octo_sim.Trace
module Imap = Octo_sim.Imap

type result = {
  owner : Peer.t option;
  hops : int;
  queried : Peer.t list;
  final_table : Types.signed_table option;
  elapsed : float;
  from_cache : bool;
}

let max_hops = 24

let covers space (st : Types.signed_table) ~key =
  let rec walk lo = function
    | [] -> None
    | s :: rest ->
      if Id.between space key ~lo ~hi:s.Peer.id then Some s else walk s.Peer.id rest
  in
  walk st.Types.t_owner.Peer.id st.Types.t_succs

(* Shared greedy-iterative engine; [fetch] abstracts how a candidate's
   signed table is obtained (anonymously or directly), and hands on only
   a table the candidate signed and that verifies. *)
let greedy w (node : World.node) ~anonymous:anon ~key ~fetch k =
  let space = w.World.space in
  let t0 = World.now w in
  if Trace.on () then
    Trace.emit ~time:t0 ~node:node.World.addr (Trace.Lookup_start { key; anonymous = anon });
  let hops = ref 0 in
  let queried = ref [] in
  let tried : unit Imap.t = Imap.create () in
  let candidates : Peer.t Imap.t = Imap.create () in
  let add_candidate p = if p.Peer.addr <> node.World.addr then Imap.set candidates p.Peer.id p in
  let final_table = ref None in
  let finish owner =
    let owner =
      match (owner, w.World.misroute) with
      | Some p, Some f -> Some (f p)
      | _ -> owner
    in
    if Trace.on () then begin
      let owner_addr, owner_id =
        match owner with Some p -> (p.Peer.addr, p.Peer.id) | None -> (-1, -1)
      in
      Trace.emit ~time:(World.now w) ~node:node.World.addr
        (Trace.Lookup_done { key; owner_addr; owner_id; hops = !hops; anonymous = anon })
    end;
    k
      {
        owner;
        hops = !hops;
        queried = List.rev !queried;
        final_table = !final_table;
        elapsed = World.now w -. t0;
        from_cache = false;
      }
  in
  let best_candidate () =
    match
      Imap.min_by
        ~skip:(fun _ p -> Imap.mem tried p.Peer.addr)
        ~score:(fun _ p -> Id.distance_cw space p.Peer.id key)
        candidates
    with
    | Some (_, p, d) -> Some (p, d)
    | None -> None
  in
  let rec step () =
    if !hops >= max_hops || not node.World.alive then finish None
    else begin
      match best_candidate () with
      | None -> finish None
      | Some (p, d) ->
        if d = 0 then finish (Some p)
        else begin
          Imap.set tried p.Peer.addr ();
          if Trace.on () then
            Trace.emit ~time:(World.now w) ~node:node.World.addr
              (Trace.Lookup_hop
                 { key; peer_addr = p.Peer.addr; peer_id = p.Peer.id; hop = !hops });
          fetch p (fun table_opt ->
              incr hops;
              match table_opt with
              | Some st -> (
                World.buffer_table w node st;
                queried := p :: !queried;
                (* Route on the bound-filtered view: implausible fingers
                   and successor-list gaps are ignored (§4.1). *)
                let clean = World.sanitize_table w node st in
                match covers space clean ~key with
                | Some owner ->
                  final_table := Some st;
                  finish (Some owner)
                | None ->
                  List.iter (fun f -> Option.iter add_candidate f) clean.Types.t_fingers;
                  List.iter add_candidate clean.Types.t_succs;
                  step ())
              | None -> step ())
        end
    end
  in
  let my_id = node.World.peer.Peer.id in
  let owns_locally =
    match Rtable.predecessor (World.rt node) with
    | Some pred -> Id.between space key ~lo:pred.Peer.id ~hi:my_id
    | None -> false
  in
  if owns_locally then finish (Some node.World.peer)
  else begin
    match Rtable.covers (World.rt node) ~key with
    | Some owner -> finish (Some owner)
    | None ->
      List.iter add_candidate (Rtable.entries (World.rt node));
      step ()
  end

let fire_dummies w (node : World.node) ~ab ~pairs =
  (* Dummy queries: real-looking table requests to random known peers,
     spread over the expected lookup duration so interleaving looks like a
     lookup trajectory to an observer. *)
  let known = Rtable.entries (World.rt node) in
  if known <> [] then begin
    let targets = Array.of_list known in
    List.iter
      (fun cd ->
        let target = Rng.choose w.World.rng targets in
        if target.Peer.addr <> node.World.addr then begin
          let fire () =
            Query.send w node ~dummy:true
              ~relays:(Query.path_relays ab cd)
              ~target
              ~query:(Types.Q_table { session = None })
              (fun _ -> ())
          in
          World.after w
            ~delay:(Rng.float w.World.rng Config.dummy_fire_window)
            (fun () -> if node.World.alive then fire ())
        end)
      pairs
  end

let anonymous w (node : World.node) ~key k =
  let cfg = w.World.cfg in
  (* Hot-key cache probe (no-op, no RNG, unless [Config.result_cache]).
     A hit answers synchronously without spending relay pairs or network
     traffic -- and without the Lookup_start/Lookup_done events, so the
     invariant checker's convergence ledger only ever sees answers the
     network actually produced. *)
  match World.cache_find w node ~key with
  | Some owner ->
    if Trace.on () then
      Trace.emit ~time:(World.now w) ~node:node.World.addr (Trace.Cache_hit { key });
    k
      {
        owner = Some owner;
        hops = 0;
        queried = [];
        final_table = None;
        elapsed = 0.0;
        from_cache = true;
      }
  | None ->
  let k r =
    (match r.owner with
    | Some owner -> World.cache_store w node ~key owner
    | None -> ());
    k r
  in
  match Query.pick_pairs w node ~n:(1 + max_hops + Config.num_dummies) with
  | [] ->
    k { owner = None; hops = 0; queried = []; final_table = None; elapsed = 0.0; from_cache = false }
  | ab0 :: rest ->
    (* The entry pair is replaced on repeated path failures, so it lives
       in a ref; the initial value seeds the dummy traffic and the
       overlap filter below. *)
    let ab = ref ab0 in
    (* Pairs are distinct within the lookup while they last; recycle
       randomly if the pool is smaller than the query count. *)
    let overlaps (a : World.pair) (b : World.pair) =
      let addrs (p : World.pair) =
        [ p.World.p_first.World.r_peer.Peer.addr; p.World.p_second.World.r_peer.Peer.addr ]
      in
      List.exists (fun x -> List.mem x (addrs b)) (addrs a)
    in
    let remaining = ref (List.filter (fun p -> not (overlaps p ab0)) rest) in
    let next_pair () =
      match !remaining with
      | p :: tl ->
        remaining := tl;
        p
      | [] -> (
        (* Pool exhausted: reuse a random non-overlapping pair. *)
        let rec draw tries =
          if tries = 0 then None
          else begin
            match Query.pick_pairs w node ~n:1 with
            | [ p ] when not (overlaps p !ab) -> Some p
            | _ -> draw (tries - 1)
          end
        in
        match draw 4 with Some p -> p | None -> !ab)
    in
    let dummy_pairs =
      List.filteri (fun i _ -> i < Config.num_dummies) rest
    in
    fire_dummies w node ~ab:ab0 ~pairs:dummy_pairs;
    let fetch p cont =
      (* Path fallback: when a step's query dies with its relay path
         (rather than being answered), retire the exit pair and retry the
         same step over fresh relays, up to [anon_path_retries] times.
         This is the graceful-degradation ladder above the per-RPC
         retries: a dead relay kills the whole onion path, so only a new
         path can help. With the default budget of 0 the historical
         single-shot behaviour is preserved draw for draw. *)
      let rec attempt retries_left =
        let cd = next_pair () in
        Query.fetch_table w node ~relays:(Query.path_relays !ab cd) p
          ~on_lost:(fun () ->
            (* One of the pair's relays may be dead: retire the pair. *)
            Query.discard_pair node cd;
            if retries_left > 0 && node.World.alive then begin
              let attempt_no = cfg.Config.anon_path_retries - retries_left + 1 in
              if Trace.on () then
                Trace.emit ~time:(World.now w) ~node:node.World.addr
                  (Trace.Path_fallback { key; attempt = attempt_no });
              (* The death may equally sit in the entry pair: from the
                 second fallback on, replace it too. *)
              if attempt_no >= 2 then begin
                Query.discard_pair node !ab;
                match Query.pick_pairs w node ~n:1 with
                | [ fresh ] -> ab := fresh
                | _ -> ()
              end;
              attempt (retries_left - 1)
            end
            else cont None)
          (function World.Valid st -> cont (Some st) | World.Moved _ | World.Invalid -> cont None)
      in
      attempt cfg.Config.anon_path_retries
    in
    greedy w node ~anonymous:true ~key ~fetch k

let direct w (node : World.node) ~key k =
  let fetch (p : Peer.t) cont =
    World.fetch_table w ~src:node.World.addr p
      ~on_timeout:(fun () ->
        World.note_timeout w node p;
        cont None)
      (function
        | World.Valid table -> cont (Some table)
        | World.Moved _ ->
          (* Identity changed at this address: purge the stale entry. *)
          Rtable.remove (World.rt node) ~addr:p.Peer.addr;
          cont None
        | World.Invalid -> cont None)
  in
  greedy w node ~anonymous:false ~key ~fetch k
