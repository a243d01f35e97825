module Engine = Octo_sim.Engine

type result = {
  owner : Peer.t option;
  hops : int;
  queried : Peer.t list;
  elapsed : float;
}

(* Resolve [key] through a table snapshot's successor list, walking
   clockwise from its owner. *)
let covers space (table : Proto.table) ~key =
  let rec walk lo = function
    | [] -> None
    | s :: rest ->
      if Id.between space key ~lo ~hi:s.Peer.id then Some s else walk s.Peer.id rest
  in
  walk table.Proto.owner.Peer.id table.Proto.succs

let max_hops = 32

let run net ~from ~key ?seed_candidates k =
  let engine = Network.engine net in
  let space = Network.space net in
  let me = Network.node net from in
  let t0 = Engine.now engine in
  let queried = ref [] in
  let hops = ref 0 in
  (* octolint: allow compact-node-state — per-lookup scratch, freed when
     the walk returns; never per-node resident state *)
  let tried : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* octolint: allow compact-node-state — per-lookup scratch (see above) *)
  let candidates : (int, Peer.t) Hashtbl.t = Hashtbl.create 64 in
  let add_candidate p =
    if p.Peer.addr <> from then Hashtbl.replace candidates p.Peer.id p
  in
  let finish owner =
    k { owner; hops = !hops; queried = List.rev !queried; elapsed = Engine.now engine -. t0 }
  in
  (* Best untried candidate: the one with the smallest clockwise distance
     onward to the key, i.e. the closest known predecessor of the key. *)
  let best_candidate () =
    match
      Octo_sim.Tbl.min_by ~cmp:Int.compare
        ~skip:(fun _ p -> Hashtbl.mem tried p.Peer.addr)
        ~score:(fun _ p -> Id.distance_cw space p.Peer.id key)
        candidates
    with
    | Some (_, p, d) -> Some (p, d)
    | None -> None
  in
  let rec step () =
    if !hops >= max_hops then finish None
    else begin
      match best_candidate () with
      | None -> finish None
      | Some (p, d) ->
        if d = 0 then
          (* The candidate's id is exactly the key: it is the owner. *)
          finish (Some p)
        else begin
          Hashtbl.replace tried p.Peer.addr ();
          Network.rpc net ~src:from ~dst:p.Peer.addr
            ~make:(fun rid -> Proto.Table_req { rid })
            ~on_timeout:(fun () ->
              Rtable.remove me.Network.rt ~addr:p.Peer.addr;
              step ())
            (fun msg ->
              match msg with
              | Proto.Table_resp { table; _ } ->
                incr hops;
                queried := table.Proto.owner :: !queried;
                (match covers space table ~key with
                | Some owner -> finish (Some owner)
                | None ->
                  List.iter (fun f -> Option.iter add_candidate f) table.Proto.fingers;
                  List.iter add_candidate table.Proto.succs;
                  step ())
              | _ -> step ())
        end
    end
  in
  (* Resolve locally when possible: the initiator itself or its successor
     list may already own the key. *)
  let my_id = me.Network.peer.Peer.id in
  let owns_locally =
    match Rtable.predecessor me.Network.rt with
    | Some pred -> Id.between space key ~lo:pred.Peer.id ~hi:my_id
    | None -> false
  in
  if owns_locally then finish (Some me.Network.peer)
  else begin
    match Rtable.covers me.Network.rt ~key with
    | Some owner -> finish (Some owner)
    | None ->
      (match seed_candidates with
      | Some seeds -> List.iter add_candidate seeds
      | None -> List.iter add_candidate (Rtable.entries me.Network.rt));
      step ()
  end
