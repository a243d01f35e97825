module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Network = Octo_chord.Network
module Lookup = Octo_chord.Lookup
module Rtable = Octo_chord.Rtable
module Proto = Octo_chord.Proto
module Bounds = Octo_chord.Bounds
module Engine = Octo_sim.Engine

type result = {
  owner : Peer.t option;
  hops : int;
  queried : Peer.t list;
  rejected : int;
  elapsed : float;
}

let lookup net ~from ~key ?(tolerance = 8.0) k =
  let engine = Network.engine net in
  let space = Network.space net in
  let me = Network.node net from in
  let gap = Bounds.estimated_gap me.Network.rt in
  let t0 = Engine.now engine in
  let hops = ref 0 and rejected = ref 0 in
  let queried = ref [] in
  let tried : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let candidates : (int, Peer.t) Hashtbl.t = Hashtbl.create 64 in
  let add p = if p.Peer.addr <> from then Hashtbl.replace candidates p.Peer.id p in
  let finish owner =
    k
      {
        owner;
        hops = !hops;
        queried = List.rev !queried;
        rejected = !rejected;
        elapsed = Engine.now engine -. t0;
      }
  in
  let best () =
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
    if !hops >= 32 then finish None
    else begin
      match best () with
      | None -> finish None
      | Some (p, d) ->
        if d = 0 then finish (Some p)
        else begin
          Hashtbl.replace tried p.Peer.addr ();
          Network.rpc net ~src:from ~dst:p.Peer.addr
            ~make:(fun rid -> Proto.Table_req { rid })
            ~on_timeout:step
            (fun msg ->
              match msg with
              | Proto.Table_resp { table; _ } ->
                incr hops;
                (* The NISAN bound check: discard implausible tables. *)
                if
                  not
                    (Bounds.check_table space
                       ~num_fingers:Network.num_fingers ~gap ~tolerance
                       table)
                then begin
                  incr rejected;
                  step ()
                end
                else begin
                  queried := p :: !queried;
                  match Lookup.covers space table ~key with
                  | Some owner -> finish (Some owner)
                  | None ->
                    List.iter (fun f -> Option.iter add f) table.Proto.fingers;
                    List.iter add table.Proto.succs;
                    step ()
                end
              | _ -> step ())
        end
    end
  in
  match Rtable.covers me.Network.rt ~key with
  | Some owner -> finish (Some owner)
  | None ->
    List.iter add (Rtable.entries me.Network.rt);
    step ()
