module Rng = Octo_sim.Rng
module Fault = Octo_sim.Fault
module Keys = Octo_crypto.Keys
module Wire = Octo_crypto.Wire

(* Replace the document's signature with the always-invalid placeholder
   and drop the digest memo (the stale digest would otherwise keep
   shielding the content from re-hashing). The garbled document is
   registered on the deployment's watch list, so if any verifier ever
   accepts it, the invariant checker turns that into a hard failure. *)
let garble_list w (sl : Types.signed_list) =
  let garbled = { sl with Types.l_sig = Keys.forge (); l_memo = None } in
  World.register_corrupted_list w garbled;
  garbled

let garble_table w (st : Types.signed_table) =
  let garbled = { st with Types.t_sig = Keys.forge (); t_memo = None } in
  World.register_corrupted_table w garbled;
  garbled

let flip_capsule capsule =
  let capsule = Bytes.copy capsule in
  if Bytes.length capsule > 0 then
    Bytes.set capsule 0 (Char.chr (Char.code (Bytes.get capsule 0) lxor 0xff));
  capsule

let corrupt w rng msg =
  let garbled =
    match msg with
    | Types.List_resp { rid; slist } -> Types.List_resp { rid; slist = garble_list w slist }
    | Types.Table_resp { rid; table } ->
      Types.Table_resp { rid; table = garble_table w table }
    | Types.Anon_resp { rid; reply = Types.R_table st } ->
      Types.Anon_resp { rid; reply = Types.R_table (garble_table w st) }
    | Types.Anon_resp { rid; reply = Types.R_list sl } ->
      Types.Anon_resp { rid; reply = Types.R_list (garble_list w sl) }
    | Types.Fwd { cid; sid; delay; hops; target; query; deadline; capsule } ->
      Types.Fwd
        { cid; sid; delay; hops; target; query; deadline; capsule = flip_capsule capsule }
    | Types.Fwd_reply { cid; reply; capsule } ->
      Types.Fwd_reply { cid; reply; capsule = flip_capsule capsule }
    | other -> other
  in
  (* Wire damage also perturbs the observed size (never below the header),
     so the byte-accounting reconciliation runs over faulted traffic. *)
  let size = Int.max Wire.header (Types.size garbled + Rng.int_in rng (-4) 12) in
  (garbled, size)

let install w =
  match w.World.cfg.Config.fault_plan with
  | None -> None
  | Some plan ->
    let net = w.World.net in
    let n = World.n_nodes w in
    let on_crash addr =
      if addr >= 0 && addr < n then begin
        let node = World.node w addr in
        if node.World.alive && not node.World.revoked then World.kill w addr
      end
    in
    let on_recover addr =
      if addr >= 0 && addr < n then begin
        let node = World.node w addr in
        if (not node.World.alive) && not node.World.revoked then begin
          World.revive w addr;
          (* A whole burst recovers at the same instant, so a join's
             bootstrap lookup can land on a peer that is itself still
             re-knitting and fail; retry a few times with a pause rather
             than leaving the node isolated. *)
          Maintain.retry_join w node ~tries:4 ~every:5.0 ignore
        end
      end
    in
    Some
      (Fault.install (World.engine w) (Octo_sim.Net.latency net) net ~corrupt:(corrupt w)
         ~on_crash ~on_recover plan)
