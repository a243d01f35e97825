(* Integration and unit tests for the Octopus core: world bootstrap,
   signed routing state, anonymous queries over onion paths, random walks,
   anonymous lookups, the three surveillance/identification mechanisms, CA
   investigation chains, and the selective-DoS defense. *)

open Octopus
module Peer = Octo_chord.Peer
module Rtable = Octo_chord.Rtable
module Id = Octo_chord.Id
module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Latency = Octo_sim.Latency

let make_world ?(n = 100) ?(seed = 42) ?(fraction_malicious = 0.0) ?cfg () =
  let engine = Engine.create ~seed () in
  let lat_rng = Rng.split (Engine.rng engine) in
  let latency = Latency.create lat_rng ~n:(n + 1) in
  let w = World.create ?cfg ~fraction_malicious engine latency ~n in
  Serve.install w;
  let ca = Ca.create w in
  (engine, w, ca)

let run engine ~until = Engine.run engine ~until

(* ------------------------------------------------------------------ *)
(* World bootstrap *)

let test_world_bootstrap () =
  let _, w, _ = make_world ~n:120 () in
  (* Successor of each node is the globally next id. *)
  let peers =
    Array.to_list w.World.nodes
    |> List.map (fun (n : World.node) -> n.World.peer)
    |> List.sort (fun a b -> Int.compare a.Peer.id b.Peer.id)
    |> Array.of_list
  in
  Array.iteri
    (fun i p ->
      let node = World.node w p.Peer.addr in
      let succ = Option.get (Rtable.successor (World.rt node)) in
      Alcotest.(check int) "ring successor" peers.((i + 1) mod 120).Peer.id succ.Peer.id)
    peers

let test_world_malicious_fraction () =
  let _, w, _ = make_world ~n:200 ~fraction_malicious:0.2 () in
  let mal =
    Array.fold_left (fun acc (n : World.node) -> if n.World.malicious then acc + 1 else acc) 0 w.World.nodes
  in
  Alcotest.(check int) "20% malicious" 40 mal;
  Alcotest.(check (float 0.001)) "fraction" 0.2 (World.malicious_fraction w)

let test_world_certs_verify () =
  let _, w, _ = make_world ~n:50 () in
  Array.iter
    (fun (n : World.node) ->
      Alcotest.(check bool) "cert valid" true
        (Octo_crypto.Cert.verify w.World.authority ~now:(World.now w) n.World.cert))
    w.World.nodes

let test_world_pool_provisioned () =
  let _, w, _ = make_world ~n:50 () in
  Array.iter
    (fun (n : World.node) ->
      Alcotest.(check bool) "pool filled" true
        (List.length n.World.pool = Config.pool_target);
      (* Session keys are actually installed at the relays. *)
      List.iter
        (fun (p : World.pair) ->
          let relay_has (r : World.relay) =
            World.Imap.mem (World.node w r.World.r_peer.Peer.addr).World.sessions r.World.r_sid
          in
          Alcotest.(check bool) "sessions installed" true
            (relay_has p.World.p_first && relay_has p.World.p_second))
        n.World.pool)
    w.World.nodes

(* ------------------------------------------------------------------ *)
(* Signed routing state *)

let test_signed_list_verify_and_tamper () =
  let _, w, _ = make_world ~n:50 () in
  let node = World.node w 0 in
  let sl = World.honest_list w node Types.Succ_list in
  let valid = function World.Valid _ -> true | World.Moved _ | World.Invalid -> false in
  Alcotest.(check bool) "verifies" true
    (valid (World.judge_list w ~kind:Types.Succ_list node.World.peer sl));
  let other = World.node w 1 in
  Alcotest.(check bool) "wrong owner" false
    (valid (World.judge_list w ~kind:Types.Succ_list other.World.peer sl));
  (match sl.Types.l_peers with
  | dropped :: rest ->
    let tampered = { sl with Types.l_peers = rest; l_memo = None } in
    Alcotest.(check bool)
      (Printf.sprintf "tampered (dropped %d) rejected" dropped.Peer.id)
      false (World.verify_list w tampered)
  | [] -> Alcotest.fail "empty list");
  (* An adversary cannot re-sign as the owner. *)
  let mal = World.node w 2 in
  let forged = World.sign_list w mal Types.Succ_list sl.Types.l_peers in
  let forged =
    { forged with Types.l_owner = node.World.peer; l_cert = node.World.cert; l_memo = None }
  in
  Alcotest.(check bool) "forged signer rejected" false (World.verify_list w forged)

let test_signed_table_freshness () =
  let engine, w, _ = make_world ~n:50 () in
  let node = World.node w 0 in
  let st = World.honest_table w node in
  Alcotest.(check bool) "fresh ok" true (World.verify_table w st);
  run engine ~until:(w.World.cfg.Config.table_freshness +. 1.0);
  Alcotest.(check bool) "stale rejected" false (World.verify_table w st)

let test_signed_list_ordering_enforced () =
  let _, w, _ = make_world ~n:50 () in
  let node = World.node w 0 in
  let sl = World.honest_list w node Types.Succ_list in
  let shuffled = { sl with Types.l_peers = List.rev sl.Types.l_peers; l_memo = None } in
  (* Re-sign properly so only the ordering check can reject. *)
  let resigned = World.sign_list w node Types.Succ_list shuffled.Types.l_peers in
  Alcotest.(check bool) "disordered rejected" false (World.verify_list w resigned)

(* Regression: signing computes the document digest, so the signed
   document must keep it. In [{ sl with l_sig = sign (list_digest sl) }]
   the memo is copied before the digest runs, and it was lost. *)
let test_signed_docs_keep_memo () =
  let _, w, _ = make_world ~n:50 () in
  let node = World.node w 0 in
  let check_list kind =
    let sl = World.honest_list w node kind in
    match sl.Types.l_memo with
    | Some d ->
      Alcotest.(check bool) "list memo = fresh digest" true
        (Bytes.equal d (Types.list_digest { sl with Types.l_memo = None }))
    | None -> Alcotest.fail "signed list has no digest memo"
  in
  check_list Types.Succ_list;
  check_list Types.Pred_list;
  let st = World.honest_table w node in
  match st.Types.t_memo with
  | Some d ->
    Alcotest.(check bool) "table memo = fresh digest" true
      (Bytes.equal d (Types.table_digest { st with Types.t_memo = None }))
  | None -> Alcotest.fail "signed table has no digest memo"

(* Resumed digests: a node's signatures over unchanged content at later
   times resume the digest from its per-kind mark. Random sign sequences
   on one colluding node mix unchanged content at later times, changed
   successors and fingers, kind switches, colluder-crafted lists and an
   identity change (an empty list signed before and after it has equal
   entries and another owner); every signed document must carry the
   from-scratch digest and verify. *)
type sign_op =
  | Advance of int  (** tenths of a second *)
  | Sign_list of Types.list_kind
  | Sign_table
  | Drop_succ  (** the head of the successor list leaves *)
  | Finger of int * int  (** finger [i] becomes node [j], or empty for [j < 0] *)
  | Crafted of Types.list_kind  (** [Adversary.biased_succs] / [fake_preds] *)
  | Empty of Types.list_kind  (** a crafted list with no entries *)
  | Revive

let sign_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun d -> Advance d) (0 -- 30));
        (4, map (fun k -> Sign_list k) (oneofl [ Types.Succ_list; Types.Pred_list ]));
        (4, return Sign_table);
        (1, return Drop_succ);
        (1, map2 (fun i j -> Finger (i, j)) (0 -- 11) (-1 -- 23));
        (1, map (fun k -> Crafted k) (oneofl [ Types.Succ_list; Types.Pred_list ]));
        (1, map (fun k -> Empty k) (oneofl [ Types.Succ_list; Types.Pred_list ]));
        (1, return Revive);
      ])

let print_sign_op = function
  | Advance d -> Printf.sprintf "Advance %d" d
  | Sign_list Types.Succ_list -> "Sign succs"
  | Sign_list Types.Pred_list -> "Sign preds"
  | Sign_table -> "Sign table"
  | Drop_succ -> "Drop_succ"
  | Finger (i, j) -> Printf.sprintf "Finger (%d, %d)" i j
  | Crafted Types.Succ_list -> "Crafted succs"
  | Crafted Types.Pred_list -> "Crafted preds"
  | Empty Types.Succ_list -> "Empty succs"
  | Empty Types.Pred_list -> "Empty preds"
  | Revive -> "Revive"

let prop_resumed_digests =
  QCheck.Test.make ~name:"resumed digest = from-scratch digest" ~count:100
    (QCheck.make ~print:QCheck.Print.(list print_sign_op) QCheck.Gen.(list_size (1 -- 40) sign_op_gen))
    (fun ops ->
      let engine, w, _ = make_world ~n:24 ~fraction_malicious:0.25 () in
      let node = List.hd (World.colluders w) in
      let signed_ok ~digest ~memo ~cert ~signature =
        Option.equal Bytes.equal memo (Some digest)
        && Octo_crypto.Keys.verify w.World.registry cert.Octo_crypto.Cert.public digest signature
      in
      let list_ok (sl : Types.signed_list) =
        signed_ok ~digest:(Types.list_digest { sl with Types.l_memo = None }) ~memo:sl.Types.l_memo
          ~cert:sl.Types.l_cert ~signature:sl.Types.l_sig
        && World.verify_list w sl
      in
      let table_ok (st : Types.signed_table) =
        signed_ok ~digest:(Types.table_digest { st with Types.t_memo = None })
          ~memo:st.Types.t_memo ~cert:st.Types.t_cert ~signature:st.Types.t_sig
        && World.verify_table w st
      in
      List.for_all
        (function
          | Advance d ->
            run engine ~until:(Engine.now engine +. (float_of_int d /. 10.0));
            true
          | Sign_list kind -> list_ok (World.honest_list w node kind)
          | Sign_table -> table_ok (World.honest_table w node)
          | Drop_succ ->
            (match Rtable.succs (World.rt node) with
            | p :: _ -> Rtable.remove (World.rt node) ~addr:p.Peer.addr
            | [] -> ());
            true
          | Finger (i, j) ->
            Rtable.set_finger (World.rt node) i
              (if j < 0 then None else Some (World.node w j).World.peer);
            true
          | Crafted kind ->
            let peers =
              match kind with
              | Types.Succ_list -> Adversary.biased_succs w node
              | Types.Pred_list -> Adversary.fake_preds w node
            in
            list_ok (World.sign_list w node kind peers)
          | Empty kind -> list_ok (World.sign_list w node kind [])
          | Revive ->
            World.revive w node.World.addr;
            true)
        ops)

(* The compression counter pins what one exchange costs: a list or table
   signed and then verified. Cold, the digest runs from scratch and the
   verifier checks the signer's certificate once; warm, the same content
   at a later time resumes the digest, hashes the time part and its
   padding, and signing and verifying are one compression each. *)
let test_exchange_compressions () =
  let engine, w, _ = make_world ~n:16 () in
  let node = World.node w 3 in
  let cost f =
    let c0 = Octo_crypto.Sha256.compressions () in
    assert (f ());
    Octo_crypto.Sha256.compressions () - c0
  in
  let list () = World.verify_list w (World.honest_list w node Types.Succ_list) in
  let table () = World.verify_table w (World.honest_table w node) in
  let later () = run engine ~until:(Engine.now engine +. 1.5) in
  let cold_list = cost list in
  later ();
  let warm_list = cost list in
  let cold_table = cost table in
  later ();
  let warm_table = cost table in
  (* Warm: the time part and its padding take 2 compressions here, then
     1 to sign and 1 to verify. With HMAC tags and no marks the same
     exchanges cost 13, 7, 10 and 10. *)
  Alcotest.(check (list int)) "cold list, warm list, cold table, warm table"
    [ 8; 4; 8; 4 ]
    [ cold_list; warm_list; cold_table; warm_table ]

(* Every digest kind against the encoding it had before the streaming
   writer: fields rendered to strings ([string_of_int], [Printf "%.6f"],
   [Sha256.hex]), joined with [String.concat], then each part hashed as
   [string_of_int len ^ ":" ^ part]. Signatures made before the writer
   must keep verifying. *)
module Reference_digest = struct
  module Sha256 = Octo_crypto.Sha256

  let parts ps =
    let ctx = Sha256.init () in
    List.iter
      (fun part ->
        Sha256.update_string ctx (string_of_int (String.length part));
        Sha256.update_string ctx ":";
        Sha256.update_string ctx part)
      ps;
    Sha256.finalize ctx

  let peer p = Printf.sprintf "%d@%d" p.Peer.id p.Peer.addr
  let peers ps = String.concat "," (List.map peer ps)
  let time = Printf.sprintf "%.6f"
  let hex b = Sha256.hex b

  let list (sl : Types.signed_list) =
    parts
      [
        "slist";
        peer sl.Types.l_owner;
        (match sl.Types.l_kind with Types.Succ_list -> "S" | Types.Pred_list -> "P");
        peers sl.Types.l_peers;
        time sl.Types.l_time;
      ]

  let table (st : Types.signed_table) =
    let finger = function None -> "-" | Some p -> peer p in
    parts
      [
        "table";
        peer st.Types.t_owner;
        String.concat "," (List.map finger st.Types.t_fingers);
        peers st.Types.t_succs;
        time st.Types.t_time;
      ]

  let receipt ~cid ~signer ~time:t = parts [ "receipt"; string_of_int cid; peer signer; time t ]

  let statement ~witness ~target ~cid ~time:t =
    parts [ "statement"; peer witness; peer target; string_of_int cid; time t ]

  let query ~target ~cid q =
    let body =
      match q with
      | Types.Q_table { session } -> (
        "qt" ^ match session with Some (sid, _) -> string_of_int sid | None -> "-")
      | Types.Q_list Types.Succ_list -> "qls"
      | Types.Q_list Types.Pred_list -> "qlp"
      | Types.Q_phase2 { seed; length } -> Printf.sprintf "qp2:%d:%d" seed length
      | Types.Q_establish { sid; _ } -> Printf.sprintf "qe:%d" sid
      | Types.Q_put { key; value } ->
        Printf.sprintf "qp:%d:%s" key (hex (Sha256.digest_bytes value))
      | Types.Q_get { key } -> Printf.sprintf "qg:%d" key
      | Types.Q_echo payload -> "qec:" ^ hex (Sha256.digest_bytes payload)
    in
    parts [ "query"; peer target; string_of_int cid; body ]

  let reply ~cid r =
    let body =
      match r with
      | None -> "none"
      | Some (Types.R_table st) -> hex (table st)
      | Some (Types.R_list sl) -> hex (list sl)
      | Some (Types.R_phase2 tables) -> String.concat "," (List.map (fun t -> hex (table t)) tables)
      | Some Types.R_ok -> "ok"
      | Some Types.R_stored -> "stored"
      | Some (Types.R_value None) -> "value:-"
      | Some (Types.R_value (Some v)) -> "value:" ^ hex (Sha256.digest_bytes v)
      | Some (Types.R_echo v) -> "echo:" ^ hex (Sha256.digest_bytes v)
    in
    parts [ "reply"; string_of_int cid; body ]
end

let digest_cert =
  lazy
    (let registry = Octo_crypto.Keys.create_registry () in
     let rng = Rng.create ~seed:3 in
     let auth = Octo_crypto.Cert.create_authority registry rng in
     let kp = Octo_crypto.Keys.generate registry rng in
     Octo_crypto.Cert.issue auth ~node_id:1 ~addr:2 ~public:kp.Octo_crypto.Keys.public ~now:0.0
       ~expires:1e9)

module Digest_gen = struct
  module G = QCheck.Gen

  let int = G.oneof [ G.small_signed_int; G.int; G.oneofl [ 0; -1; max_int; min_int ] ]
  let peer = G.map2 (fun id addr -> Peer.make ~id ~addr) int int
  let peers = G.list_size (G.int_bound 16) peer

  let time =
    G.oneof
      [ G.float_range 0.0 1e5; G.map Int64.float_of_bits G.int64; G.oneofl [ -0.0; 0.0078125 ] ]

  let bytes = G.bytes_size (G.int_bound 40)

  let list =
    G.map4
      (fun owner kind ps t ->
        {
          Types.l_owner = owner;
          l_kind = (if kind then Types.Succ_list else Types.Pred_list);
          l_peers = ps;
          l_time = t;
          l_sig = Octo_crypto.Keys.forge ();
          l_cert = Lazy.force digest_cert;
          l_memo = None;
        })
      peer G.bool peers time

  let table =
    G.map4
      (fun owner fingers succs t ->
        {
          Types.t_owner = owner;
          t_fingers = fingers;
          t_succs = succs;
          t_time = t;
          t_sig = Octo_crypto.Keys.forge ();
          t_cert = Lazy.force digest_cert;
          t_memo = None;
        })
      peer
      (G.list_size (G.int_bound 16) (G.opt peer))
      peers time

  let query =
    G.oneof
      [
        G.map (fun s -> Types.Q_table { session = s }) (G.opt (G.pair int bytes));
        G.map (fun k -> Types.Q_list (if k then Types.Succ_list else Types.Pred_list)) G.bool;
        G.map2 (fun seed length -> Types.Q_phase2 { seed; length }) int int;
        G.map2 (fun sid key -> Types.Q_establish { sid; key }) int bytes;
        G.map2 (fun key value -> Types.Q_put { key; value }) int bytes;
        G.map (fun key -> Types.Q_get { key }) int;
        G.map (fun b -> Types.Q_echo b) bytes;
      ]

  let reply =
    G.opt
      (G.oneof
         [
           G.map (fun st -> Types.R_table st) table;
           G.map (fun sl -> Types.R_list sl) list;
           G.map (fun ts -> Types.R_phase2 ts) (G.list_size (G.int_bound 3) table);
           G.return Types.R_ok;
           G.return Types.R_stored;
           G.map (fun v -> Types.R_value v) (G.opt bytes);
           G.map (fun b -> Types.R_echo b) bytes;
         ])
end

let prop_digests_match_reference =
  let open Digest_gen in
  QCheck.Test.make ~name:"every digest kind = reference" ~count:500
    (QCheck.make
       (G.quad list table (G.quad int peer peer time) (G.triple query reply peer)))
    (fun (sl, st, (cid, p1, p2, t), (q, r, target)) ->
      Bytes.equal (Types.list_digest sl) (Reference_digest.list sl)
      && Bytes.equal (Types.table_digest st) (Reference_digest.table st)
      && Bytes.equal
           (Types.receipt_digest ~cid ~signer:p1 ~time:t)
           (Reference_digest.receipt ~cid ~signer:p1 ~time:t)
      && Bytes.equal
           (Types.statement_digest ~witness:p1 ~target:p2 ~cid ~time:t)
           (Reference_digest.statement ~witness:p1 ~target:p2 ~cid ~time:t)
      && Bytes.equal (Types.query_digest ~target ~cid q) (Reference_digest.query ~target ~cid q)
      && Bytes.equal (Types.reply_digest ~cid r) (Reference_digest.reply ~cid r))

(* Minor words allocated by [n] calls of [f] after one warm-up call.
   Meaningful only under the native-code compiler. *)
let minor_words_of n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. before

let allocation_list =
  lazy
    {
      Types.l_owner = Peer.make ~id:123456789 ~addr:17;
      l_kind = Types.Succ_list;
      l_peers = List.init 6 (fun i -> Peer.make ~id:(987654321 * (i + 1)) ~addr:(100 + i));
      l_time = 1234.5678;
      l_sig = Octo_crypto.Keys.forge ();
      l_cert = Lazy.force digest_cert;
      l_memo = None;
    }

let test_list_digest_allocation () =
  match Sys.backend_type with
  | Sys.Native ->
    let sl = Lazy.force allocation_list in
    let words =
      minor_words_of 10_000 (fun () ->
          sl.Types.l_memo <- None;
          ignore (Types.list_digest sl))
    in
    (* The 32-byte digest (6 words with its header) and its [Some] memo
       cell (2). *)
    Alcotest.(check bool)
      (Printf.sprintf "fresh 6-peer list digest: %g words per call" (words /. 10_000.))
      true
      (words <= 8.0 *. 10_000.)
  | Sys.Bytecode | Sys.Other _ -> ()

let test_table_size_allocation () =
  match Sys.backend_type with
  | Sys.Native ->
    let sl = Lazy.force allocation_list in
    let table =
      {
        Types.t_owner = sl.Types.l_owner;
        t_fingers = List.init 12 (fun i -> if i mod 3 = 0 then None else Some sl.Types.l_owner);
        t_succs = sl.Types.l_peers;
        t_time = 1.0;
        t_sig = Octo_crypto.Keys.forge ();
        t_cert = Lazy.force digest_cert;
        t_memo = None;
      }
    in
    let msg = Types.Table_resp { rid = 1; table } in
    let words = minor_words_of 10_000 (fun () -> ignore (Types.size msg)) in
    Alcotest.(check (float 0.0)) "Types.size of a Table_resp" 0.0 words
  | Sys.Bytecode | Sys.Other _ -> ()

(* Regression: verification itself is revocation-aware. A table that
   verified before its owner's certificate was revoked must verify [false]
   afterwards: a verdict that outlived the revocation would let ejected
   nodes keep serving signed routing state. *)
let test_verify_cache_revocation_aware () =
  let engine, w, _ = make_world ~n:50 () in
  let node = World.node w 0 in
  let st = World.honest_table w node in
  let sl = World.honest_list w node Types.Succ_list in
  (* Both verify while the owner is in good standing. *)
  Alcotest.(check bool) "table valid pre-revocation" true (World.verify_table w st);
  Alcotest.(check bool) "list valid pre-revocation" true (World.verify_list w sl);
  (* Revocation strictly after signing: certificates are valid at signing
     time, so the documents remain usable as historical evidence. *)
  run engine ~until:1.0;
  World.revoke w node.World.peer.Peer.addr;
  Alcotest.(check bool) "table invalid post-revocation" false (World.verify_table w st);
  Alcotest.(check bool) "list invalid post-revocation" false (World.verify_list w sl);
  (* CA investigations examine historical evidence: with [~revoked_ok:true]
     the documents still verify against the signing-time checks. *)
  Alcotest.(check bool) "table ok as historical evidence" true
    (World.verify_table w ~revoked_ok:true st);
  Alcotest.(check bool) "list ok as historical evidence" true
    (World.verify_list w ~revoked_ok:true sl);
  (* An unrelated node's state is unaffected by the revocation. *)
  let other = World.node w 1 in
  Alcotest.(check bool) "other table still valid" true
    (World.verify_table w (World.honest_table w other))

(* Join installs only a predecessor list its successor signed. With the
   signature forged in flight on the first predecessor list the rejoining
   node receives (the join's: the finger round that fetches more starts
   only after it), the node still joins (its successor list verified) but
   adopts no predecessor from it; nothing else in the run writes its
   predecessor list. *)
let test_join_rejects_forged_pred_list () =
  let engine, w, _ = make_world ~n:40 ~seed:5 () in
  let addr = 7 in
  World.kill w addr;
  World.revive w addr;
  let node = World.node w addr in
  let forged = ref 0 in
  let net = w.World.net in
  Octo_sim.Net.set_fault_hook net
    (Some
       (fun env ->
         match env.Octo_sim.Net.payload with
         | Types.List_resp { rid; slist }
           when env.Octo_sim.Net.dst = addr && slist.Types.l_kind = Types.Pred_list && !forged = 0
           ->
           incr forged;
           let slist = { slist with Types.l_sig = Octo_crypto.Keys.forge (); l_memo = None } in
           Octo_sim.Net.Fault_deliver
             [
               {
                 Octo_sim.Net.d_extra = 0.0;
                 d_payload = Types.List_resp { rid; slist };
                 d_size = env.Octo_sim.Net.size;
               };
             ]
         | _ -> Octo_sim.Net.Fault_pass));
  let joined = ref None in
  Maintain.join w node (fun ok -> joined := Some ok);
  Engine.run_until_idle engine ();
  Octo_sim.Net.set_fault_hook net None;
  Alcotest.(check (option bool)) "joined" (Some true) !joined;
  Alcotest.(check int) "one predecessor list forged" 1 !forged;
  Alcotest.(check bool) "successors installed" true (Rtable.succs (World.rt node) <> []);
  Alcotest.(check (list int)) "no predecessor from the forged list" []
    (List.map (fun (p : Peer.t) -> p.Peer.addr) (Rtable.preds (World.rt node)))

(* A receipt or statement may name any signer address. One outside the
   population (negative, or the CA's) verifies false, and a node that
   receives such a receipt drops it. *)
let test_receipt_foreign_signer () =
  let engine, w, _ = make_world ~n:16 () in
  let honest = World.sign_receipt w (World.node w 2) ~cid:77 in
  Alcotest.(check bool) "honest receipt verifies" true (World.verify_receipt w honest);
  List.iter
    (fun addr ->
      let signer = Peer.make ~id:honest.Types.rc_signer.Peer.id ~addr in
      let receipt = { honest with Types.rc_signer = signer } in
      Alcotest.(check bool) (Printf.sprintf "receipt from %d" addr) false
        (World.verify_receipt w receipt);
      let statement =
        {
          (World.sign_statement w (World.node w 2) ~target:(World.node w 5).World.peer ~cid:77)
          with
          Types.ws_witness = signer;
        }
      in
      Alcotest.(check bool) (Printf.sprintf "statement from %d" addr) false
        (World.verify_statement w statement);
      World.send w ~src:0 ~dst:1 (Types.Receipt_msg { cid = 77; receipt });
      run engine ~until:(Engine.now engine +. 5.0);
      Alcotest.(check bool) "not stored" false
        (Octo_sim.Imap.mem (World.node w 1).World.receipts 77))
    [ -1; w.World.ca_addr; max_int ]

(* The member index is built in one pass; with reserved slots it must
   equal what inserting each live node's identity builds. *)
let test_members_linear_build () =
  let engine = Engine.create ~seed:3 () in
  let latency = Latency.create (Rng.split (Engine.rng engine)) ~n:40 in
  let w = World.create engine latency ~n:30 ~reserve:6 in
  let expected = Octo_sim.Imap.create () in
  Array.iter
    (fun (n : World.node) ->
      if n.World.alive then Octo_sim.Imap.set expected n.World.peer.Peer.id n.World.peer)
    w.World.nodes;
  let bindings m = Octo_sim.Imap.fold (fun k p acc -> (k, p.Peer.addr) :: acc) m [] in
  Alcotest.(check int) "live nodes" 30 (Octo_sim.Imap.length expected);
  Alcotest.(check (list (pair int int))) "members" (bindings expected) (bindings w.World.members)

(* A revocation in a fresh world, before any routing table is touched:
   every other node's successors, predecessors and fingers drop the
   revoked identity, and the ring converges on the survivors. *)
let test_revoke_before_any_touch () =
  let _, w, _ = make_world ~n:60 () in
  Alcotest.(check bool) "no table touched yet" true
    (Array.for_all (fun (n : World.node) -> not (Lazy.is_val n.World.rt)) w.World.nodes);
  let victim = 17 in
  World.revoke w victim;
  let names (p : Peer.t) = p.Peer.addr = victim in
  let named = ref 0 in
  Array.iter
    (fun (n : World.node) ->
      if n.World.addr <> victim then begin
        let rt = World.rt n in
        let fingers = List.filter_map (Rtable.finger rt) (List.init (Rtable.num_fingers rt) Fun.id) in
        if List.exists names (Rtable.succs rt @ Rtable.preds rt @ fingers) then incr named
      end)
    w.World.nodes;
  Alcotest.(check int) "tables naming the revoked node" 0 !named;
  let chk = Invariant.create w in
  Invariant.check_convergence chk;
  Alcotest.(check int) "convergence violations" 0 (List.length (Invariant.violations chk))

(* ------------------------------------------------------------------ *)
(* Anonymous queries *)

let test_anon_query_roundtrip () =
  let engine, w, _ = make_world ~n:80 ~seed:7 () in
  let node = World.node w 0 in
  let target = (World.node w 33).World.peer in
  let got = ref None in
  (match Query.pick_pairs w node ~n:2 with
  | [ ab; cd ] ->
    Query.send w node ~relays:(Query.path_relays ab cd) ~target
      ~query:(Types.Q_table { session = None })
      (fun reply -> got := Some reply)
  | _ -> Alcotest.fail "no pairs");
  Engine.run_until_idle engine ();
  (match !got with
  | Some (Some (Types.R_table st)) ->
    Alcotest.(check bool) "reply from target" true (Peer.equal st.Types.t_owner target);
    Alcotest.(check bool) "reply verifies" true
      (match World.judge_table w target st with World.Valid _ -> true | _ -> false)
  | _ -> Alcotest.fail "no reply");
  (* The target never saw the initiator's address directly: all its traffic
     came from the exit relay. *)
  ()

let test_anon_query_timeout_on_dead_relay () =
  let engine, w, _ = make_world ~n:80 ~seed:8 () in
  let node = World.node w 0 in
  let target = (World.node w 30).World.peer in
  match Query.pick_pairs w node ~n:2 with
  | [ ab; cd ] ->
    World.kill w cd.World.p_first.World.r_peer.Peer.addr;
    let got = ref `Pending in
    Query.send w node ~relays:(Query.path_relays ab cd) ~target
      ~query:(Types.Q_table { session = None })
      (fun reply -> got := `Got reply);
    Engine.run_until_idle engine ();
    (match !got with
    | `Got None -> ()
    | `Got (Some _) -> Alcotest.fail "should have timed out"
    | `Pending -> Alcotest.fail "continuation never fired")
  | _ -> Alcotest.fail "no pairs"

let test_anon_query_duplicate_relays_rejected () =
  let engine, w, _ = make_world ~n:80 ~seed:9 () in
  let node = World.node w 0 in
  match Query.pick_pairs w node ~n:1 with
  | [ ab ] ->
    let got = ref `Pending in
    (* Same pair twice: duplicate relays on the path. *)
    Query.send w node ~relays:(Query.path_relays ab ab)
      ~target:(World.node w 10).World.peer
      ~query:(Types.Q_table { session = None })
      (fun reply -> got := `Got reply);
    Engine.run_until_idle engine ();
    (match !got with
    | `Got None -> ()
    | _ -> Alcotest.fail "expected fast failure")
  | _ -> Alcotest.fail "no pairs"

let test_anon_list_query () =
  let engine, w, _ = make_world ~n:80 ~seed:10 () in
  let node = World.node w 5 in
  let target = (World.node w 40).World.peer in
  let got = ref None in
  (match Query.pick_pairs w node ~n:2 with
  | [ ab; cd ] ->
    Query.fetch_list w node ~relays:(Query.path_relays ab cd) ~kind:Types.Succ_list target
      ~on_lost:(fun () -> Alcotest.fail "list reply lost")
      (fun verdict -> got := Some verdict)
  | _ -> Alcotest.fail "no pairs");
  Engine.run_until_idle engine ();
  match !got with
  | Some (World.Valid sl) ->
    Alcotest.(check bool) "signed succ list" true
      (sl.Types.l_kind = Types.Succ_list && Peer.equal sl.Types.l_owner target)
  | _ -> Alcotest.fail "no list reply"

(* ------------------------------------------------------------------ *)
(* Random walk *)

let test_walk_yields_pair () =
  let engine, w, _ = make_world ~n:150 ~seed:11 () in
  let node = World.node w 0 in
  let result = ref None in
  Walk.run w node (fun pair -> result := Some pair);
  Engine.run_until_idle engine ();
  match !result with
  | Some (Some pair) ->
    let c = pair.World.p_first and d = pair.World.p_second in
    Alcotest.(check bool) "pair members distinct" false (Peer.equal c.World.r_peer d.World.r_peer);
    Alcotest.(check bool) "not self" true
      (c.World.r_peer.Peer.addr <> 0 && d.World.r_peer.Peer.addr <> 0);
    (* Session keys installed at the pair members. *)
    let has (r : World.relay) =
      World.Imap.mem (World.node w r.World.r_peer.Peer.addr).World.sessions r.World.r_sid
    in
    Alcotest.(check bool) "sessions live" true (has c && has d)
  | Some None -> Alcotest.fail "walk gave up"
  | None -> Alcotest.fail "walk never completed"

(* Restart budget: with every finger dead, each attempt's first hop times
   out and restarts the walk, so the initiator sends exactly
   [walk_max_attempts] first-hop requests before giving up once. *)
let test_walk_abandoned_after_budget () =
  let engine, w, _ = make_world ~n:50 ~seed:13 () in
  let node = World.node w 0 in
  let fingers = Rtable.fingers (World.rt node) in
  Alcotest.(check bool) "fingers to kill" true
    (fingers <> [] && List.for_all (fun (p : Peer.t) -> p.Peer.addr <> 0) fingers);
  List.iter (fun (p : Peer.t) -> World.kill w p.Peer.addr) fingers;
  let trace = Octo_sim.Trace.create () in
  Octo_sim.Trace.install trace;
  let result = ref None in
  Walk.run w node (fun pair -> result := Some pair);
  Engine.run_until_idle engine ();
  Octo_sim.Trace.uninstall ();
  let from_node f =
    List.length
      (List.filter
         (fun (ev : Octo_sim.Trace.event) -> ev.Octo_sim.Trace.node = 0 && f ev.Octo_sim.Trace.data)
         (Octo_sim.Trace.events trace))
  in
  Alcotest.(check int) "one first-hop request per attempt" Config.walk_max_attempts
    (from_node (function Octo_sim.Trace.Msg { kind = "Anon_req"; _ } -> true | _ -> false));
  Alcotest.(check int) "abandoned once, after every attempt" 1
    (from_node (function
      | Octo_sim.Trace.Walk_abandoned { attempts } -> attempts = Config.walk_max_attempts
      | _ -> false));
  Alcotest.(check int) "no other abandonment" 1
    (from_node (function Octo_sim.Trace.Walk_abandoned _ -> true | _ -> false));
  Alcotest.(check int) "walks_abandoned counted" 1 w.World.metrics.World.walks_abandoned;
  Alcotest.(check bool) "calls back with None" true (!result = Some None)

let test_walk_phase2_verification_rejects_wrong_seed () =
  let _, w, _ = make_world ~n:150 ~seed:12 () in
  (* Build a legitimate bundle by hand, then check the verifier notices a
     seed mismatch. *)
  let t0 = World.honest_table w (World.node w 3) in
  let entries = Serve.table_entries t0 in
  let seed = 12345 in
  let index seed = Serve.phase2_index ~seed ~step:0 ~count:(List.length entries) in
  let pick = List.nth entries (index seed) in
  let t1 = World.honest_table w (World.node w pick.Peer.addr) in
  let bundle = [ t0; t1 ] in
  Alcotest.(check bool) "correct seed accepted" true
    (Walk.verify_phase2 w ~expected_owner:t0.Types.t_owner ~seed ~length:1 bundle);
  (* A wrong seed only shows if its step-0 pick is another entry: take the
     first seed after [seed] whose pick differs. *)
  let rec differing s = if index s <> index seed then s else differing (s + 1) in
  let wrong = differing (seed + 1) in
  Alcotest.(check bool) "wrong seed picks another entry" false
    (Peer.equal pick (List.nth entries (index wrong)));
  Alcotest.(check bool) "wrong seed rejected" false
    (Walk.verify_phase2 w ~expected_owner:t0.Types.t_owner ~seed:wrong ~length:1 bundle);
  (* Wrong owner is always rejected. *)
  Alcotest.(check bool) "wrong owner rejected" false
    (Walk.verify_phase2 w ~expected_owner:t1.Types.t_owner ~seed ~length:1 bundle)

(* Appendix I phase 2 is answered only at the walk length [Walk] sends:
   any other length gets no reply and makes the node fetch no table, so
   one query cannot buy an unbounded walk (uncapped, a length-50 query
   costs 50 table requests and a 51-table reply). *)
let test_phase2_length_capped () =
  let engine, w, _ = make_world ~n:60 ~seed:9 () in
  let ask length =
    let sent_before = Octo_sim.Net.messages_sent w.World.net in
    let answer = ref None in
    World.rpc w ~src:0 ~dst:1
      ~make:(fun rid -> Types.Anon_req { rid; query = Types.Q_phase2 { seed = 77; length } })
      ~on_timeout:(fun () -> answer := Some None)
      (fun msg ->
        match msg with
        | Types.Anon_resp { reply = Types.R_phase2 tables; _ } ->
          answer := Some (Some (List.length tables))
        | _ -> Alcotest.fail "unexpected phase-2 reply");
    Engine.run_until_idle engine ();
    (Octo_sim.Net.messages_sent w.World.net - sent_before, !answer)
  in
  let l = Config.walk_length in
  let sent, answer = ask l in
  Alcotest.(check (option (option int))) "walk length answered" (Some (Some (l + 1))) answer;
  Alcotest.(check int) "request, one table RPC per hop, reply" ((2 * l) + 2) sent;
  List.iter
    (fun length ->
      let sent, answer = ask length in
      Alcotest.(check (option (option int)))
        (Printf.sprintf "length %d unanswered" length)
        (Some None) answer;
      Alcotest.(check int) (Printf.sprintf "length %d: only the request" length) 1 sent)
    [ 50; 500; l + 1; l - 1 ]

(* ------------------------------------------------------------------ *)
(* Anonymous lookup *)

let test_anonymous_lookup_correct () =
  let engine, w, _ = make_world ~n:200 ~seed:13 () in
  let rng = Rng.create ~seed:99 in
  let ok = ref 0 and total = 25 in
  for _ = 1 to total do
    let from = World.random_alive w rng in
    let key = Id.random w.World.space rng in
    let expected = World.find_owner w ~key in
    Olookup.anonymous w (World.node w from) ~key (fun result ->
        match (result.Olookup.owner, expected) with
        | Some got, Some want when Peer.equal got want -> incr ok
        | _ -> ())
  done;
  Engine.run_until_idle engine ();
  Alcotest.(check int) "all anonymous lookups correct" total !ok

let test_direct_lookup_correct () =
  let engine, w, _ = make_world ~n:200 ~seed:14 () in
  let rng = Rng.create ~seed:98 in
  let ok = ref 0 and total = 40 in
  for _ = 1 to total do
    let from = World.random_alive w rng in
    let key = Id.random w.World.space rng in
    let expected = World.find_owner w ~key in
    Olookup.direct w (World.node w from) ~key (fun result ->
        match (result.Olookup.owner, expected) with
        | Some got, Some want when Peer.equal got want -> incr ok
        | _ -> ())
  done;
  Engine.run_until_idle engine ();
  Alcotest.(check int) "all direct lookups correct" total !ok

let test_lookup_bias_attack_biases_results () =
  (* Without identification running, a 100% bias attack must actually bias
     a noticeable share of lookups (the attack is real). *)
  let engine, w, _ = make_world ~n:200 ~seed:15 ~fraction_malicious:0.2 () in
  w.World.attack <- { World.kind = World.Bias; rate = 1.0; consistency = 0.5 };
  let rng = Rng.create ~seed:97 in
  let biased = ref 0 and total = 60 in
  for _ = 1 to total do
    let from =
      let rec pick () =
        let a = World.random_alive w rng in
        if (World.node w a).World.malicious then pick () else a
      in
      pick ()
    in
    let key = Id.random w.World.space rng in
    Olookup.anonymous w (World.node w from) ~key (fun result ->
        match result.Olookup.owner with
        | Some got ->
          let truth = World.find_owner w ~key in
          if
            (World.node w got.Peer.addr).World.malicious
            && match truth with Some t -> not (Peer.equal t got) | None -> false
          then incr biased
        | None -> ())
  done;
  Engine.run_until_idle engine ();
  Alcotest.(check bool)
    (Printf.sprintf "some lookups biased (%d/%d)" !biased total)
    true (!biased >= 3)

(* ------------------------------------------------------------------ *)
(* Secret neighbor surveillance + CA chain *)

let test_surveillance_detects_bias () =
  let engine, w, _ = make_world ~n:200 ~seed:16 ~fraction_malicious:0.2 () in
  w.World.attack <- { World.kind = World.Bias; rate = 1.0; consistency = 0.5 };
  (* Mark predecessor knowledge as old enough. *)
  run engine ~until:15.0;
  Array.iter
    (fun (node : World.node) ->
      if not node.World.malicious then Surveillance.check w node)
    w.World.nodes;
  Engine.run_until_idle engine ();
  let revoked_mal =
    Array.to_list w.World.nodes
    |> List.filter (fun (n : World.node) -> n.World.revoked && n.World.malicious)
    |> List.length
  in
  let revoked_honest =
    Array.to_list w.World.nodes
    |> List.filter (fun (n : World.node) -> n.World.revoked && not n.World.malicious)
    |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "malicious revoked (%d)" revoked_mal)
    true (revoked_mal > 5);
  Alcotest.(check int) "no honest revoked" 0 revoked_honest

let test_surveillance_quiet_when_honest () =
  let engine, w, _ = make_world ~n:150 ~seed:17 () in
  run engine ~until:15.0;
  Array.iter (fun (node : World.node) -> Surveillance.check w node) w.World.nodes;
  Engine.run_until_idle engine ();
  Alcotest.(check int) "no reports" 0 w.World.metrics.World.reports;
  Alcotest.(check int) "no revocations" 0 (Octo_crypto.Cert.revoked_count w.World.authority)

(* Manual omission-chain unit test: a malicious node omits an honest node
   and cannot justify; the chain convicts it. *)
let test_omission_chain_convicts () =
  let engine, w, _ = make_world ~n:150 ~seed:18 ~fraction_malicious:0.2 () in
  w.World.attack <- { World.kind = World.Bias; rate = 1.0; consistency = 0.5 };
  run engine ~until:12.0;
  (* Find a malicious node with an honest direct successor. *)
  let candidate =
    Array.to_list w.World.nodes
    |> List.find_opt (fun (n : World.node) ->
           n.World.malicious
           &&
           match Rtable.successor (World.rt n) with
           | Some s -> not (World.node w s.Peer.addr).World.malicious
           | None -> false)
  in
  match candidate with
  | None -> Alcotest.fail "no suitable topology"
  | Some mal ->
    let missing = Option.get (Rtable.successor (World.rt mal)) in
    let claimed = Adversary.serve_list w mal Types.Succ_list in
    Alcotest.(check bool) "attack omits the successor" false
      (List.exists (Peer.equal missing) claimed.Types.l_peers);
    let outcome = ref None in
    Ca.investigate_omission w ~missing ~owner:claimed.Types.l_owner
      ~peers:claimed.Types.l_peers ~time:claimed.Types.l_time ~depth:0 (fun o ->
        outcome := Some o);
    Engine.run_until_idle engine ();
    (match !outcome with
    | Some (Ca.Convicted addrs) ->
      Alcotest.(check bool) "a colluder convicted" true
        (List.for_all (fun a -> (World.node w a).World.malicious) addrs && addrs <> [])
    | Some Ca.Nothing -> Alcotest.fail "chain convicted nobody"
    | None -> Alcotest.fail "chain never concluded")

let test_omission_chain_honest_survives () =
  (* An honest node accused over a node that genuinely is not in its span
     must not be convicted. *)
  let engine, w, _ = make_world ~n:150 ~seed:19 () in
  run engine ~until:12.0;
  let node = World.node w 0 in
  let claimed = World.honest_list w node Types.Succ_list in
  (* Pick some far-away node as "missing": beyond the list span. *)
  let missing = (World.node w 77).World.peer in
  let in_span =
    List.exists (Peer.equal missing) claimed.Types.l_peers
  in
  if not in_span then begin
    let outcome = ref None in
    Ca.investigate_omission w ~missing ~owner:claimed.Types.l_owner
      ~peers:claimed.Types.l_peers ~time:claimed.Types.l_time ~depth:0 (fun o ->
        outcome := Some o);
    Engine.run_until_idle engine ();
    match !outcome with
    | Some Ca.Nothing | None -> ()
    | Some (Ca.Convicted addrs) ->
      if List.exists (fun a -> not (World.node w a).World.malicious) addrs then
        Alcotest.fail "honest node convicted"
  end

(* A chain launched past the depth budget must conclude Nothing at once —
   the bound is what keeps a crafted accusation from walking the whole
   ring. Same convicting topology as above, so only the depth differs. *)
let test_omission_chain_depth_exhausted () =
  let engine, w, _ = make_world ~n:150 ~seed:18 ~fraction_malicious:0.2 () in
  w.World.attack <- { World.kind = World.Bias; rate = 1.0; consistency = 0.5 };
  run engine ~until:12.0;
  let candidate =
    Array.to_list w.World.nodes
    |> List.find_opt (fun (n : World.node) ->
           n.World.malicious
           &&
           match Rtable.successor (World.rt n) with
           | Some s -> not (World.node w s.Peer.addr).World.malicious
           | None -> false)
  in
  match candidate with
  | None -> Alcotest.fail "no suitable topology"
  | Some mal ->
    let missing = Option.get (Rtable.successor (World.rt mal)) in
    let claimed = Adversary.serve_list w mal Types.Succ_list in
    let outcome = ref None in
    Ca.investigate_omission w ~missing ~owner:claimed.Types.l_owner
      ~peers:claimed.Types.l_peers ~time:claimed.Types.l_time
      ~depth:(Config.max_chain_depth + 1) (fun o -> outcome := Some o);
    Engine.run_until_idle engine ();
    (match !outcome with
    | Some Ca.Nothing -> ()
    | Some (Ca.Convicted _) -> Alcotest.fail "exhausted chain still convicted"
    | None -> Alcotest.fail "exhausted chain never concluded")

(* ------------------------------------------------------------------ *)
(* CA certificate admission (Sybil flooding defense) *)

let admission_cfg =
  { Config.default with
    Config.ca_admission = true;
    ca_admission_rate = 0.5;
    ca_admission_burst = 3;
  }

let test_admission_burst_boundary () =
  let _, _, ca = make_world ~n:40 ~cfg:admission_cfg () in
  (* The initial bucket holds exactly [burst] tokens: requests 1..burst
     are granted back-to-back, request burst+1 is refused. *)
  for i = 1 to 3 do
    match Ca.request_admission ca ~source:0 ~requested_id:i with
    | Ca.Admitted _ -> ()
    | _ -> Alcotest.failf "request %d within burst refused" i
  done;
  (match Ca.request_admission ca ~source:0 ~requested_id:99 with
  | Ca.Refused_rate_limited -> ()
  | _ -> Alcotest.fail "burst+1 not rate-limited");
  Alcotest.(check int) "admitted" 3 (Ca.admitted ca);
  Alcotest.(check int) "refused" 1 (Ca.refused ca);
  Alcotest.(check int) "cost counts refusals too" 4 (Ca.admission_cost ca 0)

let test_admission_refill_over_time () =
  let engine, _, ca = make_world ~n:40 ~cfg:admission_cfg () in
  for i = 1 to 3 do
    ignore (Ca.request_admission ca ~source:0 ~requested_id:i)
  done;
  (match Ca.request_admission ca ~source:0 ~requested_id:50 with
  | Ca.Refused_rate_limited -> ()
  | _ -> Alcotest.fail "bucket not drained");
  (* rate 0.5 tokens/s: 4.2 seconds buys exactly two more grants. *)
  run engine ~until:4.2;
  let before = Ca.admitted ca in
  for i = 51 to 55 do
    ignore (Ca.request_admission ca ~source:0 ~requested_id:i)
  done;
  Alcotest.(check int) "two refilled tokens" 2 (Ca.admitted ca - before)

let test_admission_deterministic_order () =
  (* Refusals draw no randomness, so a fixed request schedule yields the
     same verdict sequence on every run — and each source spends its own
     bucket (source 0's exhaustion never touches source 1's budget). *)
  let schedule =
    [ (0, 1); (1, 2); (0, 3); (0, 4); (1, 5); (0, 6); (0, 7); (1, 8); (1, 9); (1, 10) ]
  in
  let outcomes () =
    let _, _, ca = make_world ~n:40 ~cfg:admission_cfg () in
    List.map
      (fun (src, id) ->
        match Ca.request_admission ca ~source:src ~requested_id:id with
        | Ca.Admitted _ -> true
        | _ -> false)
      schedule
  in
  let o = outcomes () in
  Alcotest.(check (list bool)) "same schedule, same verdicts" o (outcomes ());
  Alcotest.(check (list bool)) "per-source budgets"
    [ true; true; true; true; true; false; false; true; false; false ]
    o

let test_admission_revoked_banned () =
  let _, w, ca = make_world ~n:40 ~cfg:admission_cfg () in
  World.revoke w 7;
  (match Ca.request_admission ca ~source:7 ~requested_id:123 with
  | Ca.Refused_revoked -> ()
  | _ -> Alcotest.fail "revoked source re-admitted");
  Alcotest.(check int) "refusal recorded" 1 (Ca.refused ca);
  (* The ban is not a rate-limit artifact: a fresh source still gets in. *)
  (match Ca.request_admission ca ~source:8 ~requested_id:124 with
  | Ca.Admitted _ -> ()
  | _ -> Alcotest.fail "honest source refused")

let test_admission_id_taken () =
  let _, w, ca = make_world ~n:40 ~cfg:admission_cfg () in
  let taken = (World.node w 5).World.peer.Peer.id in
  (match Ca.request_admission ca ~source:1 ~requested_id:taken with
  | Ca.Refused_id_taken -> ()
  | _ -> Alcotest.fail "duplicate identifier admitted")

let qcheck_admission_burst =
  QCheck.Test.make ~name:"back-to-back admissions = min(k, burst)" ~count:25
    QCheck.(pair (int_range 0 12) (int_range 1 6))
    (fun (k, burst) ->
      let cfg = { admission_cfg with Config.ca_admission_burst = burst } in
      let _, _, ca = make_world ~n:16 ~cfg () in
      let granted = ref 0 in
      for i = 1 to k do
        match Ca.request_admission ca ~source:3 ~requested_id:i with
        | Ca.Admitted _ -> incr granted
        | _ -> ()
      done;
      !granted = Int.min k burst)

(* ------------------------------------------------------------------ *)
(* Secret finger surveillance *)

let test_finger_check_detects_manipulation () =
  let engine, w, _ = make_world ~n:200 ~seed:20 ~fraction_malicious:0.25 () in
  w.World.attack <- { World.kind = World.Finger_manip; rate = 1.0; consistency = 0.0 };
  run engine ~until:5.0;
  (* An honest node fetches a malicious node's table directly (as a walk
     step would) and audits a manipulated finger. *)
  let checker = World.node w (List.hd (World.alive_honest_addrs w)) in
  let mal =
    Array.to_list w.World.nodes |> List.find (fun (n : World.node) -> n.World.malicious)
  in
  let table = Adversary.serve_table w mal in
  (* Find a manipulated finger index. *)
  let space = w.World.space in
  let manipulated =
    List.mapi (fun i f -> (i, f)) table.Types.t_fingers
    |> List.filter_map (fun (i, f) ->
           match f with
           | Some p when (World.node w p.Peer.addr).World.malicious ->
             let ideal =
               Id.ideal_finger space mal.World.peer.Peer.id
                 ~num_fingers:Config.num_fingers i
             in
             let truth = Option.get (World.find_owner w ~key:ideal) in
             if
               (not (Peer.equal truth p))
               && Id.distance_cw space ideal truth.Peer.id < Id.distance_cw space ideal p.Peer.id
             then Some (i, p, ideal)
             else None
           | _ -> None)
  in
  match manipulated with
  | [] -> Alcotest.fail "adversary produced no manipulated fingers"
  | (_, finger, ideal) :: _ ->
    let outcome = ref None in
    Finger_check.consistency_check w checker ~ideal ~finger (fun o -> outcome := Some o);
    Engine.run_until_idle engine ();
    (match !outcome with
    | Some (`Suspicious _) -> ()
    | Some `Clean -> Alcotest.fail "manipulation declared clean"
    | Some `Unknown -> Alcotest.fail "check could not complete"
    | None -> Alcotest.fail "check never concluded")

let test_finger_check_clean_on_honest () =
  let engine, w, _ = make_world ~n:200 ~seed:21 () in
  run engine ~until:5.0;
  let checker = World.node w 0 in
  let other = World.node w 50 in
  let table = World.honest_table w other in
  let idx, finger =
    List.mapi (fun i f -> (i, f)) table.Types.t_fingers
    |> List.filter_map (fun (i, f) -> Option.map (fun p -> (i, p)) f)
    |> List.hd
  in
  let ideal =
    Id.ideal_finger w.World.space other.World.peer.Peer.id
      ~num_fingers:Config.num_fingers idx
  in
  let outcome = ref None in
  Finger_check.consistency_check w checker ~ideal ~finger (fun o -> outcome := Some o);
  Engine.run_until_idle engine ();
  match !outcome with
  | Some `Clean -> ()
  | Some (`Suspicious _) -> Alcotest.fail "honest finger flagged"
  | Some `Unknown -> Alcotest.fail "check could not complete"
  | None -> Alcotest.fail "check never concluded"

(* ------------------------------------------------------------------ *)
(* Maintenance end-to-end *)

let test_maintain_ring_under_churn () =
  let engine, w, _ = make_world ~n:150 ~seed:22 () in
  Maintain.start
    ~opts:{ Maintain.enable_lookups = false; churn_mean = Some 300.0; enable_checks = false }
    w;
  run engine ~until:120.0;
  (* Alive nodes still resolve lookups correctly. *)
  let rng = Rng.create ~seed:96 in
  let ok = ref 0 and total = 30 in
  for _ = 1 to total do
    let from = World.random_alive w rng in
    let key = Id.random w.World.space rng in
    let expected = World.find_owner w ~key in
    Olookup.direct w (World.node w from) ~key (fun result ->
        match (result.Olookup.owner, expected) with
        | Some got, Some want when Peer.equal got want -> incr ok
        | _ -> ())
  done;
  run engine ~until:180.0;
  Alcotest.(check bool)
    (Printf.sprintf "lookups mostly correct under churn (%d/%d)" !ok total)
    true
    (float_of_int !ok /. float_of_int total >= 0.85)

let test_security_sim_bias_short () =
  (* A short end-to-end security run: bias attackers get identified and the
     malicious fraction declines; no honest node is revoked. *)
  let engine, w, _ = make_world ~n:150 ~seed:23 ~fraction_malicious:0.2 () in
  w.World.attack <- { World.kind = World.Bias; rate = 1.0; consistency = 0.5 };
  Maintain.start
    ~opts:{ Maintain.enable_lookups = true; churn_mean = None; enable_checks = true }
    w;
  run engine ~until:300.0;
  let frac = World.malicious_fraction w in
  Alcotest.(check bool)
    (Printf.sprintf "malicious fraction dropped (%.3f)" frac)
    true (frac < 0.10);
  Alcotest.(check int) "zero honest convicted" 0 w.World.metrics.World.convicted_honest

(* ------------------------------------------------------------------ *)
(* Selective DoS defense *)

(* Appendix II: a witness re-delivers only the onion forward its request
   names. A forged request carrying any other message, or a forward of
   another cid, must get no forward, no receipt wait and so no signed
   failure statement against its target: two such statements convict
   (Ca.investigate_dos). *)
let test_witness_forwards_only_own_cid () =
  let cfg = { Config.default with Config.dos_defense = true } in
  let engine, w, _ = make_world ~n:40 ~seed:5 ~cfg () in
  let target = (World.node w 9).World.peer in
  let ask ~cid fwd =
    let sent_before = Octo_sim.Net.messages_sent w.World.net in
    let answer = ref `None in
    World.rpc w ~src:17 ~dst:3 ~timeout:(4.0 *. Config.receipt_wait)
      ~make:(fun rid -> Types.Witness_req { rid; cid; target; fwd })
      ~on_timeout:(fun () -> ())
      (function
        | Types.Witness_resp { outcome = Either.Left _; _ } -> answer := `Receipt
        | Types.Witness_resp { outcome = Either.Right _; _ } -> answer := `Statement
        | _ -> ());
    Engine.run_until_idle engine ();
    (Octo_sim.Net.messages_sent w.World.net - sent_before, !answer)
  in
  let fwd ~cid =
    Types.Fwd
      {
        cid;
        sid = 0;
        delay = 0.0;
        hops = [];
        target;
        query = Types.Q_table { session = None };
        deadline = World.now w +. 10.0;
        capsule = Bytes.empty;
      }
  in
  let sent, answer = ask ~cid:501 (fwd ~cid:501) in
  Alcotest.(check int) "own forward: request, forward, receipt, answer" 4 sent;
  Alcotest.(check bool) "own forward: the target's receipt comes back" true (answer = `Receipt);
  List.iter
    (fun (what, cid, msg) ->
      let sent, answer = ask ~cid msg in
      Alcotest.(check int) (what ^ ": only the request") 1 sent;
      Alcotest.(check bool) (what ^ ": no statement") true (answer = `None);
      Alcotest.(check bool) (what ^ ": no receipt wait") false
        (World.Imap.mem (World.node w 3).World.witness_waits cid))
    [ ("ping payload", 502, Types.Ping_req { rid = 77 }); ("foreign cid", 503, fwd ~cid:504) ]


let test_dos_dropper_identified () =
  let cfg = { Config.default with Config.dos_defense = true } in
  let engine, w, _ = make_world ~n:150 ~seed:24 ~fraction_malicious:0.2 ~cfg () in
  w.World.attack <- { World.kind = World.Selective_dos; rate = 1.0; consistency = 0.5 };
  run engine ~until:2.0;
  (* Honest nodes issue anonymous queries; paths through malicious relays
     get dropped, reported, and the droppers convicted. *)
  let rng = Rng.create ~seed:95 in
  for _ = 1 to 80 do
    let from =
      let rec pick () =
        let a = World.random_alive w rng in
        if (World.node w a).World.malicious then pick () else a
      in
      pick ()
    in
    let node = World.node w from in
    match Query.pick_pairs w node ~n:2 with
    | [ ab; cd ] ->
      let target = (World.node w (World.random_alive w rng)).World.peer in
      Query.send w node ~relays:(Query.path_relays ab cd) ~target
        ~query:(Types.Q_table { session = None })
        (fun _ -> ())
    | _ -> ()
  done;
  run engine ~until:60.0;
  let revoked_mal =
    Array.to_list w.World.nodes
    |> List.filter (fun (n : World.node) -> n.World.revoked && n.World.malicious)
    |> List.length
  in
  let revoked_honest =
    Array.to_list w.World.nodes
    |> List.filter (fun (n : World.node) -> n.World.revoked && not n.World.malicious)
    |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "droppers revoked (%d)" revoked_mal)
    true (revoked_mal >= 3);
  Alcotest.(check int) "no honest revoked" 0 revoked_honest

(* ------------------------------------------------------------------ *)
(* Bandwidth model sanity (detailed assertions live in test_experiments) *)

let test_phase2_index_deterministic () =
  for step = 0 to 10 do
    let a = Serve.phase2_index ~seed:42 ~step ~count:17 in
    let b = Serve.phase2_index ~seed:42 ~step ~count:17 in
    Alcotest.(check int) "deterministic" a b;
    Alcotest.(check bool) "in range" true (a >= 0 && a < 17)
  done;
  let distinct =
    List.init 20 (fun s -> Serve.phase2_index ~seed:7 ~step:s ~count:1000)
    |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check bool) "spreads" true (distinct > 15)

(* ------------------------------------------------------------------ *)
(* State-tracking details the CA rules depend on *)

let test_pred_since_resets_on_identity_change () =
  let engine, w, _ = make_world ~n:60 ~seed:30 () in
  let node = World.node w 0 in
  let pred = Option.get (Rtable.predecessor (World.rt node)) in
  Engine.run engine ~until:20.0;
  World.update_preds w node (Rtable.preds (World.rt node));
  (match World.pred_known_since node pred with
  | Some since -> Alcotest.(check bool) "known since bootstrap" true (since <= 0.1)
  | None -> Alcotest.fail "pred untracked");
  (* The same address with a fresh identity restarts the clock. *)
  let fresh = Peer.make ~id:(World.fresh_id w) ~addr:pred.Peer.addr in
  World.update_preds w node (fresh :: List.tl (Rtable.preds (World.rt node)));
  (match World.pred_known_since node fresh with
  | Some since -> Alcotest.(check bool) "clock restarted" true (since >= 19.9)
  | None -> Alcotest.fail "fresh identity untracked");
  Alcotest.(check (option (float 0.001))) "old identity no longer tracked" None
    (World.pred_known_since node pred)

let test_sanitize_keeps_succs_filters_fingers () =
  let _, w, _ = make_world ~n:200 ~seed:31 () in
  let node = World.node w 0 in
  let st = World.honest_table w (World.node w 5) in
  let clean = World.sanitize_table w node st in
  Alcotest.(check int) "successor list untouched"
    (List.length st.Types.t_succs)
    (List.length clean.Types.t_succs);
  (* Deflect a finger far past its ideal: it must be dropped. *)
  let space = w.World.space in
  let owner = st.Types.t_owner.Peer.id in
  let deflected =
    List.mapi
      (fun i f ->
        if i = 0 then
          Some (Peer.make ~id:(Id.add space owner (Id.size space / 4)) ~addr:199)
        else f)
      st.Types.t_fingers
  in
  let clean = World.sanitize_table w node { st with Types.t_fingers = deflected } in
  Alcotest.(check (option bool)) "deflected finger dropped" (Some true)
    (Option.map Option.is_none (List.nth_opt clean.Types.t_fingers 0))

let test_proof_queue_archives_former_heads () =
  let _, w, _ = make_world ~n:60 ~seed:32 () in
  let node = World.node w 0 in
  let other_a = World.node w 1 and other_b = World.node w 2 in
  (* Fill the queue with proofs from A, then from B: A's latest document
     must survive in the archive. *)
  for _ = 1 to w.World.cfg.Config.proof_queue_len + 1 do
    World.push_proof w node (World.honest_list w other_a Types.Succ_list)
  done;
  for _ = 1 to w.World.cfg.Config.proof_queue_len + 1 do
    World.push_proof w node (World.honest_list w other_b Types.Succ_list)
  done;
  Alcotest.(check bool) "window bounded" true
    (List.length (Node_state.proof_list node) <= w.World.cfg.Config.proof_queue_len);
  Alcotest.(check bool) "former head archived" true
    (List.exists
       (fun ((_, p) : float * Types.signed_list) ->
         Peer.equal p.Types.l_owner other_a.World.peer)
       node.World.intro_proofs)

(* [push_proof] and [push_intro] as they ran before the proof queue was a
   ring, over (queue newest first, archive newest first): the model. *)
let model_truncate k l = List.filteri (fun i _ -> i < k) l

let model_intro intro ~now ~cap (sl : Types.signed_list) =
  let others =
    List.filter
      (fun ((_, p) : float * Types.signed_list) -> not (Peer.equal p.Types.l_owner sl.Types.l_owner))
      intro
  in
  model_truncate cap ((now, sl) :: others)

let model_push (proofs, intro) ~now ~queue_len sl =
  let updated = (now, sl) :: proofs in
  let kept = model_truncate queue_len updated in
  let evicted = List.filteri (fun i _ -> i >= queue_len) updated in
  let intro =
    List.fold_left
      (fun intro ((at, e) : float * Types.signed_list) ->
        if
          List.exists
            (fun ((_, p) : float * Types.signed_list) -> Peer.equal p.Types.l_owner e.Types.l_owner)
            kept
        then intro
        else model_intro intro ~now:at ~cap:(2 * queue_len) e)
      intro evicted
  in
  (kept, intro)

type proof_op = Proof of int | Intro of int

(* Random pushes and introductions from four owners, at queue lengths 0
   to 7: after every step the ring's newest-first view and the archive
   equal the model's, entry by entry (times equal, documents the same
   values). *)
let prop_proof_ring_matches_model =
  let _, w, _ = make_world ~n:20 ~seed:33 () in
  let docs = Array.init 4 (fun k -> World.honest_list w (World.node w (k + 1)) Types.Succ_list) in
  let node = World.node w 0 in
  let op =
    QCheck.Gen.(
      frequency [ (5, map (fun k -> Proof k) (int_bound 3)); (1, map (fun k -> Intro k) (int_bound 3)) ])
  in
  let print = function Proof k -> Printf.sprintf "Proof %d" k | Intro k -> Printf.sprintf "Intro %d" k in
  QCheck.Test.make ~name:"proof ring = list model" ~count:300
    QCheck.(
      pair (int_bound 7) (make ~print:(Print.list print) Gen.(list_size (0 -- 40) op)))
    (fun (queue_len, ops) ->
      Node_state.reset_volatile node;
      let same a b =
        List.equal
          (fun ((t1, d1) : float * Types.signed_list) (t2, d2) -> Float.equal t1 t2 && d1 == d2)
          a b
      in
      let model = ref ([], []) in
      List.for_all
        (fun (i, op) ->
          let now = float_of_int i in
          (match op with
          | Proof k ->
            Node_state.push_proof node ~now ~queue_len docs.(k);
            model := model_push !model ~now ~queue_len docs.(k)
          | Intro k ->
            Node_state.push_intro node ~now ~cap:(2 * queue_len) docs.(k);
            model := (fst !model, model_intro (snd !model) ~now ~cap:(2 * queue_len) docs.(k)));
          same (Node_state.proof_list node) (fst !model)
          && same node.World.intro_proofs (snd !model))
        (List.mapi (fun i op -> (i, op)) ops))

(* [update_preds]' bookkeeping as it ran before it learnt to check first,
   over an association list sorted by address: the model. *)
let model_since since ~now (current : Peer.t list) =
  let since =
    List.fold_left
      (fun since (p : Peer.t) ->
        match List.assoc_opt p.Peer.addr since with
        | Some (id, _) when id = p.Peer.id -> since
        | Some _ | None -> (p.Peer.addr, (p.Peer.id, now)) :: List.remove_assoc p.Peer.addr since)
      since current
  in
  List.filter (fun (addr, _) -> List.exists (fun (p : Peer.t) -> p.Peer.addr = addr) current) since
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

type preds_op = Update of (int * int) list | Evict of int | Reset

(* Random predecessor updates from a few addresses, each of which may come
   back under another id, mixed with timeout evictions (which shrink the
   list behind the bookkeeping's back) and volatile-state resets: after
   every step [pred_since] equals the model's. *)
let prop_pred_since_matches_model =
  let _, w, _ = make_world ~n:20 ~seed:35 () in
  let node = World.node w 0 in
  (* Materialize the table now: its first touch fills [pred_since] with
     the boot predecessors, which no case's model starts from. *)
  ignore (World.rt node);
  let space = w.World.space in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun l -> Update l) (list_size (0 -- 9) (pair (int_bound 11) (int_bound 5))));
          (2, map (fun a -> Evict a) (int_bound 5));
          (1, return Reset);
        ])
  in
  let print = function
    | Update l ->
      "Update " ^ QCheck.Print.(list (pair int int)) l
    | Evict a -> Printf.sprintf "Evict %d" a
    | Reset -> "Reset"
  in
  QCheck.Test.make ~name:"pred_since = list model" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print) QCheck.Gen.(list_size (1 -- 30) op))
    (fun ops ->
      Node_state.reset_volatile node;
      let model = ref [] in
      List.for_all
        (fun (i, op) ->
          let now = float_of_int i in
          (match op with
          | Update l ->
            let peers =
              List.map
                (fun (d, addr) ->
                  Peer.make ~id:(Id.sub space node.World.peer.Peer.id (1 + d)) ~addr:(100 + addr))
                l
            in
            Node_state.update_preds node ~now peers;
            model := model_since !model ~now (Rtable.preds (World.rt node))
          | Evict a -> Rtable.remove (World.rt node) ~addr:(100 + a)
          | Reset ->
            Node_state.reset_volatile node;
            model := []);
          Octo_sim.Imap.fold (fun addr v acc -> (addr, v) :: acc) node.World.pred_since []
          |> List.rev = !model)
        (List.mapi (fun i op -> (i, op)) ops))

(* The relay state [Relay_log] replaced, kept as the model: a back-route
   map and a receive-time map, written as [Serve] wrote them and pruned
   by [Maintain.gc]'s [prune_old]. *)
module Relay_model = struct
  module Imap = Octo_sim.Imap

  type t = { back_routes : (int * int * float) Imap.t; received_cids : float Imap.t }

  let create () = { back_routes = Imap.create (); received_cids = Imap.create () }

  let receive m ~cid ~now =
    let first_delivery = not (Imap.mem m.received_cids cid) in
    Imap.set m.received_cids cid now;
    first_delivery

  let route m ~cid ~prev ~sid ~now = Imap.set m.back_routes cid (prev, sid, now)

  let reply_hop m cid =
    Option.map (fun (prev, sid, _) -> (prev, sid)) (Imap.find_opt m.back_routes cid)

  let received m cid = Imap.mem m.received_cids cid

  let prune_old table keep =
    let stale = Imap.fold (fun k v acc -> if keep v then acc else k :: acc) table [] in
    List.iter (Imap.remove table) stale

  let prune m ~horizon =
    prune_old m.back_routes (fun (_, _, at) -> at >= horizon);
    prune_old m.received_cids (fun at -> at >= horizon)

  let clear m =
    Imap.clear m.back_routes;
    Imap.clear m.received_cids
end

type relay_op =
  | Receive of int * float
  | Route of int * int * int * float
  | Reply of int
  | Evidence of int
  | Prune of float
  | Clear_log

let relay_cids = 40

(* Random receive, route, lookup, prune and clear sequences over a small
   cid domain, so cids repeat and arrive out of order and the log grows
   and shrinks: every first-delivery answer, reply path and evidence
   answer equals the model's, during the run and for every cid at its
   end. Hops span the packed widths, 22-bit addresses and 40-bit
   session ids. *)
let prop_relay_log_matches_model =
  let open QCheck.Gen in
  (* Whole-second times, so prune horizons often equal a stamp. *)
  let cid = int_bound (relay_cids - 1) and time = map float_of_int (int_bound 30) in
  let wide bits = oneof [ int_bound 9; return ((1 lsl bits) - 1); int_bound ((1 lsl bits) - 1) ] in
  let op =
    frequency
      [
        (5, map2 (fun c t -> Receive (c, t)) cid time);
        (4, map2 (fun (c, p) (s, t) -> Route (c, p, s, t)) (pair cid (wide 22)) (pair (wide 40) time));
        (2, map (fun c -> Reply c) cid);
        (2, map (fun c -> Evidence c) cid);
        (1, map (fun h -> Prune h) time);
        (1, return Clear_log);
      ]
  in
  let print = function
    | Receive (c, t) -> Printf.sprintf "Receive (%d, %g)" c t
    | Route (c, p, s, t) -> Printf.sprintf "Route (%d, %d, %d, %g)" c p s t
    | Reply c -> Printf.sprintf "Reply %d" c
    | Evidence c -> Printf.sprintf "Evidence %d" c
    | Prune h -> Printf.sprintf "Prune %g" h
    | Clear_log -> "Clear"
  in
  QCheck.Test.make ~name:"relay log = two-map model" ~count:500
    (QCheck.make ~print:(QCheck.Print.list print) (list_size (0 -- 300) op))
    (fun ops ->
      let log = Relay_log.create () and model = Relay_model.create () in
      let reply cid =
        let hop = Relay_log.reply_hop log cid in
        if hop < 0 then None else Some (Relay_log.prev hop, Relay_log.sid hop)
      in
      let agrees cid =
        reply cid = Relay_model.reply_hop model cid
        && Relay_log.received log cid = Relay_model.received model cid
      in
      List.for_all
        (function
          | Receive (cid, now) ->
            Relay_log.receive log ~cid ~now = Relay_model.receive model ~cid ~now
          | Route (cid, prev, sid, now) ->
            Relay_log.route log ~cid ~prev ~sid ~now;
            Relay_model.route model ~cid ~prev ~sid ~now;
            true
          | Reply cid -> reply cid = Relay_model.reply_hop model cid
          | Evidence cid -> Relay_log.received log cid = Relay_model.received model cid
          | Prune horizon ->
            Relay_log.prune log ~horizon;
            Relay_model.prune model ~horizon;
            true
          | Clear_log ->
            Relay_log.clear log;
            Relay_model.clear model;
            true)
        ops
      && List.for_all agrees (List.init relay_cids Fun.id))

(* The table buffer's one reader is finger surveillance: without it,
   lookups and walks leave every buffer empty; with it, they fill. *)
let test_table_buffer_follows_checks () =
  let buffered checks =
    let sc =
      Octo_experiments.Scenario.run
        (Octo_experiments.Scenario.make ~seed:34 ~n:60 ~duration:130.0 ~checks ())
    in
    let w = Octo_experiments.Scenario.world sc in
    ( List.fold_left
        (fun acc (_, v) -> acc +. v)
        0.0
        (Octo_sim.Metrics.Series.rows w.World.metrics.World.lookups),
      Array.fold_left
        (fun acc (n : World.node) -> acc + List.length n.World.buffered_tables)
        0 w.World.nodes )
  in
  let lookups, tables = buffered false in
  Alcotest.(check bool) "lookups ran without checks" true (lookups > 0.0);
  Alcotest.(check int) "checks off: every buffer empty" 0 tables;
  let lookups, tables = buffered true in
  Alcotest.(check bool) "lookups ran with checks" true (lookups > 0.0);
  Alcotest.(check bool) "checks on: buffers filled" true (tables > 0)

let test_query_digest_binds_fields () =
  let t1 = Peer.make ~id:1 ~addr:1 and t2 = Peer.make ~id:2 ~addr:2 in
  let q = Types.Q_table { session = None } in
  let d1 = Types.query_digest ~target:t1 ~cid:7 q in
  Alcotest.(check bool) "target bound" false
    (Bytes.equal d1 (Types.query_digest ~target:t2 ~cid:7 q));
  Alcotest.(check bool) "cid bound" false
    (Bytes.equal d1 (Types.query_digest ~target:t1 ~cid:8 q));
  Alcotest.(check bool) "query bound" false
    (Bytes.equal d1 (Types.query_digest ~target:t1 ~cid:7 (Types.Q_list Types.Succ_list)))

let test_msg_sizes_positive () =
  let _, w, _ = make_world ~n:30 ~seed:33 () in
  let node = World.node w 0 in
  let st = World.honest_table w node in
  let sl = World.honest_list w node Types.Succ_list in
  let samples =
    [
      Types.Table_req { rid = 1 };
      Types.Table_resp { rid = 1; table = st };
      Types.List_req { rid = 2; kind = Types.Pred_list; announce = Some node.World.peer };
      Types.List_resp { rid = 2; slist = sl };
      Types.Ping_req { rid = 3 };
      Types.Anon_req { rid = 4; query = Types.Q_establish { sid = 1; key = Bytes.create 16 } };
      Types.Fwd
        {
          cid = 5;
          sid = 1;
          delay = 0.0;
          hops = [ (1, 2, 0.0) ];
          target = node.World.peer;
          query = Types.Q_table { session = None };
          deadline = 1.0;
          capsule = Bytes.create 64;
        };
      Types.Fwd_reply { cid = 5; reply = Some (Types.R_table st); capsule = Bytes.create 48 };
      Types.Report_msg
        {
          rid = 0;
          report =
            Types.R_neighbor { reporter = node.World.peer; missing = node.World.peer; claimed = sl };
        };
      Types.Justify_req
        { rid = 6; missing = node.World.peer; source = node.World.peer; provenance = true; before = 0.0 };
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "positive wire size" true
        (Types.size m > 0 && Types.size m < 100_000))
    samples;
  (* Signed structures dominate their requests. *)
  Alcotest.(check bool) "table resp > req" true
    (Types.size (Types.Table_resp { rid = 1; table = st })
    > Types.size (Types.Table_req { rid = 1 }))

let test_bounds_gap_uses_both_sides () =
  let _, w, _ = make_world ~n:200 ~seed:34 () in
  let node = World.node w 0 in
  let gap = Octo_chord.Bounds.estimated_gap (World.rt node) in
  let true_gap = float_of_int (Id.size w.World.space) /. 200.0 in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3e within 3x of %.3e" gap true_gap)
    true
    (gap > true_gap /. 3.0 && gap < true_gap *. 3.0)

(* ------------------------------------------------------------------ *)
(* Hot-key result cache (PR 6) *)

let test_rcache_accounting () =
  let c = Rcache.create ~ttl:10.0 ~cap:100 in
  let owner = Peer.make ~id:5 ~addr:3 in
  Alcotest.(check bool) "cold miss" true (Rcache.find c ~now:0.0 ~node:1 ~key:42 = None);
  Rcache.store c ~now:0.0 ~node:1 ~key:42 owner;
  (match Rcache.find c ~now:1.0 ~node:1 ~key:42 with
  | Some p -> Alcotest.(check bool) "hit returns stored owner" true (Peer.equal p owner)
  | None -> Alcotest.fail "expected hit");
  (* Same key at another node is a separate entry. *)
  Alcotest.(check bool) "per-node isolation" true
    (Rcache.find c ~now:1.0 ~node:2 ~key:42 = None);
  Alcotest.(check int) "hits" 1 (Rcache.hits c);
  Alcotest.(check int) "misses" 2 (Rcache.misses c);
  Alcotest.(check int) "stores" 1 (Rcache.stores c);
  Alcotest.(check int) "no expiries" 0 (Rcache.expired c);
  Alcotest.(check int) "holders of key 42" 1 (Rcache.holders c ~now:1.0 ~key:42);
  Alcotest.(check int) "holders of other key" 0 (Rcache.holders c ~now:1.0 ~key:7)

let test_rcache_ttl_boundary () =
  let c = Rcache.create ~ttl:10.0 ~cap:0 in
  let owner = Peer.make ~id:5 ~addr:3 in
  Rcache.store c ~now:0.0 ~node:1 ~key:42 owner;
  Alcotest.(check bool) "hit just before expiry" true
    (Rcache.find c ~now:9.999999 ~node:1 ~key:42 <> None);
  (* Strict expiry: a probe exactly [ttl] after the store already misses. *)
  Alcotest.(check bool) "miss at exact boundary" true
    (Rcache.find c ~now:10.0 ~node:1 ~key:42 = None);
  Alcotest.(check int) "expiry counted" 1 (Rcache.expired c);
  Alcotest.(check int) "expiry also counted as miss" 1 (Rcache.misses c);
  Alcotest.(check int) "stale entry removed" 0 (Rcache.size c);
  (* A refresh restarts the clock. *)
  Rcache.store c ~now:10.0 ~node:1 ~key:42 owner;
  Alcotest.(check bool) "fresh again" true (Rcache.find c ~now:19.0 ~node:1 ~key:42 <> None)

(* Mirror of [test_verify_cache_revocation_aware]: cached lookup results
   primed before a revocation must not be servable afterwards — the
   revoked identity may have vouched for them. *)
let test_result_cache_revocation_flush () =
  let cfg = { Config.default with Config.result_cache = true } in
  let engine, w, _ = make_world ~n:50 ~cfg () in
  let node = World.node w 0 in
  let owner = (World.node w 7).World.peer in
  let key = owner.Peer.id in
  World.cache_store w node ~key owner;
  (match World.cache_find w node ~key with
  | Some p -> Alcotest.(check bool) "primed hit pre-revocation" true (Peer.equal p owner)
  | None -> Alcotest.fail "expected cache hit");
  run engine ~until:1.0;
  World.revoke w owner.Peer.addr;
  Alcotest.(check int) "cache flushed once" 1 (Rcache.flushes (World.result_cache w));
  Alcotest.(check int) "cache emptied" 0 (Rcache.size (World.result_cache w));
  Alcotest.(check bool) "no stale hit post-revocation" true
    (World.cache_find w node ~key = None)

let test_result_cache_end_to_end_hit () =
  let cfg = { Config.default with Config.result_cache = true } in
  let engine, w, _ = make_world ~n:80 ~seed:7 ~cfg () in
  let node = World.node w 0 in
  let target = (World.node w 33).World.peer in
  let key = target.Peer.id in
  let r1 = ref None in
  Olookup.anonymous w node ~key (fun r -> r1 := Some r);
  Engine.run_until_idle engine ();
  (match !r1 with
  | Some r ->
    Alcotest.(check bool) "first lookup over the network" false r.Olookup.from_cache;
    Alcotest.(check bool) "first lookup converged" true
      (match r.Olookup.owner with Some o -> Peer.equal o target | None -> false)
  | None -> Alcotest.fail "first lookup never completed");
  (* The repeat is answered synchronously from cache: no engine run. *)
  let r2 = ref None in
  Olookup.anonymous w node ~key (fun r -> r2 := Some r);
  (match !r2 with
  | Some r ->
    Alcotest.(check bool) "repeat served from cache" true r.Olookup.from_cache;
    Alcotest.(check int) "zero hops" 0 r.Olookup.hops;
    Alcotest.(check bool) "same owner" true
      (match r.Olookup.owner with Some o -> Peer.equal o target | None -> false)
  | None -> Alcotest.fail "cache hit must complete synchronously");
  Alcotest.(check int) "one hit recorded" 1 (Rcache.hits (World.result_cache w))

(* With the cache disabled the whole subsystem must be inert: a store
   before the lookup changes no trace byte, and no counter ever moves. *)
let test_result_cache_disabled_byte_identical () =
  let script ~prestore =
    let trace = Octo_sim.Trace.create ~capacity:(1 lsl 14) () in
    Octo_sim.Trace.install trace;
    let engine, w, _ = make_world ~n:80 ~seed:7 () in
    let node = World.node w 0 in
    let owner = (World.node w 33).World.peer in
    let key = owner.Peer.id in
    if prestore then World.cache_store w node ~key owner;
    Olookup.anonymous w node ~key (fun _ -> ());
    Engine.run_until_idle engine ();
    Octo_sim.Trace.uninstall ();
    (List.map Octo_sim.Trace.to_json (Octo_sim.Trace.events trace), World.result_cache w)
  in
  let ev_a, rc_a = script ~prestore:false in
  let ev_b, rc_b = script ~prestore:true in
  Alcotest.(check bool) "some events traced" true (List.length ev_a > 0);
  Alcotest.(check (list string)) "byte-identical event streams" ev_a ev_b;
  List.iter
    (fun rc ->
      Alcotest.(check int) "no hits" 0 (Rcache.hits rc);
      Alcotest.(check int) "no misses" 0 (Rcache.misses rc);
      Alcotest.(check int) "no stores" 0 (Rcache.stores rc);
      Alcotest.(check int) "no entries" 0 (Rcache.size rc))
    [ rc_a; rc_b ]

let () =
  Alcotest.run "octopus"
    [
      ( "world",
        [
          Alcotest.test_case "bootstrap ring" `Quick test_world_bootstrap;
          Alcotest.test_case "malicious fraction" `Quick test_world_malicious_fraction;
          Alcotest.test_case "certs verify" `Quick test_world_certs_verify;
          Alcotest.test_case "pool provisioned" `Quick test_world_pool_provisioned;
          Alcotest.test_case "members built in one pass" `Quick test_members_linear_build;
          Alcotest.test_case "revocation before any table is touched" `Quick
            test_revoke_before_any_touch;
        ] );
      ( "signed-state",
        [
          Alcotest.test_case "list verify/tamper" `Quick test_signed_list_verify_and_tamper;
          Alcotest.test_case "table freshness" `Quick test_signed_table_freshness;
          Alcotest.test_case "ordering enforced" `Quick test_signed_list_ordering_enforced;
          Alcotest.test_case "signing keeps digest memo" `Quick test_signed_docs_keep_memo;
          Alcotest.test_case "list digest allocation" `Quick test_list_digest_allocation;
          Alcotest.test_case "table size allocation" `Quick test_table_size_allocation;
          QCheck_alcotest.to_alcotest prop_digests_match_reference;
          QCheck_alcotest.to_alcotest prop_resumed_digests;
          Alcotest.test_case "exchange compressions" `Quick test_exchange_compressions;
          Alcotest.test_case "receipt from a foreign address" `Quick test_receipt_foreign_signer;
          Alcotest.test_case "verify cache revocation-aware" `Quick
            test_verify_cache_revocation_aware;
          Alcotest.test_case "join rejects forged pred list" `Quick
            test_join_rejects_forged_pred_list;
        ] );
      ( "anon-query",
        [
          Alcotest.test_case "roundtrip" `Quick test_anon_query_roundtrip;
          Alcotest.test_case "timeout on dead relay" `Quick test_anon_query_timeout_on_dead_relay;
          Alcotest.test_case "duplicate relays rejected" `Quick
            test_anon_query_duplicate_relays_rejected;
          Alcotest.test_case "list query" `Quick test_anon_list_query;
        ] );
      ( "walk",
        [
          Alcotest.test_case "yields pair" `Quick test_walk_yields_pair;
          Alcotest.test_case "abandoned after budget" `Quick test_walk_abandoned_after_budget;
          Alcotest.test_case "phase2 verification" `Quick
            test_walk_phase2_verification_rejects_wrong_seed;
          Alcotest.test_case "phase2 index" `Quick test_phase2_index_deterministic;
          Alcotest.test_case "phase2 length capped" `Quick test_phase2_length_capped;
          Alcotest.test_case "witness forwards only its own cid" `Quick
            test_witness_forwards_only_own_cid;
        ] );
      ( "lookup",
        [
          Alcotest.test_case "anonymous correct" `Quick test_anonymous_lookup_correct;
          Alcotest.test_case "direct correct" `Quick test_direct_lookup_correct;
          Alcotest.test_case "bias attack works" `Quick test_lookup_bias_attack_biases_results;
        ] );
      ( "surveillance",
        [
          Alcotest.test_case "detects bias" `Quick test_surveillance_detects_bias;
          Alcotest.test_case "quiet when honest" `Quick test_surveillance_quiet_when_honest;
          Alcotest.test_case "omission chain convicts" `Quick test_omission_chain_convicts;
          Alcotest.test_case "honest survives chain" `Quick test_omission_chain_honest_survives;
          Alcotest.test_case "depth budget exhausts" `Quick test_omission_chain_depth_exhausted;
        ] );
      ( "ca-admission",
        Alcotest.test_case "burst boundary" `Quick test_admission_burst_boundary
        :: Alcotest.test_case "refill over time" `Quick test_admission_refill_over_time
        :: Alcotest.test_case "deterministic order" `Quick test_admission_deterministic_order
        :: Alcotest.test_case "revoked source banned" `Quick test_admission_revoked_banned
        :: Alcotest.test_case "id already taken" `Quick test_admission_id_taken
        :: List.map QCheck_alcotest.to_alcotest [ qcheck_admission_burst ] );
      ( "finger-check",
        [
          Alcotest.test_case "detects manipulation" `Quick test_finger_check_detects_manipulation;
          Alcotest.test_case "clean on honest" `Quick test_finger_check_clean_on_honest;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "ring under churn" `Slow test_maintain_ring_under_churn;
          Alcotest.test_case "bias sim identifies attackers" `Slow test_security_sim_bias_short;
          Alcotest.test_case "dos dropper identified" `Slow test_dos_dropper_identified;
        ] );
      ( "state",
        [
          Alcotest.test_case "pred_since identity reset" `Quick
            test_pred_since_resets_on_identity_change;
          Alcotest.test_case "sanitize filters fingers only" `Quick
            test_sanitize_keeps_succs_filters_fingers;
          Alcotest.test_case "proof archive" `Quick test_proof_queue_archives_former_heads;
          QCheck_alcotest.to_alcotest prop_proof_ring_matches_model;
          QCheck_alcotest.to_alcotest prop_pred_since_matches_model;
          QCheck_alcotest.to_alcotest prop_relay_log_matches_model;
          Alcotest.test_case "table buffer only under checks" `Quick
            test_table_buffer_follows_checks;
          Alcotest.test_case "query digest binding" `Quick test_query_digest_binds_fields;
          Alcotest.test_case "message sizes" `Quick test_msg_sizes_positive;
          Alcotest.test_case "gap estimate" `Quick test_bounds_gap_uses_both_sides;
        ] );
      ( "result-cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_rcache_accounting;
          Alcotest.test_case "ttl exact boundary" `Quick test_rcache_ttl_boundary;
          Alcotest.test_case "revocation flushes" `Quick test_result_cache_revocation_flush;
          Alcotest.test_case "end-to-end repeat hit" `Quick test_result_cache_end_to_end_hit;
          Alcotest.test_case "disabled is byte-identical" `Quick
            test_result_cache_disabled_byte_identical;
        ] );
    ]
