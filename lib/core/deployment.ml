module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Rtable = Octo_chord.Rtable
module Engine = Octo_sim.Engine
module Net = Octo_sim.Net
module Rpc = Octo_sim.Rpc
module Rng = Octo_sim.Rng
module Series = Octo_sim.Metrics.Series
module Trace = Octo_sim.Trace
module Keys = Octo_crypto.Keys
module Cert = Octo_crypto.Cert
module Imap = Octo_sim.Imap

type relay = Node_state.relay = { r_peer : Peer.t; r_sid : int; r_key : bytes }
type pair = Node_state.pair = {
  p_first : Peer.t;
  p_first_sid : int;
  p_second : Peer.t;
  p_second_sid : int;
  p_keys : bytes;
}

type node = Node_state.t = {
  addr : int;
  mutable peer : Peer.t;
  mutable rt : Rtable.t Lazy.t;
  mutable alive : bool;
  mutable revoked : bool;
  mutable malicious : bool;
  mutable keypair : Keys.keypair;
  mutable cert : Cert.t;
  mutable proofs : Node_state.proof_queue;
  sessions : Sessions.t;
  relay_log : Relay_log.t;
  receipts : Types.receipt Imap.t;
  statements : Types.witness_statement list Imap.t;
  mutable buffered_tables : Types.signed_table list;
  mutable pool : pair array;
  pred_since : (int * float) Imap.t;
  witness_waits : (int * int) Imap.t;
  mutable intro_proofs : (float * Types.signed_list) list;
  storage : bytes Imap.t;
  timeout_strikes : (int * float) Imap.t;
  mutable lost_peers : (Peer.t * float) list;
  mutable succ_mark : Node_state.list_mark option;
  mutable pred_mark : Node_state.list_mark option;
  mutable table_mark : Node_state.table_mark option;
}

let rt = Node_state.rt

(* The bootstrap topology, recorded once so per-node routing tables can be
   materialized on demand instead of eagerly at world creation. A thunked
   table builds exactly what the eager bootstrap would have built: the
   ring snapshot supplies successors, predecessors, and fingers. Shared by
   reference across the [{ t with nodes }] rebuild in [create], hence a
   standalone mutable record. *)
type boot = {
  mutable b_ring : Peer.t array;  (* boot peers, ascending id *)
  mutable b_rank : int array;  (* addr -> rank in [b_ring] *)
  mutable b_time : float;  (* engine time at bootstrap *)
}

type attack_kind = No_attack | Bias | Finger_manip | Pollution | Selective_dos
type attack_spec = { kind : attack_kind; rate : float; consistency : float }

let no_attack = { kind = No_attack; rate = 0.0; consistency = 0.5 }

type metrics = {
  lookups : Series.t;
  biased : Series.t;
  ca_msgs : Series.t;
  mal_frac : Series.t;
  mutable tests_on_attacker : int;
  mutable attacker_identified : int;
  mutable reports : int;
  mutable convicted_malicious : int;
  mutable convicted_honest : int;
  mutable no_conviction : int;
  mutable walks_abandoned : int;
}

type t = {
  engine : Engine.t;
  cfg : Config.t;
  net : Types.msg Net.t;
  space : Id.space;
  nodes : node array;
  ca_addr : int;
  registry : Keys.registry;
  authority : Cert.authority;
  rpc : Types.msg Rpc.t;
  rng : Rng.t;
  used_ids : (int, unit) Hashtbl.t;
  mutable attack : attack_spec;
  mutable next_sid : int;
  verify_cache : (string, bool) Hashtbl.t;
  rcache : Rcache.t;
  corrupted_docs : (string, unit) Hashtbl.t;
  mutable corrupt_accepted : int;
  metrics : metrics;
  boot : boot;
  members : Peer.t Imap.t;
      (** alive, unrevoked nodes keyed by ring id — the ground-truth ring,
          built by [create] and maintained by [kill]/[revive]/[revoke] so
          ownership queries binary-search instead of scanning the
          population *)
  default_rpc_policy : Rpc.policy;
  mutable misroute : (Peer.t -> Peer.t) option;
  mutable finger_checks : bool;
}

let now t = Engine.now t.engine
let node t addr = t.nodes.(addr)
let n_nodes t = Array.length t.nodes
let space t = t.space
let engine t = t.engine

let fresh_sid t =
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  sid

let fresh_id t =
  let rec gen () =
    let id = Id.random t.space t.rng in
    if Hashtbl.mem t.used_ids id then gen ()
    else begin
      Hashtbl.add t.used_ids id ();
      id
    end
  in
  gen ()

let is_active_malicious = Node_state.is_active_malicious

let malicious_fraction t =
  let active = Array.fold_left (fun acc n -> if is_active_malicious n then acc + 1 else acc) 0 t.nodes in
  float_of_int active /. float_of_int (Array.length t.nodes)

let is_malicious t addr = t.nodes.(addr).malicious

let alive_honest_addrs t =
  Array.to_list t.nodes
  |> List.filter_map (fun n -> if n.alive && not n.malicious then Some n.addr else None)

let random_alive t rng =
  let n = Array.length t.nodes in
  let rec pick attempts =
    if attempts > 50 * n then invalid_arg "random_alive: no alive node"
    else begin
      let addr = Rng.int rng n in
      if t.nodes.(addr).alive then addr else pick (attempts + 1)
    end
  in
  pick 0

let colluders t =
  Array.to_list t.nodes |> List.filter is_active_malicious

(* Ground truth ownership: the alive, unrevoked node clockwise-closest to
   [key] is the first member id >= key, wrapping to the smallest id. The
   member index makes this O(log n) — the old population scan dominated
   convergence checks and per-lookup ledger updates at large n. *)
let find_owner t ~key =
  match Imap.find_ceil t.members key with
  | Some (_, p) -> Some p
  | None -> ( match Imap.first t.members with Some (_, p) -> Some p | None -> None)

(* -- messaging -------------------------------------------------------- *)

let send t ~src ~dst msg =
  let size = Types.size msg in
  if Trace.on () then
    Trace.emit ~time:(now t) ~node:src (Trace.Msg { kind = Types.kind msg; dst; size });
  (* octolint: allow no-raw-send — this is the one sanctioned wrapper. *)
  Net.send t.net ~src ~dst ~size msg

(* Almost every call runs under the default timeout; that policy is built
   once at creation instead of allocating a record per RPC. *)
let rpc_policy t ?timeout () =
  match timeout with
  | None -> t.default_rpc_policy
  | Some timeout -> Rpc.policy ~timeout ()

let rpc t ~src ~dst ?timeout ~make ~on_timeout k =
  let policy = rpc_policy t ?timeout () in
  ignore
    (Rpc.call t.rpc ~src ~dst ~policy
       ~send:(fun rid -> send t ~src ~dst (make rid))
       ~on_give_up:on_timeout k)

let resolve t rid msg = Rpc.resolve t.rpc rid msg
let rpc_caller t rid = Rpc.caller t.rpc rid
let after t ~delay f = ignore (Engine.schedule t.engine ~delay f)

(* -- signing -------------------------------------------------------- *)

(* The digest resumes from the node's mark for the document kind when
   only the time changed since its last signature (see
   [Node_state.list_digest]). *)
let sign_list t node kind peers =
  let time = now t in
  let d = Node_state.list_digest node kind peers ~time in
  {
    Types.l_owner = node.peer;
    l_kind = kind;
    l_peers = peers;
    l_time = time;
    l_sig = Keys.sign node.keypair.Keys.secret d;
    l_cert = node.cert;
    l_memo = Some d;
  }

let sign_table t node ~fingers ~succs =
  let time = now t in
  let d = Node_state.table_digest node ~fingers ~succs ~time in
  {
    Types.t_owner = node.peer;
    t_fingers = fingers;
    t_succs = succs;
    t_time = time;
    t_sig = Keys.sign node.keypair.Keys.secret d;
    t_cert = node.cert;
    t_memo = Some d;
  }

let honest_list t node kind =
  let table = rt node in
  let peers =
    match kind with
    | Types.Succ_list -> Rtable.succs table
    | Types.Pred_list -> Rtable.preds table
  in
  sign_list t node kind peers

let honest_table t node =
  let table = rt node in
  sign_table t node ~fingers:(Rtable.finger_list table) ~succs:(Rtable.succs table)

(* -- verification --------------------------------------------------- *)

let cert_matches (cert : Cert.t) (peer : Peer.t) =
  cert.Cert.node_id = peer.Peer.id && cert.Cert.addr = peer.Peer.addr

let sorted_cw space ~from peers =
  let rec ok prev = function
    | [] -> true
    | p :: rest ->
      let d = Id.distance_cw space from p.Peer.id in
      d > prev && ok d rest
  in
  ok 0 peers

(* The corrupted-document watch list: the fault layer registers the key
   of every document it garbles in flight, and the verifier below counts
   any registered document that nonetheless verifies. The count feeding an
   invariant ("corrupted messages are never accepted") turns a silent
   authentication bypass into a hard test failure. The key binds the full
   content digest, the signature, and the exact certificate (its CA tag). *)
let watch_key tag digest (signature : Keys.signature) (cert : Cert.t) =
  let sg = Keys.signature_bytes signature in
  let ct = Keys.signature_bytes cert.Cert.tag in
  let tl = String.length tag and dl = Bytes.length digest and sl = Bytes.length sg in
  let b = Bytes.create (tl + dl + sl + Bytes.length ct) in
  Bytes.blit_string tag 0 b 0 tl;
  Bytes.blit digest 0 b tl dl;
  Bytes.blit sg 0 b (tl + dl) sl;
  Bytes.blit ct 0 b (tl + dl + sl) (Bytes.length ct);
  Bytes.unsafe_to_string b

let list_key sl = watch_key "L" (Types.list_digest sl) sl.Types.l_sig sl.Types.l_cert
let table_key st = watch_key "T" (Types.table_digest st) st.Types.t_sig st.Types.t_cert
let register_corrupted_list t sl = Hashtbl.replace t.corrupted_docs (list_key sl) ()
let register_corrupted_table t st = Hashtbl.replace t.corrupted_docs (table_key st) ()

(* The one verification body for both document kinds: age, clock skew,
   CRL, order, certificate and signature, under the corrupted-document
   watch, whose key is built only while the watch list is non-empty.
   Nothing is cached: every list and table is signed and timestamped when
   served and each receipt is judged once, so a verdict cache keyed by
   content hit 0 of 83 737 verifications on scale-churn while its keys
   survived into the major heap. Whose document it should be is the
   receipt judge's question, below. *)
let verify_signed t ?max_age ?(revoked_ok = false) ~owner ~time ~cert ~signature ~digest ~key
    doc order_ok =
  let max_age = Option.value ~default:t.cfg.Config.table_freshness max_age in
  let ok =
    now t -. time <= max_age
    && time <= now t +. 0.001
    && (revoked_ok || not (Cert.is_revoked t.authority ~node_id:owner.Peer.id))
    && order_ok ()
    && cert_matches cert owner
    && Cert.verify t.authority ~now:time cert
    && Keys.verify t.registry cert.Cert.public digest signature
  in
  if ok && Hashtbl.length t.corrupted_docs > 0 && Hashtbl.mem t.corrupted_docs (key doc) then
    t.corrupt_accepted <- t.corrupt_accepted + 1;
  ok

let verify_list t ?max_age ?revoked_ok sl =
  let owner = sl.Types.l_owner in
  verify_signed t ?max_age ?revoked_ok ~owner ~time:sl.Types.l_time ~cert:sl.Types.l_cert
    ~signature:sl.Types.l_sig ~digest:(Types.list_digest sl)
    ~key:list_key sl (fun () ->
      match sl.Types.l_kind with
      | Types.Succ_list -> sorted_cw t.space ~from:owner.Peer.id sl.Types.l_peers
      | Types.Pred_list -> sorted_cw t.space ~from:owner.Peer.id (List.rev sl.Types.l_peers))

let verify_table t ?max_age ?revoked_ok st =
  let owner = st.Types.t_owner in
  verify_signed t ?max_age ?revoked_ok ~owner ~time:st.Types.t_time ~cert:st.Types.t_cert
    ~signature:st.Types.t_sig ~digest:(Types.table_digest st)
    ~key:table_key st (fun () ->
      sorted_cw t.space ~from:owner.Peer.id st.Types.t_succs)

(* -- receipts ----------------------------------------------------------- *)

type 'a verdict = Valid of 'a | Moved of 'a | Invalid

(* The receipt rule (see [verdict] in the interface); a reply is verified
   at most once. *)
let judge (asked : Peer.t) (owner : Peer.t) ~kind_ok ~verify doc =
  if Peer.equal owner asked then if kind_ok && verify doc then Valid doc else Invalid
  else if owner.Peer.addr = asked.Peer.addr && verify doc then Moved doc
  else Invalid

let judge_list t ?revoked_ok ~kind asked slist =
  judge asked slist.Types.l_owner ~kind_ok:(slist.Types.l_kind = kind)
    ~verify:(verify_list t ?revoked_ok) slist

let judge_table t asked table =
  judge asked table.Types.t_owner ~kind_ok:true ~verify:(verify_table t) table

let fetch_list t ~src ?revoked_ok ?announce ~kind (asked : Peer.t) ~on_timeout k =
  rpc t ~src ~dst:asked.Peer.addr
    ~make:(fun rid -> Types.List_req { rid; kind; announce })
    ~on_timeout
    (function
      | Types.List_resp { slist; _ } -> k (judge_list t ?revoked_ok ~kind asked slist)
      | _ -> k Invalid)

let fetch_table t ~src (asked : Peer.t) ~on_timeout k =
  rpc t ~src ~dst:asked.Peer.addr
    ~make:(fun rid -> Types.Table_req { rid })
    ~on_timeout
    (function
      | Types.Table_resp { table; _ } -> k (judge_table t asked table)
      | _ -> k Invalid)

let sanitize_table t node (st : Types.signed_table) =
  let gap = Octo_chord.Bounds.estimated_gap (rt node) in
  let tolerance = t.cfg.Config.bound_tolerance in
  let space = t.space in
  let bound = tolerance *. gap in
  let own = st.Types.t_owner.Peer.id in
  let num_fingers = List.length st.Types.t_fingers in
  let fingers =
    List.mapi
      (fun i f ->
        match f with
        | Some peer ->
          let ideal = Id.ideal_finger space own ~num_fingers i in
          if float_of_int (Id.distance_cw space ideal peer.Peer.id) <= bound then Some peer
          else None
        | None -> None)
      st.Types.t_fingers
  in
  (* Successor lists are left intact: there is no ideal position to bound
     them against — the paper is explicit that bound checking is only a
     moderate defense and that successor-list manipulation is countered by
     secret neighbor surveillance, not locally. *)
  { st with Types.t_fingers = fingers; t_memo = None }

let sign_receipt t node ~cid =
  let time = now t in
  {
    Types.rc_cid = cid;
    rc_signer = node.peer;
    rc_time = time;
    rc_sig =
      Keys.sign node.keypair.Keys.secret
        (Types.receipt_digest ~cid ~signer:node.peer ~time);
  }

(* The current node holding a claimed signer identity. A document may
   name any address, the CA's or a negative one included. *)
let signer_node t (p : Peer.t) =
  let addr = p.Peer.addr in
  if addr < 0 || addr >= Array.length t.nodes then None
  else
    let n = t.nodes.(addr) in
    if Peer.equal n.peer p then Some n else None

let verify_receipt t (r : Types.receipt) =
  match signer_node t r.Types.rc_signer with
  | None -> false
  | Some n ->
    Keys.verify t.registry n.cert.Cert.public
      (Types.receipt_digest ~cid:r.Types.rc_cid ~signer:r.Types.rc_signer ~time:r.Types.rc_time)
      r.Types.rc_sig

let sign_statement t node ~target ~cid =
  let time = now t in
  {
    Types.ws_witness = node.peer;
    ws_target = target;
    ws_cid = cid;
    ws_time = time;
    ws_sig =
      Keys.sign node.keypair.Keys.secret
        (Types.statement_digest ~witness:node.peer ~target ~cid ~time);
  }

let verify_statement t (s : Types.witness_statement) =
  match signer_node t s.Types.ws_witness with
  | None -> false
  | Some n ->
    Keys.verify t.registry n.cert.Cert.public
      (Types.statement_digest ~witness:s.Types.ws_witness ~target:s.Types.ws_target
         ~cid:s.Types.ws_cid ~time:s.Types.ws_time)
      s.Types.ws_sig

(* -- node state helpers (config-applying wrappers) ------------------- *)

let push_intro t node sl =
  Node_state.push_intro node ~now:(now t) ~cap:(2 * t.cfg.Config.proof_queue_len) sl

let push_proof t node sl =
  Node_state.push_proof node ~now:(now t) ~queue_len:t.cfg.Config.proof_queue_len sl

let buffer_table t node st = if t.finger_checks then Node_state.buffer_table node st
let update_preds t node peers = Node_state.update_preds node ~now:(now t) peers

let note_timeout t node (peer : Peer.t) =
  let addr = peer.Peer.addr in
  if Node_state.note_timeout node ~now:(now t) addr then begin
    (* Under ring repair, an eviction is remembered so stabilization can
       probe the peer again after a partition heals. *)
    if t.cfg.Config.ring_repair then Node_state.remember_lost node ~at:(now t) peer;
    Rtable.remove (rt node) ~addr
  end

let pred_known_since = Node_state.pred_known_since

(* -- membership ------------------------------------------------------ *)

let issue_cert t ~node_id ~addr ~public =
  Cert.issue t.authority ~node_id ~addr ~public ~now:(now t)
    ~expires:(now t +. Config.cert_lifetime)

let kill t addr =
  let n = t.nodes.(addr) in
  n.alive <- false;
  Imap.remove t.members n.peer.Peer.id;
  Net.set_alive t.net addr false;
  (* Calls queued behind the dead destination's in-flight cap would each
     have to be launched and time out in turn; fail them now instead. *)
  Rpc.fail_queued t.rpc ~dst:addr

(* Re-enter the network under a *chosen* identity — the certificate-
   admission path: the id has already been granted (and claimed in
   [used_ids]) by the CA, so none is drawn here. [revive] is this with a
   freshly drawn id; the draw order (id, then keypair) is unchanged. *)
let revive_as t addr ~id =
  let n = t.nodes.(addr) in
  Imap.remove t.members n.peer.Peer.id;
  let peer = Peer.make ~id ~addr in
  n.peer <- peer;
  (* A rejoining node starts from an empty table, so there is nothing to
     materialize lazily — pin the value. *)
  n.rt <-
    Lazy.from_val
      (Rtable.create t.space ~owner:peer ~num_fingers:Config.num_fingers
         ~list_size:Config.list_size);
  n.keypair <- Keys.generate t.registry t.rng;
  n.cert <- issue_cert t ~node_id:id ~addr ~public:n.keypair.Keys.public;
  n.alive <- true;
  if not n.revoked then Imap.set t.members id peer;
  Node_state.reset_volatile n;
  Net.set_alive t.net addr true

let revive t addr = revive_as t addr ~id:(fresh_id t)

(* Register a caller-chosen identifier, refusing collisions — the
   admission path's equivalent of [fresh_id]'s dedup loop. *)
let claim_id t id =
  if id < 0 || id >= Id.size t.space || Hashtbl.mem t.used_ids id then false
  else begin
    Hashtbl.add t.used_ids id ();
    true
  end

let revoke t addr =
  let n = t.nodes.(addr) in
  if not n.revoked then begin
    n.revoked <- true;
    if Trace.on () then
      Trace.emit ~time:(now t) ~node:addr (Trace.Revoked { addr; id = n.peer.Peer.id });
    Cert.revoke t.authority ~now:(now t) ~node_id:n.peer.Peer.id;
    (* Drop every cached lookup result the revoked identity may have
       vouched for. Verification reads the CRL itself, so nothing else
       needs flushing. *)
    Rcache.flush t.rcache;
    kill t addr;
    (* CRL distribution: every other node purges the ejected identity.
       Materializing an untouched table here draws no randomness and
       emits no trace, so it changes nothing a later touch would see. *)
    Array.iter (fun other -> if other.addr <> addr then Rtable.remove (rt other) ~addr) t.nodes
  end

let sample_metrics t = Series.set t.metrics.mal_frac ~time:(now t) (malicious_fraction t)

(* Table 2's FN inputs. A tested attacker counts as identified if it is
   revoked within the grace window: concurrent testers race to the same
   conviction, and the identification, not the race winner, is what false
   negatives measure. *)
let score_attacker_test t (target : node) =
  t.metrics.tests_on_attacker <- t.metrics.tests_on_attacker + 1;
  after t ~delay:Config.identification_grace (fun () ->
      if target.revoked then t.metrics.attacker_identified <- t.metrics.attacker_identified + 1)

(* Hot-key result cache, fully gated on the config flag: with the flag
   off neither counters nor entries are ever touched, keeping disabled
   runs byte-identical to cacheless builds. *)
let cache_find t (node : node) ~key =
  if not t.cfg.Config.result_cache then None
  else Rcache.find t.rcache ~now:(now t) ~node:node.addr ~key

let cache_store t (node : node) ~key owner =
  if t.cfg.Config.result_cache then
    Rcache.store t.rcache ~now:(now t) ~node:node.addr ~key owner

let result_cache t = t.rcache

(* -- experiment-facing accessors ------------------------------------- *)

let attack_kind_name = function
  | No_attack -> "none"
  | Bias -> "bias"
  | Finger_manip -> "finger"
  | Pollution -> "pollution"
  | Selective_dos -> "dos"

let set_misroute t f = t.misroute <- Some f

(* The trace records campaign windows so the invariant checker can excuse
   lookup convergence while an adversary is actively serving poison —
   exactly as it does for fault windows. [on] is whether the *new* spec
   arms an attack; installing [no_attack] closes the window. *)
let set_attack t spec =
  t.attack <- spec;
  if Trace.on () then
    Trace.emit ~time:(now t) ~node:(-1)
      (Trace.Attack_phase
         { kind = attack_kind_name spec.kind; on = spec.kind <> No_attack })

let clear_pools t = Array.iter (fun n -> n.pool <- [||]) t.nodes

let honest_pool_relay_addrs t =
  Array.to_list t.nodes
  |> List.concat_map (fun n ->
         if n.malicious then []
         else
           Array.fold_right
             (fun p acc -> p.p_first.Peer.addr :: p.p_second.Peer.addr :: acc)
             n.pool [])

type metrics_snapshot = {
  ms_reports : int;
  ms_convicted_honest : int;
  ms_convicted_malicious : int;
  ms_no_conviction : int;
  ms_tests_on_attacker : int;
  ms_attacker_identified : int;
  ms_walks_abandoned : int;
  ms_mal_frac : (float * float) list;
  ms_lookups_cum : (float * float) list;
  ms_biased_cum : (float * float) list;
  ms_ca_msgs_cum : (float * float) list;
}

let metrics_snapshot t =
  let m = t.metrics in
  {
    ms_reports = m.reports;
    ms_convicted_honest = m.convicted_honest;
    ms_convicted_malicious = m.convicted_malicious;
    ms_no_conviction = m.no_conviction;
    ms_tests_on_attacker = m.tests_on_attacker;
    ms_attacker_identified = m.attacker_identified;
    ms_walks_abandoned = m.walks_abandoned;
    ms_mal_frac = Series.rows m.mal_frac;
    ms_lookups_cum = Series.cumulative m.lookups;
    ms_biased_cum = Series.cumulative m.biased;
    ms_ca_msgs_cum = Series.cumulative m.ca_msgs;
  }

(* -- creation --------------------------------------------------------- *)

(* First boot peer with id >= key, wrapping to the smallest id. *)
let boot_successor_of_key (b : boot) key =
  let n = Array.length b.b_ring in
  let lo = ref 0 and hi = ref (n - 1) and res = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if b.b_ring.(mid).Peer.id >= key then begin
      res := Some mid;
      hi := mid - 1
    end
    else lo := mid + 1
  done;
  match !res with Some i -> b.b_ring.(i) | None -> b.b_ring.(0)

(* Replay, for one node, exactly what the eager bootstrap built at world
   creation: [list_size] ring successors/predecessors, boot-time
   [pred_since] entries and all fingers. Runs inside [Lazy.force], so it
   must not touch the node's own [rt] (only the fresh table), draws no
   randomness, and emits no trace — forcing order cannot perturb the
   deterministic stream. [t] is captured before the [{ t with nodes }]
   rebuild, so only the shared mutable [boot] record (and immutable
   fields) may be read, never [t.nodes]. *)
let materialize t (node : node) =
  let table =
    Rtable.create t.space ~owner:node.peer ~num_fingers:Config.num_fingers
      ~list_size:Config.list_size
  in
  let b = t.boot in
  let n = Array.length b.b_ring in
  if n > 0 && b.b_rank.(node.addr) >= 0 then begin
    let my_index = b.b_rank.(node.addr) in
    let k = Config.list_size in
    Rtable.set_succs table (List.init k (fun j -> b.b_ring.((my_index + j + 1) mod n)));
    Rtable.set_preds table (List.init k (fun j -> b.b_ring.((my_index - j - 1 + n) mod n)));
    (* [Node_state.update_preds] at boot time, inlined: it would force
       [node.rt] — the very thunk running us. [pred_since] is necessarily
       empty here (its only writer forces the table first), so the prune
       step is a no-op and the fill matches the eager bootstrap's. *)
    List.iter
      (fun (p : Peer.t) -> Imap.set node.pred_since p.Peer.addr (p.Peer.id, b.b_time))
      (Rtable.preds table);
    for i = 0 to Config.num_fingers - 1 do
      let ideal = Id.ideal_finger t.space node.peer.Peer.id ~num_fingers:Config.num_fingers i in
      Rtable.set_finger table i (Some (boot_successor_of_key b ideal))
    done
  end;
  table

let make_node t ~addr ~malicious =
  let id = fresh_id t in
  let peer = Peer.make ~id ~addr in
  let keypair = Keys.generate t.registry t.rng in
  let node =
    Node_state.make ~addr ~peer
      ~rt:(lazy (invalid_arg "Deployment: routing table forced before bootstrap"))
      ~malicious ~keypair
      ~cert:(issue_cert t ~node_id:id ~addr ~public:keypair.Keys.public)
  in
  node.rt <- lazy (materialize t node);
  node

let bootstrap_topology t =
  let n = Array.length t.nodes in
  (* Reserved (not-yet-admitted) slots are dead at bootstrap and stay out
     of the boot ring; their rank stays -1, so their thunks materialize
     empty tables, exactly like a revived node's. *)
  let sorted =
    Array.of_list
      (List.filter_map
         (fun node -> if node.alive then Some node.peer else None)
         (Array.to_list t.nodes))
  in
  Array.sort (fun a b -> Int.compare a.Peer.id b.Peer.id) sorted;
  let rank = Array.make n (-1) in
  Array.iteri (fun i (p : Peer.t) -> rank.(p.Peer.addr) <- i) sorted;
  let b = t.boot in
  b.b_ring <- sorted;
  b.b_rank <- rank;
  b.b_time <- now t

(* Provision each node's initial relay-pair pool from global knowledge, as
   if the warm-up random walks had already run: pair members are uniform
   random nodes (what an unbiased walk yields at time 0), with established
   session keys. Subsequent pool refills go through real random walks. *)
let bootstrap_pools t =
  let n = Array.length t.nodes and key_size = Octo_crypto.Cipher.key_size in
  let rec relay_for node =
    let other = t.nodes.(Rng.int t.rng n) in
    (* Dead slots (reserved, unadmitted) can neither relay nor need
       pools; with no reserve every slot is alive and the draw
       sequence is exactly the historical one. *)
    if other.addr = node.addr || not other.alive then relay_for node else other
  in
  (* Each leg draws its relay, its session id and its key, the second
     leg first, as the historical record construction evaluated them. *)
  let make_pair node _ =
    let keys = Bytes.create (2 * key_size) in
    let second = relay_for node in
    let second_sid = fresh_sid t in
    Rng.fill t.rng keys key_size key_size;
    let first = relay_for node in
    let first_sid = fresh_sid t in
    Rng.fill t.rng keys 0 key_size;
    {
      p_first = first.peer;
      p_first_sid = first_sid;
      p_second = second.peer;
      p_second_sid = second_sid;
      p_keys = keys;
    }
  in
  Array.iter
    (fun node -> if node.alive then node.pool <- Array.init Config.pool_target (make_pair node))
    t.nodes;
  (* Then the relays' sessions, each table sized once: the legs in the
     order they were drawn, so a relay's session ids arrive ascending. *)
  let legs f =
    Array.iter
      (fun node ->
        Array.iter
          (fun p ->
            f p.p_second.Peer.addr p.p_second_sid p.p_keys ~off:key_size;
            f p.p_first.Peer.addr p.p_first_sid p.p_keys ~off:0)
          node.pool)
      t.nodes
  in
  let counts = Array.make n 0 in
  legs (fun addr _ _ ~off:_ -> counts.(addr) <- counts.(addr) + 1);
  Array.iteri (fun addr count -> Sessions.reserve t.nodes.(addr).sessions count) counts;
  legs (fun addr sid keys ~off -> Sessions.set t.nodes.(addr).sessions sid keys ~key_off:off)

let create ?(cfg = Config.default) ?(fraction_malicious = 0.0) ?(metrics_bucket = 20.0)
    ?(pools = true) ?(reserve = 0) engine latency ~n =
  assert (reserve >= 0);
  assert (n + reserve + 1 <= Octo_sim.Latency.n latency);
  let rng = Rng.split (Engine.rng engine) in
  let registry = Keys.create_registry () in
  let metrics =
    {
      lookups = Series.create ~bucket:metrics_bucket;
      biased = Series.create ~bucket:metrics_bucket;
      ca_msgs = Series.create ~bucket:metrics_bucket;
      mal_frac = Series.create ~bucket:metrics_bucket;
      tests_on_attacker = 0;
      attacker_identified = 0;
      reports = 0;
      convicted_malicious = 0;
      convicted_honest = 0;
      no_conviction = 0;
      walks_abandoned = 0;
    }
  in
  let t =
    {
      engine;
      cfg;
      net = Net.create engine latency;
      space = Id.space ~bits:cfg.Config.bits;
      nodes = [||];
      ca_addr = n + reserve;
      registry;
      authority = Cert.create_authority registry rng;
      rpc = Rpc.create engine ~rng ~in_flight_cap:cfg.Config.rpc_in_flight_cap ();
      rng;
      (* octolint: allow compact-node-state — population-level identity
         registry, one per deployment *)
      used_ids = Hashtbl.create (2 * n);
      attack = no_attack;
      next_sid = 0;
      (* octolint: allow compact-node-state — one per deployment, always
         empty: verification is not cached *)
      verify_cache = Hashtbl.create 1;
      rcache =
        Rcache.create ~ttl:Config.result_cache_ttl ~cap:Config.result_cache_cap;
      (* octolint: allow compact-node-state — fault-layer watch list,
         deployment-wide, populated only under chaos *)
      corrupted_docs = Hashtbl.create 16;
      corrupt_accepted = 0;
      metrics;
      boot = { b_ring = [||]; b_rank = [||]; b_time = 0.0 };
      (* Built once the nodes exist, below. *)
      members = Imap.create ();
      default_rpc_policy = Rpc.policy ~timeout:Config.rpc_timeout ();
      misroute = None;
      finger_checks = false;
    }
  in
  (* Choose which slots are malicious uniformly (among the bootstrap
     population only — reserved slots acquire their disposition when they
     are admitted). *)
  let flags = Array.make (n + reserve) false in
  let num_mal = int_of_float (Float.round (fraction_malicious *. float_of_int n)) in
  let perm = Rng.permutation rng n in
  for i = 0 to num_mal - 1 do
    flags.(perm.(i)) <- true
  done;
  let nodes = Array.init (n + reserve) (fun addr -> make_node t ~addr ~malicious:flags.(addr)) in
  (* The member index in one linear build: inserting each new id into the
     sorted arrays shifted O(n^2) keys. Reserved slots never enter it. *)
  let ring = Array.init n (fun addr -> nodes.(addr).peer) in
  Array.sort (fun a b -> Int.compare a.Peer.id b.Peer.id) ring;
  let members = Imap.of_sorted (Array.map (fun (p : Peer.t) -> (p.Peer.id, p)) ring) in
  let t = { t with nodes; members } in
  (* Reserved slots start dead, outside the boot ring and member index:
     address space held for identities the CA may admit mid-run (Sybil
     campaigns, join storms). With [reserve = 0] this loop is empty and
     construction is draw-for-draw the historical sequence. *)
  for addr = n to n + reserve - 1 do
    kill t addr
  done;
  bootstrap_topology t;
  if pools then bootstrap_pools t;
  t
