module Peer = Octo_chord.Peer
module Rtable = Octo_chord.Rtable
module Keys = Octo_crypto.Keys
module Cert = Octo_crypto.Cert
module Imap = Octo_sim.Imap
module Wire = Octo_crypto.Wire
module Rng = Octo_sim.Rng

type relay = { r_peer : Peer.t; r_sid : int; r_key : bytes }

type pair = {
  p_first : Peer.t;
  p_first_sid : int;
  p_second : Peer.t;
  p_second_sid : int;
  p_keys : bytes;
}

type list_mark = { lm_owner : Peer.t; lm_peers : Peer.t list; lm_at : Wire.mark }

type table_mark = {
  tm_owner : Peer.t;
  tm_fingers : Peer.t option list;
  tm_succs : Peer.t list;
  tm_at : Wire.mark;
}

type proof_queue =
  | No_proofs
  | Proof_ring of {
      times : float array;  (* arrival time of each slot's document *)
      docs : Types.signed_list array;
      mutable newest : int;  (* the slot pushed last *)
      mutable count : int;  (* filled slots *)
    }

type t = {
  addr : int;
  mutable peer : Peer.t;
  mutable rt : Rtable.t Lazy.t;
  mutable alive : bool;
  mutable revoked : bool;
  mutable malicious : bool;
  mutable keypair : Keys.keypair;
  mutable cert : Cert.t;
  mutable proofs : proof_queue;
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
  mutable succ_mark : list_mark option;
  mutable pred_mark : list_mark option;
  mutable table_mark : table_mark option;
}

let rt node = Lazy.force node.rt

let make ~addr ~peer ~rt ~malicious ~keypair ~cert =
  {
    addr;
    peer;
    rt;
    alive = true;
    revoked = false;
    malicious;
    keypair;
    cert;
    proofs = No_proofs;
    sessions = Sessions.create ();
    relay_log = Relay_log.create ();
    receipts = Imap.create ();
    statements = Imap.create ();
    buffered_tables = [];
    pool = [||];
    pred_since = Imap.create ();
    witness_waits = Imap.create ();
    intro_proofs = [];
    storage = Imap.create ();
    timeout_strikes = Imap.create ();
    lost_peers = [];
    succ_mark = None;
    pred_mark = None;
    table_mark = None;
  }

let is_active_malicious node = node.malicious && node.alive && not node.revoked

let truncate k lst =
  let rec take n = function [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r in
  take k lst

let push_intro node ~now ~cap sl =
  (* One retained introduction per owner: newest wins. *)
  let others =
    List.filter
      (fun ((_, p) : float * Types.signed_list) ->
        not (Peer.equal p.Types.l_owner sl.Types.l_owner))
      node.intro_proofs
  in
  node.intro_proofs <- truncate cap ((now, sl) :: others)

(* Whether a slot other than [skip] holds a document of [owner]'s. *)
let rec owns_slot docs ~skip (owner : Peer.t) i =
  i < Array.length docs
  && ((i <> skip && Peer.equal (Array.unsafe_get docs i).Types.l_owner owner)
     || owns_slot docs ~skip owner (i + 1))

(* A document that leaves the window is archived unless its owner still
   has one in it: the last document from a former head is the provenance
   of whatever it introduced (CA justification chains need it after the
   rolling window has moved on). The archive keeps the newest per owner. *)
let push_proof node ~now ~queue_len (sl : Types.signed_list) =
  match node.proofs with
  | No_proofs ->
    if queue_len > 0 then
      node.proofs <-
        Proof_ring
          { times = Array.make queue_len now; docs = Array.make queue_len sl; newest = 0; count = 1 }
    else push_intro node ~now ~cap:(2 * queue_len) sl
  | Proof_ring r ->
    let slot = (r.newest + 1) mod Array.length r.docs in
    if r.count < Array.length r.docs then r.count <- r.count + 1
    else begin
      (* The slot's document, the oldest, leaves the window. *)
      let evicted = r.docs.(slot) in
      let owner = evicted.Types.l_owner in
      if not (Peer.equal sl.Types.l_owner owner || owns_slot r.docs ~skip:slot owner 0) then
        push_intro node ~now:r.times.(slot) ~cap:(2 * queue_len) evicted
    end;
    r.times.(slot) <- now;
    r.docs.(slot) <- sl;
    r.newest <- slot

let proof_list node =
  match node.proofs with
  | No_proofs -> []
  | Proof_ring r ->
    let cap = Array.length r.docs in
    (* Oldest first onto the list, so the newest ends at its head. *)
    let rec build age acc =
      if age < 0 then acc
      else
        let i = (r.newest - age + cap) mod cap in
        build (age - 1) ((r.times.(i), r.docs.(i)) :: acc)
    in
    build (r.count - 1) []

(* The pool changes rarely (a walk's new pair, a pair a failed path
   retires) and is read on every anonymous query. A full pool takes a new
   pair in place; otherwise the array is rebuilt one longer or shorter. *)
let add_pair node pair =
  let pool = node.pool in
  let len = Array.length pool in
  let fresh = if len >= Config.pool_target then pool else Array.make (len + 1) pair in
  Array.blit pool 0 fresh 1 (Array.length fresh - 1);
  fresh.(0) <- pair;
  node.pool <- fresh

let discard_pair node pair =
  if Array.exists (fun p -> p == pair) node.pool then
    node.pool <- Array.of_list (List.filter (fun p -> p != pair) (Array.to_list node.pool))

let pick_pair node rng = if Array.length node.pool = 0 then None else Some (Rng.choose rng node.pool)
let pick_two node rng = Rng.sample_two rng node.pool

let buffer_table node st = node.buffered_tables <- truncate 16 (st :: node.buffered_tables)

let rec lists ~addr ~id = function
  | [] -> false
  | (p : Peer.t) :: rest -> (p.Peer.addr = addr && p.Peer.id = id) || lists ~addr ~id rest

(* [listed] while every binding so far names the identity [listed] holds
   at its address, [[]] from the first one that does not. *)
let still_listed addr ((id, _) : int * float) listed =
  match listed with [] -> [] | _ :: _ -> if lists ~addr ~id listed then listed else []

(* Whether [since] binds exactly the addresses of [preds], each to the
   identity listed there, so that the bookkeeping in [update_preds] would
   write nothing. A list holds each id once, so when every binding names
   a listed identity, the bindings pair off one-to-one with entries, and
   equal sizes leave no entry unbound. Allocates nothing: stabilization
   re-sets the same predecessors every round. *)
let tracks since preds =
  Imap.length since = List.length preds
  &&
  match preds with
  | [] -> true
  | _ :: _ -> ( match Imap.fold still_listed since preds with [] -> false | _ :: _ -> true)

let update_preds node ~now peers =
  let table = rt node in
  Rtable.set_preds table peers;
  let current = Rtable.preds table in
  if not (tracks node.pred_since current) then begin
    List.iter
      (fun p ->
        (* Track (identity, arrival): an address that rejoined with a fresh
           id restarts its clock, so surveillance never treats the new
           identity as long-known. *)
        match Imap.find_opt node.pred_since p.Peer.addr with
        | Some (id, _) when id = p.Peer.id -> ()
        | Some _ | None -> Imap.set node.pred_since p.Peer.addr (p.Peer.id, now))
      current;
    (* Forget entries that fell out so a readmission restarts the clock;
       collect first, since [Imap.iter] forbids removal mid-walk. *)
    let stale =
      Imap.fold
        (fun addr _ acc ->
          if List.exists (fun p -> p.Peer.addr = addr) current then acc else addr :: acc)
        node.pred_since []
    in
    List.iter (Imap.remove node.pred_since) stale
  end

(* Evict a peer only after repeated timeouts within a short window: a
   single slow round trip must not drop a live neighbor (it races the CA's
   justification analysis and costs real false accusations). *)
let note_timeout node ~now addr =
  match Imap.find_opt node.timeout_strikes addr with
  | Some (count, last) when now -. last <= Config.timeout_strike_window ->
    Imap.set node.timeout_strikes addr (count + 1, now);
    count + 1 >= Config.timeout_strikes
  | Some _ | None ->
    Imap.set node.timeout_strikes addr (1, now);
    Config.timeout_strikes <= 1

(* Ring-repair memory: peers evicted on timeout are remembered (newest
   first, deduplicated by address, bounded) so stabilization can probe
   them again after a partition heals. The original loss time is kept on
   re-remembering, so entries age out against the gc horizon. *)
(* Generous: a partitioned node can evict most of its routing table, and
   truncating here would drop exactly the early-evicted ring neighbors
   that matter most for re-knitting. One entry is probed per
   stabilization round, so the list drains within a couple of minutes of
   simulated time regardless. *)
let lost_peers_cap = 64

let remember_lost node ~at (peer : Peer.t) =
  let same ((p : Peer.t), _) = p.Peer.addr = peer.Peer.addr in
  let kept_at =
    match List.find_opt same node.lost_peers with Some (_, earlier) -> earlier | None -> at
  in
  node.lost_peers <-
    truncate lost_peers_cap ((peer, kept_at) :: List.filter (fun e -> not (same e)) node.lost_peers)

let take_lost node =
  match List.rev node.lost_peers with
  | [] -> None
  | oldest :: rest ->
    node.lost_peers <- List.rev rest;
    Some oldest

let pred_known_since node (peer : Peer.t) =
  match Imap.find_opt node.pred_since peer.Peer.addr with
  | Some (id, since) when id = peer.Peer.id -> Some since
  | Some _ | None -> None

let reset_volatile node =
  Sessions.clear node.sessions;
  Relay_log.clear node.relay_log;
  Imap.clear node.receipts;
  Imap.clear node.statements;
  Imap.clear node.pred_since;
  Imap.clear node.witness_waits;
  Imap.clear node.timeout_strikes;
  node.proofs <- No_proofs;
  node.buffered_tables <- [];
  node.intro_proofs <- [];
  node.pool <- [||];
  node.lost_peers <- []

(* A node signs the same list or table over and over with only a new
   time. The digest resumes from the node's mark for that document kind
   when the owner and entries are the ones the mark covers, and hashes
   only the time part. Otherwise it runs from scratch and replaces the
   mark. Both paths write the prefix with [Types]' own writers, so the
   digest is [Types.list_digest]'s / [Types.table_digest]'s. *)
let list_digest node kind peers ~time =
  let owner = node.peer in
  let slot = match kind with Types.Succ_list -> node.succ_mark | Types.Pred_list -> node.pred_mark in
  let w =
    match slot with
    | Some m
      when Peer.equal m.lm_owner owner
           && (m.lm_peers == peers || List.equal Peer.equal m.lm_peers peers) ->
      Wire.open_at m.lm_at
    | Some _ | None ->
      let w = Wire.open_digest () in
      Types.list_prefix w ~owner ~kind peers;
      let m = Some { lm_owner = owner; lm_peers = peers; lm_at = Wire.mark w } in
      (match kind with
      | Types.Succ_list -> node.succ_mark <- m
      | Types.Pred_list -> node.pred_mark <- m);
      w
  in
  Types.finish_at w ~time

let table_digest node ~fingers ~succs ~time =
  let owner = node.peer in
  let w =
    match node.table_mark with
    | Some m
      when Peer.equal m.tm_owner owner
           && (m.tm_succs == succs || List.equal Peer.equal m.tm_succs succs)
           && (m.tm_fingers == fingers || List.equal (Option.equal Peer.equal) m.tm_fingers fingers) ->
      Wire.open_at m.tm_at
    | Some _ | None ->
      let w = Wire.open_digest () in
      Types.table_prefix w ~owner ~fingers ~succs;
      node.table_mark <-
        Some { tm_owner = owner; tm_fingers = fingers; tm_succs = succs; tm_at = Wire.mark w };
      w
  in
  Types.finish_at w ~time
