module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Rtable = Octo_chord.Rtable
module Net = Octo_sim.Net
module Trace = Octo_sim.Trace
module Wire = Octo_crypto.Wire

type violation = { event : Trace.event option; what : string }

type t = {
  w : World.t;
  mutable violations : violation list;
  mutable checked : int;
  (* addr -> revocation time, learnt from the event stream *)
  revoked_at : (int, float) Hashtbl.t;
  (* (initiator, key) -> start time of the most recent lookup; routing a
     lookup through a peer is only inexcusable when the peer was revoked
     well before the lookup even began (candidates learnt from fresh
     tables persist for the whole lookup) *)
  starts : (int * int, float) Hashtbl.t;
  (* per-addr byte counters accumulated from the stream, plus the Net
     counter snapshot taken at creation time so mid-run attachment still
     reconciles *)
  tx_seen : int array;
  rx_seen : int array;
  tx_base : int array;
  rx_base : int array;
  grace : float;
  (* liveness-disturbance tracking, fed by the fault layer's events: while
     a partition/link/outage window is open (or shortly after any
     disturbance) lookups may legitimately converge to a stale owner, so
     Invariant 1 is excused rather than reported as a false violation *)
  mutable disturbances : int;
  mutable last_disturbance : float;
}

let violations t = List.rev t.violations
let checked t = t.checked
let ok t = t.violations = []

let flag t ?event what = t.violations <- { event; what } :: t.violations

let create ?grace w =
  let cfg = w.World.cfg in
  (* CRL distribution is instant in the simulator, but signed tables stay
     verifiable for [table_freshness] and an in-flight query adds up to a
     deadline on top: only references older than that are violations. *)
  let grace =
    match grace with
    | Some g -> g
    | None -> cfg.Config.table_freshness +. (2.0 *. cfg.Config.query_deadline) +. 2.0
  in
  let n = w.World.ca_addr + 1 in
  let net = w.World.net in
  let tx_base = Array.init n (fun a -> Net.tx_bytes net a) in
  let rx_base = Array.init n (fun a -> Net.rx_bytes net a) in
  {
    w;
    violations = [];
    checked = 0;
    (* octolint: allow compact-node-state — checker-internal bookkeeping,
       one instance per run, outside the simulated population *)
    revoked_at = Hashtbl.create 8;
    (* octolint: allow compact-node-state — checker-internal (see above) *)
    starts = Hashtbl.create 32;
    tx_seen = Array.make n 0;
    rx_seen = Array.make n 0;
    tx_base;
    rx_base;
    grace;
    disturbances = 0;
    last_disturbance = neg_infinity;
  }

(* [addr] was revoked so long before [time] that no verifiable routing
   state could still name it. *)
let inexcusably_revoked t ~time addr =
  match Hashtbl.find_opt t.revoked_at addr with
  | Some at -> time -. at > t.grace
  | None -> false

(* Invariant 3: protocol-level sizes must respect the paper's byte
   budget.  Every message carries the 36-byte header; a receipt is
   header + item + timestamp + signature; pings and replication acks are
   header-only. *)
let receipt_bytes = Wire.routing_item + Wire.timestamp + Wire.signature

let check_msg t ev ~kind ~size =
  if size < Wire.header then
    flag t ~event:ev (Printf.sprintf "%s smaller than the %dB header: %dB" kind Wire.header size);
  (match kind with
  | "Ping_req" | "Ping_resp" | "Table_req" | "Proofs_req" | "Replicate_ack" ->
    if size <> Wire.header then
      flag t ~event:ev
        (Printf.sprintf "%s must be exactly the %dB header, got %dB" kind Wire.header size)
  | "Receipt_msg" ->
    let expect = Wire.header + receipt_bytes in
    if size <> expect then
      flag t ~event:ev (Printf.sprintf "Receipt_msg must be %dB, got %dB" expect size)
  | "List_resp" | "Table_resp" ->
    (* Smallest possible signed document: timestamp + signature +
       certificate on top of the header, with zero routing items — a node
       that lost every peer to a fault legitimately serves an empty
       list. *)
    let floor = Wire.header + Wire.timestamp + Wire.signature + Wire.certificate in
    if size < floor then
      flag t ~event:ev (Printf.sprintf "%s below signed-document floor %dB: %dB" kind floor size)
  | _ -> ())

let on_event t (ev : Trace.event) =
  t.checked <- t.checked + 1;
  match ev.Trace.data with
  | Trace.Revoked { addr; _ } -> Hashtbl.replace t.revoked_at addr ev.Trace.time
  | Trace.Net_send { src; size; _ } ->
    if src >= 0 && src < Array.length t.tx_seen then t.tx_seen.(src) <- t.tx_seen.(src) + size
  | Trace.Net_deliver { dst; size; _ } ->
    if dst >= 0 && dst < Array.length t.rx_seen then t.rx_seen.(dst) <- t.rx_seen.(dst) + size
  | Trace.Msg { kind; size; _ } -> check_msg t ev ~kind ~size
  | Trace.Lookup_start { key; _ } ->
    Hashtbl.replace t.starts (ev.Trace.node, key) ev.Trace.time
  | Trace.Lookup_done { key; owner_addr; owner_id; _ } ->
    let start = Hashtbl.find_opt t.starts (ev.Trace.node, key) in
    Hashtbl.remove t.starts (ev.Trace.node, key);
    if owner_addr >= 0 then begin
      (* Invariant 1: a converged lookup names the true successor per the
         global view. A node revoked after the lookup began is excused —
         the initiator could not have known. So is a lookup overlapping a
         liveness disturbance (partition, outage, crash burst): global
         truth and the reachable ring legitimately disagree until the
         fault heals and maintenance re-converges. *)
      let disturbed =
        t.disturbances > 0
        || ev.Trace.time -. t.last_disturbance <= t.grace
        || (match start with Some s -> s -. t.last_disturbance <= t.grace | None -> false)
      in
      let revoked_mid_lookup =
        match (Hashtbl.find_opt t.revoked_at owner_addr, start) with
        | Some at, Some s -> at >= s -. t.grace
        | Some _, None -> true
        | None, _ -> false
      in
      match World.find_owner t.w ~key with
      | _ when revoked_mid_lookup || disturbed -> ()
      | Some truth when truth.Peer.addr = owner_addr && truth.Peer.id = owner_id -> ()
      | Some truth ->
        flag t ~event:ev
          (Printf.sprintf "lookup for key %d converged to %d@%d but true successor is %d@%d"
             key owner_id owner_addr truth.Peer.id truth.Peer.addr)
      | None -> flag t ~event:ev (Printf.sprintf "lookup for key %d converged in an empty world" key)
    end
  | Trace.Query_sent { relays; cid; _ } ->
    (* Invariant 2: anonymous-path relays are pairwise distinct and never
       include the initiator. *)
    let initiator = ev.Trace.node in
    if List.length (List.sort_uniq Int.compare relays) <> List.length relays then
      flag t ~event:ev (Printf.sprintf "query %d uses a duplicate relay" cid);
    if List.mem initiator relays then
      flag t ~event:ev (Printf.sprintf "query %d routes through its initiator %d" cid initiator)
  | Trace.Lookup_hop { peer_addr; key; _ } -> (
    (* Invariant 4: revoked identities vanish from routing items. A hop
       is only inexcusable when the peer was already long revoked before
       this lookup started. *)
    match (Hashtbl.find_opt t.revoked_at peer_addr, Hashtbl.find_opt t.starts (ev.Trace.node, key)) with
    | Some at, Some start when start -. at > t.grace ->
      flag t ~event:ev
        (Printf.sprintf "lookup for key %d queried %d, revoked %.1fs before it started" key
           peer_addr (start -. at))
    | Some at, None when inexcusably_revoked t ~time:ev.Trace.time peer_addr ->
      ignore at;
      flag t ~event:ev
        (Printf.sprintf "lookup for key %d queried %d, revoked earlier" key peer_addr)
    | _ -> ())
  | Trace.Walk_step { hop; _ } ->
    (* Walk candidates come from the immediately preceding fetched table,
       so plain grace suffices. *)
    if inexcusably_revoked t ~time:ev.Trace.time hop then
      flag t ~event:ev (Printf.sprintf "walk extended through %d, revoked earlier" hop)
  | Trace.Circuit_built { relays } ->
    let initiator = ev.Trace.node in
    if List.length (List.sort_uniq Int.compare relays) <> List.length relays then
      flag t ~event:ev "circuit uses a duplicate relay";
    if List.mem initiator relays then
      flag t ~event:ev (Printf.sprintf "circuit routes through its initiator %d" initiator)
  | Trace.Fault_phase { fault = "partition" | "link" | "outage"; on } ->
    if on then t.disturbances <- t.disturbances + 1
    else t.disturbances <- Int.max 0 (t.disturbances - 1);
    t.last_disturbance <- ev.Trace.time
  (* An armed adversary campaign is a disturbance too: while colluders
     actively serve poisoned tables, a lookup legitimately converges to
     whatever the attacker answered — the paper's own bias-rate figures
     measure exactly that — so global-truth convergence is only
     enforceable once the window closes (plus grace). Every other
     invariant (relay rules, byte budget, revoked reuse) stays live. *)
  | Trace.Attack_phase { on; _ } ->
    if on then t.disturbances <- t.disturbances + 1
    else t.disturbances <- Int.max 0 (t.disturbances - 1);
    t.last_disturbance <- ev.Trace.time
  | Trace.Fault_crash _ | Trace.Fault_recover _ -> t.last_disturbance <- ev.Trace.time
  (* Churn is a liveness disturbance too: a leave orphans its neighbors'
     pointers and a join is only visible once maintenance has run, so
     lookups overlapping the grace window around either are excused
     exactly like crash/recover events. *)
  | Trace.Churn_leave _ | Trace.Churn_join _ -> t.last_disturbance <- ev.Trace.time
  | _ -> ()

let attach t trace = Trace.subscribe trace (on_event t)

(* Liveness check, called once the network has had time to settle after
   the last fault window: every alive node's successor pointer must name
   the alive unrevoked peer that actually follows it on the ring. This is
   the "ring re-converges after heal" property — drops and evictions
   during a partition are fine, failing to re-knit afterwards is not. *)
let check_convergence t =
  let w = t.w in
  let members = w.World.members in
  let n = World.n_nodes w in
  for a = 0 to n - 1 do
    let node = World.node w a in
    if node.World.alive && not node.World.revoked then begin
      (* Ring truth via the member index: the clockwise-nearest alive
         unrevoked peer is the smallest id strictly above ours, wrapping
         to the overall smallest. O(log n) per node instead of the old
         population scan — the difference between feasible and not at
         n = 10^5. *)
      let truth =
        let next =
          match Octo_sim.Imap.find_ceil members (node.World.peer.Peer.id + 1) with
          | Some (_, p) -> Some p
          | None -> Option.map snd (Octo_sim.Imap.first members)
        in
        match next with Some p when not (Peer.equal p node.World.peer) -> Some p | _ -> None
      in
      match (truth, Rtable.successor (World.rt node)) with
      | None, _ -> ()
      | Some p, Some s when Peer.equal s p -> ()
      | Some p, Some s ->
        flag t
          (Printf.sprintf "node %d: successor is %d@%d but ring truth is %d@%d" a s.Peer.id
             s.Peer.addr p.Peer.id p.Peer.addr)
      | Some p, None ->
        flag t
          (Printf.sprintf "node %d: no successor but ring truth is %d@%d" a p.Peer.id
             p.Peer.addr)
    end
  done

(* Eclipse watch: no honest node's successor list may consist entirely of
   active colluders. A successor entry counts as a colluder only if it
   names a malicious node's *current* identity and that node is alive and
   unrevoked — stale entries for ejected or re-keyed identities cannot
   serve an attacker. *)
let check_eclipse ?(allowed = 0) t =
  let w = t.w in
  let n = World.n_nodes w in
  let colluder (p : Peer.t) =
    let other = World.node w p.Peer.addr in
    other.World.malicious && other.World.alive && (not other.World.revoked)
    && Peer.equal other.World.peer p
  in
  let eclipsed = ref 0 in
  for a = 0 to n - 1 do
    let node = World.node w a in
    if
      node.World.alive && (not node.World.revoked) && not node.World.malicious
    then begin
      let succs = Rtable.succs (World.rt node) in
      if succs <> [] && List.for_all colluder succs then begin
        incr eclipsed;
        if !eclipsed > allowed then
          flag t
            (Printf.sprintf "node %d: successor list is 100%% colluders (%s)" a
               (String.concat ","
                  (List.map (fun (p : Peer.t) -> string_of_int p.Peer.addr) succs)))
      end
    end
  done;
  !eclipsed

(* Invariant 3b, end-of-run: the stream's per-node byte accounting must
   reconcile with the Net counters — a mismatch means events were lost or
   traffic bypassed the instrumented egress. *)
let finish t =
  (* Invariant 5: garbled documents never pass verification — the
     watch-list counter in the deployment must still be zero. *)
  if t.w.World.corrupt_accepted > 0 then
    flag t
      (Printf.sprintf "%d corrupted document%s passed verification" t.w.World.corrupt_accepted
         (if t.w.World.corrupt_accepted = 1 then "" else "s"));
  let net = t.w.World.net in
  Array.iteri
    (fun addr seen ->
      let actual = Net.tx_bytes net addr - t.tx_base.(addr) in
      if seen <> actual then
        flag t (Printf.sprintf "node %d: trace saw %dB sent but net counted %dB" addr seen actual))
    t.tx_seen;
  Array.iteri
    (fun addr seen ->
      let actual = Net.rx_bytes net addr - t.rx_base.(addr) in
      if seen <> actual then
        flag t
          (Printf.sprintf "node %d: trace saw %dB received but net counted %dB" addr seen actual))
    t.rx_seen

let report t ppf =
  let vs = violations t in
  Format.fprintf ppf "invariant checker: %d events checked, %d violation%s@." t.checked
    (List.length vs)
    (if List.length vs = 1 then "" else "s");
  List.iter
    (fun v ->
      match v.event with
      | Some ev -> Format.fprintf ppf "  VIOLATION %s@.    offending event: %s@." v.what (Trace.to_json ev)
      | None -> Format.fprintf ppf "  VIOLATION %s@." v.what)
    vs
