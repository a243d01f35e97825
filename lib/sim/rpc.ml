type policy = { timeout : float }

let policy ~timeout () = { timeout }

type state = Queued | Flying | Done

(* Entries are pooled: every per-call field is mutable so a retired
   record can be re-initialised in place by the next [call] instead of
   allocating a fresh record per RPC. [e_fire], the timeout action, is
   built once with the record: it reads the entry's state when it runs,
   so every call the record carries shares it, and a resolved call's
   cancelled event pins no closure of its own. [e_queued] tracks physical
   membership in a backpressure FIFO — an entry resolved while still
   queued is logically Done while a stale reference to it sits in the
   queue, and recycling it then would let the queue resurrect a different
   call. Such entries are recycled by the queue pop instead. *)
type 'm entry = {
  mutable e_rid : int;
  mutable e_src : int;
  mutable e_dst : int;
  mutable e_policy : policy;
  mutable e_send : int -> unit;
  mutable e_on_give_up : unit -> unit;
  mutable e_k : 'm -> unit;
  mutable e_state : state;
  mutable e_timer : Engine.handle option;  (* set while Flying *)
  mutable e_queued : bool;  (* physically present in some backpressure queue *)
  e_fire : unit -> unit;  (* [on_timeout] of this entry *)
}

type 'm t = {
  engine : Engine.t;
  cap : int;  (* per-dst in-flight cap; 0 = unbounded *)
  table : (int, 'm entry) Hashtbl.t;
  flying : (int, int) Hashtbl.t;  (* dst -> calls holding a slot *)
  queues : (int, 'm entry Queue.t) Hashtbl.t;  (* dst -> backpressure FIFO *)
  mutable free : 'm entry list;  (* retired entries ready for reuse *)
  mutable next_id : int;
  mutable queued_total : int;  (* calls ever deferred by the in-flight cap *)
}

type token = int

let create engine ~rng:_ ?(in_flight_cap = 0) () =
  {
    engine;
    cap = in_flight_cap;
    table = Hashtbl.create 64;
    flying = Hashtbl.create 16;
    queues = Hashtbl.create 16;
    free = [];
    next_id = 0;
    queued_total = 0;
  }

let in_flight t ~dst = Option.value ~default:0 (Hashtbl.find_opt t.flying dst)

let queued t ~dst =
  match Hashtbl.find_opt t.queues dst with
  | None -> 0
  | Some q -> Queue.fold (fun n e -> if e.e_state = Queued then n + 1 else n) 0 q

let outstanding t = Hashtbl.length t.table

let caller t rid =
  match Hashtbl.find_opt t.table rid with Some e -> Some e.e_src | None -> None

let emit t data =
  if Trace.on () then Trace.emit ~time:(Engine.now t.engine) ~node:(-1) data

let nop_send (_ : int) = ()
let nop_give_up () = ()

(* Drop closure references so a pooled entry does not pin its last
   call's environment, then make the entry available for reuse. Only
   legal once the entry is Done and out of every queue. *)
let recycle t e =
  e.e_send <- nop_send;
  e.e_on_give_up <- nop_give_up;
  e.e_k <- ignore;
  t.free <- e :: t.free

let release_slot t dst =
  let n = in_flight t ~dst - 1 in
  if n <= 0 then Hashtbl.remove t.flying dst else Hashtbl.replace t.flying dst n

(* Retire an entry, releasing its in-flight slot if it held one; the
   caller pumps the queue after running user callbacks. The entry goes
   back to the pool unless a backpressure queue still references it, in
   which case the eventual queue pop recycles it. Callers must copy any
   fields they still need to locals *before* retiring. *)
let retire t e =
  let held_slot = e.e_state = Flying in
  e.e_state <- Done;
  Hashtbl.remove t.table e.e_rid;
  if held_slot then release_slot t e.e_dst;
  if not e.e_queued then recycle t e;
  held_slot

(* Take a slot and send: the timeout is scheduled before the send runs so
   that the timeout's [Sched] trace event precedes the send's. *)
let rec launch t e =
  Hashtbl.replace t.flying e.e_dst (in_flight t ~dst:e.e_dst + 1);
  e.e_state <- Flying;
  e.e_timer <- Some (Engine.schedule t.engine ~delay:e.e_policy.timeout e.e_fire);
  e.e_send e.e_rid

and on_timeout t e =
  if e.e_state = Flying then begin
    e.e_timer <- None;
    if Trace.on () then emit t (Trace.Rpc_timeout { rid = e.e_rid });
    give_up t e
  end

and give_up t e =
  let rid = e.e_rid and dst = e.e_dst and on_give_up = e.e_on_give_up in
  let held = retire t e in
  (* A call failed while queued never sent: it made 0 attempts. *)
  if Trace.on () then emit t (Trace.Rpc_giveup { rid; attempts = Bool.to_int held });
  (* Notify before pumping so the failed call is fully settled from the
     caller's point of view when the next queued send fires. [e] may
     already be recycled here — only the locals above are safe. *)
  on_give_up ();
  if held then pump t dst

and pump t dst =
  if t.cap > 0 then
    match Hashtbl.find_opt t.queues dst with
    | None -> ()
    | Some q ->
      if (not (Queue.is_empty q)) && in_flight t ~dst < t.cap then begin
        let e = Queue.pop q in
        e.e_queued <- false;
        if e.e_state = Queued then launch t e
        else begin
          (* Resolved while queued: the retire that settled it deferred
             recycling to this pop. *)
          recycle t e;
          pump t dst
        end
      end

let call t ~src ~dst ~policy ~send ~on_give_up k =
  let rid = t.next_id in
  t.next_id <- t.next_id + 1;
  let e =
    match t.free with
    | e :: rest ->
      t.free <- rest;
      e.e_rid <- rid;
      e.e_src <- src;
      e.e_dst <- dst;
      e.e_policy <- policy;
      e.e_send <- send;
      e.e_on_give_up <- on_give_up;
      e.e_k <- k;
      e.e_state <- Queued;
      e.e_timer <- None;
      e.e_queued <- false;
      e
    | [] ->
      let rec e =
        {
          e_rid = rid;
          e_src = src;
          e_dst = dst;
          e_policy = policy;
          e_send = send;
          e_on_give_up = on_give_up;
          e_k = k;
          e_state = Queued;
          e_timer = None;
          e_queued = false;
          e_fire = (fun () -> on_timeout t e);
        }
      in
      e
  in
  Hashtbl.replace t.table rid e;
  if t.cap > 0 && in_flight t ~dst >= t.cap then begin
    let q =
      match Hashtbl.find_opt t.queues dst with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace t.queues dst q;
        q
    in
    Queue.push e q;
    e.e_queued <- true;
    t.queued_total <- t.queued_total + 1;
    if Trace.on () then emit t (Trace.Rpc_queued { rid; dst })
  end
  else launch t e;
  rid

let rid tok = tok

let resolve t id resp =
  match Hashtbl.find_opt t.table id with
  | Some e ->
    Option.iter Engine.cancel e.e_timer;
    e.e_timer <- None;
    let dst = e.e_dst and k = e.e_k in
    let held = retire t e in
    if Trace.on () then emit t (Trace.Rpc_resolve { rid = id });
    k resp;
    if held then pump t dst;
    true
  | None ->
    if Trace.on () then emit t (Trace.Rpc_late { rid = id });
    false

let fail_queued t ~dst =
  if t.cap > 0 then
    match Hashtbl.find_opt t.queues dst with
    | None -> ()
    | Some q ->
      (* Drain into a list first: give-up callbacks may issue fresh calls
         to the same destination, and those must queue normally rather
         than be swept up by this pass. *)
      let doomed = ref [] in
      while not (Queue.is_empty q) do
        let e = Queue.pop q in
        e.e_queued <- false;
        if e.e_state = Queued then doomed := e :: !doomed else recycle t e
      done;
      List.iter (give_up t) (List.rev !doomed)

let queued_ever t = t.queued_total
