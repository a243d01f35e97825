type addr = int

(* Fields are mutable so delivered envelopes can be recycled through a
   per-network freelist: [send] is the hottest allocation site in the
   simulator. Handlers and the fault hook receive an envelope only for the
   duration of the call — they must copy out any field a delayed closure
   needs, never retain the envelope itself. [arrival], the delivery
   timer, is built once with the record and re-armed for every message
   the record carries; a record is back in the pool only after its
   delivery ran, so the timer is never armed twice at once. *)
type 'm envelope = {
  mutable src : addr;
  mutable dst : addr;
  mutable size : int;
  mutable sent_at : float;
  mutable payload : 'm;
  mutable arrival : Engine.handle;  (* set once, when the record is built *)
}

(* A fault layer's decision about one outgoing message. [Fault_deliver]
   replaces the single normal delivery with an explicit list, which is how
   corruption (replacement payload and size), duplication (two entries)
   and bounded reordering (extra delay) are all expressed. *)
type 'm delivery = { d_extra : float; d_payload : 'm; d_size : int }
type 'm fault_verdict = Fault_pass | Fault_drop of string | Fault_deliver of 'm delivery list

type 'm t = {
  engine : Engine.t;
  latency : Latency.t;
  jitter_rng : Rng.t;
  handlers : ('m envelope -> unit) option array;
  alive : bool array;
  tx : int array;
  rx : int array;
  mutable fault_hook : ('m envelope -> 'm fault_verdict) option;
  processing : (Rng.t -> float) option array;
  mutable debug_poison : bool;
  mutable sent : int;
  mutable delivered : int;
  mutable pool : 'm envelope array;
  mutable pool_len : int;
}

let create engine latency =
  let n = Latency.n latency in
  {
    engine;
    latency;
    jitter_rng = Rng.split (Engine.rng engine);
    handlers = Array.make n None;
    alive = Array.make n false;
    tx = Array.make n 0;
    rx = Array.make n 0;
    fault_hook = None;
    processing = Array.make n None;
    debug_poison = false;
    sent = 0;
    delivered = 0;
    pool = [||];
    pool_len = 0;
  }

(* Enough to cover the envelopes in flight at any instant; beyond the cap
   released envelopes are simply left to the GC. *)
let pool_cap = 256

(* Debug poisoning: instead of recycling, a released envelope has its
   fields clobbered and is abandoned, so any handler that (incorrectly)
   retained it sees the poison from its delayed closure instead of
   silently reading a later message's fields. *)
let poison_addr = min_int

let poisoned env = env.src = poison_addr && env.dst = poison_addr

let release t env =
  if t.debug_poison then begin
    env.src <- poison_addr;
    env.dst <- poison_addr;
    env.size <- min_int;
    env.sent_at <- neg_infinity
  end
  else if t.pool_len < pool_cap then begin
    if t.pool_len >= Array.length t.pool then begin
      let grown = Array.make (Int.min pool_cap (max 16 (2 * Array.length t.pool))) env in
      Array.blit t.pool 0 grown 0 t.pool_len;
      t.pool <- grown
    end;
    t.pool.(t.pool_len) <- env;
    t.pool_len <- t.pool_len + 1
  end

(* One delivery of [env] at its destination, then its release. [src],
   [dst] and [size] are read when the delivery runs: the fault hook's
   rewrite happens before [deliver], and nothing writes them after. *)
let arrive t env =
  let src = env.src and dst = env.dst and size = env.size in
  let now = Engine.now t.engine in
  (if t.alive.(dst) then begin
     match t.handlers.(dst) with
     | Some handler ->
       t.delivered <- t.delivered + 1;
       t.rx.(dst) <- t.rx.(dst) + size;
       if Trace.on () then
         Trace.emit ~time:now ~node:dst (Trace.Net_deliver { src; dst; size });
       handler env
     | None ->
       if Trace.on () then
         Trace.emit ~time:now ~node:dst
           (Trace.Net_drop { src; dst; size; reason = "unregistered" })
   end
   else if Trace.on () then
     Trace.emit ~time:now ~node:dst (Trace.Net_drop { src; dst; size; reason = "dead" }));
  release t env

let acquire t ~src ~dst ~size ~sent_at payload =
  if t.pool_len > 0 then begin
    t.pool_len <- t.pool_len - 1;
    let env = t.pool.(t.pool_len) in
    env.src <- src;
    env.dst <- dst;
    env.size <- size;
    env.sent_at <- sent_at;
    env.payload <- payload;
    env
  end
  else begin
    (* The timer's action needs the record, so it goes in second. *)
    let env = { src; dst; size; sent_at; payload; arrival = Engine.timer ignore } in
    env.arrival <- Engine.timer (fun () -> arrive t env);
    env
  end

let latency t = t.latency

let register t addr handler =
  t.handlers.(addr) <- Some handler;
  t.alive.(addr) <- true

let set_alive t addr alive = t.alive.(addr) <- alive

(* Schedule one delivery of [env]. The jitter and processing draws happen
   here, in delivery order, so the no-fault path consumes the RNG stream
   exactly as it always did (one jitter draw, one optional processing
   draw, one arming). *)
let deliver t ~extra env =
  let dst = env.dst in
  let delay = Latency.sample_one_way t.latency t.jitter_rng env.src dst in
  let proc =
    match t.processing.(dst) with Some sampler -> sampler t.jitter_rng | None -> 0.0
  in
  Engine.arm t.engine env.arrival ~delay:(delay +. proc +. extra)

let send t ~src ~dst ~size payload =
  let sent_at = Engine.now t.engine in
  let env = acquire t ~src ~dst ~size ~sent_at payload in
  t.sent <- t.sent + 1;
  t.tx.(src) <- t.tx.(src) + size;
  if Trace.on () then
    Trace.emit ~time:sent_at ~node:src (Trace.Net_send { src; dst; size });
  match t.fault_hook with
  | None -> deliver t ~extra:0.0 env
  | Some hook -> (
    match hook env with
    | Fault_pass -> deliver t ~extra:0.0 env
    | Fault_drop reason ->
      if Trace.on () then
        Trace.emit ~time:sent_at ~node:src (Trace.Net_drop { src; dst; size; reason });
      release t env
    | Fault_deliver [] -> release t env
    | Fault_deliver (first :: rest) ->
      (* The transmit accounting above already counted the original
         size; each delivery is received (and traced) at its own size. *)
      env.payload <- first.d_payload;
      env.size <- first.d_size;
      deliver t ~extra:first.d_extra env;
      List.iter
        (fun d ->
          deliver t ~extra:d.d_extra (acquire t ~src ~dst ~size:d.d_size ~sent_at d.d_payload))
        rest)

let set_fault_hook t hook = t.fault_hook <- hook
let set_debug_poison t flag = t.debug_poison <- flag
let set_processing_delay t addr sampler = t.processing.(addr) <- sampler
let tx_bytes t addr = t.tx.(addr)
let rx_bytes t addr = t.rx.(addr)
let messages_sent t = t.sent
let messages_delivered t = t.delivered
