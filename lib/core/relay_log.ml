(* One node's relay state, keyed by cid, in sorted parallel arrays: the
   cid, the previous hop and session packed into one int, and the
   receive and route times unboxed, [nan] where absent. An entry lives
   while either time does.

   Cids are RPC ids, so arrivals are nearly in ascending order and an
   insert shifts few slots. All four arrays hold unboxed words, so shifts
   and growth run no write barrier and growth never forces a minor
   collection. *)

type t = {
  mutable cids : int array;
  mutable hops : int array;  (* [prev lsl sid_bits lor sid], read while routed *)
  mutable received : float array;
  mutable routed : float array;
  mutable len : int;  (* live slots: [0, len) *)
}

let sid_bits = 40
let prev_bits = 22
let absent = Float.nan
let present time = not (Float.is_nan time)
let create () = { cids = [||]; hops = [||]; received = [||]; routed = [||]; len = 0 }

(* Index of [cid] in the live prefix, or [- insertion_point - 1]. *)
let find_slot t cid =
  let lo = ref 0 and hi = ref (t.len - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Array.unsafe_get t.cids mid in
    if c = cid then found := mid else if c < cid then lo := mid + 1 else hi := mid - 1
  done;
  if !found >= 0 then !found else - !lo - 1

let grow t =
  if t.len = 0 then begin
    t.cids <- Array.make 4 0;
    t.hops <- Array.make 4 0;
    t.received <- Array.make 4 absent;
    t.routed <- Array.make 4 absent
  end
  else begin
    t.cids <- Array.append t.cids t.cids;
    t.hops <- Array.append t.hops t.hops;
    t.received <- Array.append t.received t.received;
    t.routed <- Array.append t.routed t.routed
  end

(* The slot of [cid], inserted with both times absent when missing. *)
let slot t cid =
  let i = find_slot t cid in
  if i >= 0 then i
  else begin
    let at = -i - 1 in
    if t.len = Array.length t.cids then grow t;
    let cids = t.cids and hops = t.hops and received = t.received and routed = t.routed in
    for j = t.len - 1 downto at do
      Array.unsafe_set cids (j + 1) (Array.unsafe_get cids j);
      Array.unsafe_set hops (j + 1) (Array.unsafe_get hops j);
      Array.unsafe_set received (j + 1) (Array.unsafe_get received j);
      Array.unsafe_set routed (j + 1) (Array.unsafe_get routed j)
    done;
    cids.(at) <- cid;
    received.(at) <- absent;
    routed.(at) <- absent;
    t.len <- t.len + 1;
    at
  end

let receive t ~cid ~now =
  let i = slot t cid in
  let first = not (present t.received.(i)) in
  t.received.(i) <- now;
  first

let route t ~cid ~prev ~sid ~now =
  assert (prev >= 0 && prev < 1 lsl prev_bits && sid >= 0 && sid < 1 lsl sid_bits);
  let i = slot t cid in
  t.hops.(i) <- (prev lsl sid_bits) lor sid;
  t.routed.(i) <- now

let reply_hop t cid =
  let i = find_slot t cid in
  if i >= 0 && present t.routed.(i) then t.hops.(i) else -1

let prev hop = hop lsr sid_bits
let sid hop = hop land ((1 lsl sid_bits) - 1)

let received t cid =
  let i = find_slot t cid in
  i >= 0 && present t.received.(i)

let clear t =
  t.cids <- [||];
  t.hops <- [||];
  t.received <- [||];
  t.routed <- [||];
  t.len <- 0

(* One compaction pass: each time older than [horizon] becomes absent,
   and the entries left with neither move out. *)
let prune t ~horizon =
  let cids = t.cids and hops = t.hops and received = t.received and routed = t.routed in
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let r = Array.unsafe_get received i and o = Array.unsafe_get routed i in
    let r = if r >= horizon then r else absent and o = if o >= horizon then o else absent in
    if present r || present o then begin
      let k = !kept in
      Array.unsafe_set cids k (Array.unsafe_get cids i);
      Array.unsafe_set hops k (Array.unsafe_get hops i);
      Array.unsafe_set received k r;
      Array.unsafe_set routed k o;
      kept := k + 1
    end
  done;
  if !kept = 0 then clear t else t.len <- !kept
