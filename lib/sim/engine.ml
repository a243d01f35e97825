(* An event is a timer that can be armed again and again: [armed] is the
   heap sequence number of its latest arming, or [-1] when it is not
   armed. A popped heap entry fires only while its sequence number is
   still the event's, so re-arming or cancelling leaves the superseded
   entry in the heap until its time, where it is skipped. Pooled owners
   (Net envelopes, Rpc entries, periodic tasks) build their event once and
   re-arm it instead of allocating one per schedule. *)
type event = { mutable armed : int; action : unit -> unit }
type handle = event

(* [clock.(0)] is the simulated time and [clock.(1)] the due time of the
   arming in progress. Both are unboxed, so the time crosses no call to
   [Heap] boxed: advancing to the next event and arming one allocate
   nothing. [now] hands out a boxed copy, [now_box], made at most once
   per clock value: most events read the time, but a periodic task that
   only re-arms itself does not. *)
type t = {
  clock : float array;
  mutable now_box : float;
  queue : event Heap.t;
  master_rng : Rng.t;
  mutable fired : int;
  mutable firing : event;  (* the event whose action is running *)
}

let timer action = { armed = -1; action }

let create ?(seed = 42) () =
  {
    clock = [| 0.0; 0.0 |];
    now_box = 0.0;
    queue = Heap.create ();
    master_rng = Rng.create ~seed;
    fired = 0;
    firing = timer ignore;
  }

let rng t = t.master_rng

let now t =
  if t.now_box <> t.clock.(0) then t.now_box <- t.clock.(0);
  t.now_box

(* Arms [ev] for the due time in [clock.(1)]. *)
let arm_due t ev =
  ev.armed <- Heap.push t.queue t.clock 1 ev;
  if Trace.on () then Trace.emit ~time:(now t) ~node:(-1) (Trace.Sched { at = t.clock.(1) })

let arm t ev ~delay =
  t.clock.(1) <- t.clock.(0) +. Float.max 0.0 delay;
  arm_due t ev

let schedule_at t ~time action =
  let ev = timer action in
  t.clock.(1) <- Float.max time t.clock.(0);
  arm_due t ev;
  ev

let schedule t ~delay action =
  let ev = timer action in
  arm t ev ~delay;
  ev

let cancel ev = ev.armed <- -1

(* One closure and one event per task: every firing re-arms the event
   that is firing, read before [f] runs. *)
let every t ?phase ~period f =
  let phase = match phase with Some p -> p | None -> period in
  let tick () =
    let ev = t.firing in
    f ();
    arm t ev ~delay:period
  in
  arm t (timer tick) ~delay:phase

(* Pops the minimum entry, advancing the clock to its time, and runs its
   action if the entry is still its event's latest arming. Returns
   whether it ran. *)
let step t =
  let seq = Heap.min_seq t.queue in
  Heap.advance_to_min t.queue t.clock 0;
  let ev = Heap.pop_exn t.queue in
  if ev.armed = seq then begin
    ev.armed <- -1;
    t.fired <- t.fired + 1;
    t.firing <- ev;
    ev.action ();
    true
  end
  else false

let run t ~until =
  while Heap.min_due t.queue ~until do
    ignore (step t)
  done;
  t.clock.(0) <- Float.max t.clock.(0) until

let run_until_idle t ?(max_events = max_int) () =
  let budget = ref max_events in
  while !budget > 0 && not (Heap.is_empty t.queue) do
    if step t then decr budget
  done

let events_processed t = t.fired
