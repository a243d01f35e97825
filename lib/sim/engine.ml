(* An event is a timer that can be armed again and again: [armed] is the
   heap sequence number of its latest arming, or [-1] when it is not
   armed. A popped heap entry fires only while its sequence number is
   still the event's, so re-arming or cancelling leaves the superseded
   entry in the heap until its time, where it is skipped. Pooled owners
   (Net envelopes, Rpc entries, periodic tasks) build their event once and
   re-arm it instead of allocating one per schedule. *)
type event = { mutable armed : int; action : unit -> unit }
type handle = event

type t = {
  mutable clock : float;
  queue : event Heap.t;
  master_rng : Rng.t;
  mutable fired : int;
  mutable firing : event;  (* the event whose action is running *)
}

let timer action = { armed = -1; action }

let create ?(seed = 42) () =
  {
    clock = 0.0;
    queue = Heap.create ();
    master_rng = Rng.create ~seed;
    fired = 0;
    firing = timer ignore;
  }

let rng t = t.master_rng
let now t = t.clock

let arm_at t ev ~time =
  let time = Float.max time t.clock in
  ev.armed <- Heap.push t.queue ~priority:time ev;
  if Trace.on () then Trace.emit ~time:t.clock ~node:(-1) (Trace.Sched { at = time })

let arm t ev ~delay = arm_at t ev ~time:(t.clock +. Float.max 0.0 delay)

let schedule_at t ~time action =
  let ev = timer action in
  arm_at t ev ~time;
  ev

let schedule t ~delay action = schedule_at t ~time:(t.clock +. Float.max 0.0 delay) action

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

(* Pops the minimum entry, due at [time], advancing the clock to it, and
   runs its action if the entry is still its event's latest arming.
   Returns whether it ran. *)
let step t ~time =
  let seq = Heap.min_seq t.queue in
  let ev = Heap.pop_exn t.queue in
  t.clock <- Float.max t.clock time;
  if ev.armed = seq then begin
    ev.armed <- -1;
    t.fired <- t.fired + 1;
    t.firing <- ev;
    ev.action ();
    true
  end
  else false

let run t ~until =
  let continue = ref true in
  while !continue do
    if Heap.is_empty t.queue then continue := false
    else begin
      let time = Heap.min_prio t.queue in
      if time <= until then ignore (step t ~time) else continue := false
    end
  done;
  t.clock <- Float.max t.clock until

let run_until_idle t ?(max_events = max_int) () =
  let budget = ref max_events in
  while !budget > 0 && not (Heap.is_empty t.queue) do
    if step t ~time:(Heap.min_prio t.queue) then decr budget
  done

let events_processed t = t.fired
