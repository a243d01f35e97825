type event = { mutable cancelled : bool; action : unit -> unit }
type handle = event

type t = {
  mutable clock : float;
  queue : event Heap.t;
  master_rng : Rng.t;
  mutable fired : int;
}

let create ?(seed = 42) () =
  { clock = 0.0; queue = Heap.create (); master_rng = Rng.create ~seed; fired = 0 }

let rng t = t.master_rng
let now t = t.clock

let schedule_at t ~time action =
  let time = Float.max time t.clock in
  let ev = { cancelled = false; action } in
  Heap.push t.queue ~priority:time ev;
  if Trace.on () then Trace.emit ~time:t.clock ~node:(-1) (Trace.Sched { at = time });
  ev

let schedule t ~delay action = schedule_at t ~time:(t.clock +. Float.max 0.0 delay) action

let cancel ev = ev.cancelled <- true

(* One closure per task: every firing reschedules the same [tick]. *)
let every t ?phase ~period f =
  let phase = match phase with Some p -> p | None -> period in
  let rec tick () =
    f ();
    ignore (schedule t ~delay:period tick)
  in
  ignore (schedule t ~delay:phase tick)

let fire t ev =
  if not ev.cancelled then begin
    t.fired <- t.fired + 1;
    ev.action ()
  end

let run t ~until =
  let continue = ref true in
  while !continue do
    if Heap.is_empty t.queue then continue := false
    else begin
      let time = Heap.min_prio t.queue in
      if time <= until then begin
        let ev = Heap.pop_exn t.queue in
        t.clock <- Float.max t.clock time;
        fire t ev
      end
      else continue := false
    end
  done;
  t.clock <- Float.max t.clock until

let run_until_idle t ?(max_events = max_int) () =
  let budget = ref max_events in
  let continue = ref true in
  while !continue && !budget > 0 do
    if Heap.is_empty t.queue then continue := false
    else begin
      let time = Heap.min_prio t.queue in
      let ev = Heap.pop_exn t.queue in
      t.clock <- Float.max t.clock time;
      if not ev.cancelled then decr budget;
      fire t ev
    end
  done

let events_processed t = t.fired
