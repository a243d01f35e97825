type group = Range of { lo : int; hi : int }

type spec =
  | Partition of { groups : group list; from_ : float; heal_at : float }
  | Corrupt of { prob : float; from_ : float; until : float }
  | Duplicate of { prob : float; spread : float; from_ : float; until : float }
  | Reorder of { prob : float; max_extra : float; from_ : float; until : float }
  | Crash_burst of { at : float; victims : group; count : int; recover_after : float }
  | Regional_outage of { epicenter : int; radius : float; from_ : float; until : float }

type plan = spec list

let member (Range { lo; hi }) addr = lo <= addr && addr <= hi

let members lat g =
  let out = ref [] in
  for addr = Latency.n lat - 1 downto 0 do
    if member g addr then out := addr :: !out
  done;
  !out

(* A compiled fault window. Memberships are materialized as arrays over
   the whole slot space at install time; [on] is flipped by the scheduled
   window-boundary timers. *)
type compiled =
  | F_partition of { side : int array; mutable on : bool }
      (* side.(addr) = index of the named group containing addr, or -1
         for the unnamed remainder (which stays internally connected) *)
  | F_corrupt of { prob : float; mutable on : bool }
  | F_dup of { prob : float; spread : float; mutable on : bool }
  | F_reorder of { prob : float; max_extra : float; mutable on : bool }
  | F_outage of { region : bool array; mutable on : bool }

type 'm t = {
  engine : Engine.t;
  rng : Rng.t;
  compiled : compiled array;
  corrupt : (Rng.t -> 'm -> 'm * int) option;
  mutable drops : int;
  mutable corruptions : int;
  mutable duplicates : int;
  mutable reorders : int;
  mutable crashes : int;
}

let drops t = t.drops
let corruptions t = t.corruptions
let duplicates t = t.duplicates
let reorders t = t.reorders
let crashes t = t.crashes

let emit t ~node data =
  if Trace.on () then Trace.emit ~time:(Engine.now t.engine) ~node data

let fault_label = function
  | F_partition _ -> "partition"
  | F_corrupt _ -> "corrupt"
  | F_dup _ -> "duplicate"
  | F_reorder _ -> "reorder"
  | F_outage _ -> "outage"

let set_on c on =
  match c with
  | F_partition f -> f.on <- on
  | F_corrupt f -> f.on <- on
  | F_dup f -> f.on <- on
  | F_reorder f -> f.on <- on
  | F_outage f -> f.on <- on

let compile lat = function
  | Partition { groups; _ } ->
    let n = Latency.n lat in
    let side = Array.make n (-1) in
    List.iteri
      (fun i g ->
        for addr = 0 to n - 1 do
          if side.(addr) = -1 && member g addr then side.(addr) <- i
        done)
      groups;
    F_partition { side; on = false }
  | Corrupt { prob; _ } -> F_corrupt { prob; on = false }
  | Duplicate { prob; spread; _ } -> F_dup { prob; spread; on = false }
  | Reorder { prob; max_extra; _ } -> F_reorder { prob; max_extra; on = false }
  | Regional_outage { epicenter; radius; _ } ->
    let within addr = Latency.one_way lat epicenter addr <= radius in
    F_outage { region = Array.init (Latency.n lat) within; on = false }
  | Crash_burst _ ->
    (* Crash bursts are pure timer events; they never inspect traffic.
       Compile to an inert placeholder so indices line up with the plan. *)
    F_corrupt { prob = 0.0; on = false }

let window = function
  | Partition { from_; heal_at; _ } -> Some (from_, heal_at)
  | Corrupt { from_; until; _ } -> Some (from_, until)
  | Duplicate { from_; until; _ } -> Some (from_, until)
  | Reorder { from_; until; _ } -> Some (from_, until)
  | Regional_outage { from_; until; _ } -> Some (from_, until)
  | Crash_burst _ -> None

(* Decide the fate of one outgoing message. Drops are checked first (in
   plan order, first match wins); then each active mutation window draws
   its coin in plan order, so the RNG consumption schedule is a pure
   function of the plan and the message sequence. *)
let verdict t (env : 'm Net.envelope) =
  let src = env.Net.src and dst = env.Net.dst in
  let in_range a arr = a >= 0 && a < Array.length arr in
  let drop_reason = ref None in
  Array.iter
    (fun c ->
      if !drop_reason = None then begin
        match c with
        | F_partition { side; on = true } ->
          if in_range src side && in_range dst side && side.(src) <> side.(dst) then
            drop_reason := Some "partition"
        | F_outage { region; on = true } ->
          if (in_range src region && region.(src)) || (in_range dst region && region.(dst))
          then drop_reason := Some "outage"
        | _ -> ()
      end)
    t.compiled;
  match !drop_reason with
  | Some reason ->
    t.drops <- t.drops + 1;
    Net.Fault_drop reason
  | None ->
    let payload = ref env.Net.payload in
    let size = ref env.Net.size in
    let mutated = ref false in
    let extra = ref 0.0 in
    let dup_extra = ref None in
    Array.iter
      (fun c ->
        match c with
        | F_corrupt { prob; on = true } when prob > 0.0 ->
          if Rng.coin t.rng prob then begin
            match t.corrupt with
            | Some f ->
              let p, s = f t.rng !payload in
              payload := p;
              size := Int.max 0 s;
              mutated := true;
              t.corruptions <- t.corruptions + 1;
              emit t ~node:src (Trace.Fault_corrupt { src; dst; size = !size })
            | None -> ()
          end
        | F_dup { prob; spread; on = true } ->
          if Rng.coin t.rng prob then begin
            dup_extra := Some (Rng.float t.rng spread);
            mutated := true;
            t.duplicates <- t.duplicates + 1;
            emit t ~node:src (Trace.Fault_dup { src; dst })
          end
        | F_reorder { prob; max_extra; on = true } ->
          if Rng.coin t.rng prob then begin
            let e = Rng.float t.rng max_extra in
            extra := !extra +. e;
            mutated := true;
            t.reorders <- t.reorders + 1;
            emit t ~node:src (Trace.Fault_reorder { src; dst; extra = e })
          end
        | _ -> ())
      t.compiled;
    if not !mutated then Net.Fault_pass
    else begin
      let first = { Net.d_extra = !extra; d_payload = !payload; d_size = !size } in
      match !dup_extra with
      | None -> Net.Fault_deliver [ first ]
      | Some de ->
        Net.Fault_deliver
          [ first; { Net.d_extra = !extra +. de; d_payload = !payload; d_size = !size } ]
    end

let schedule_windows t plan =
  List.iteri
    (fun i spec ->
      let c = t.compiled.(i) in
      match window spec with
      | Some (from_, until) ->
        ignore
          (Engine.schedule_at t.engine ~time:from_ (fun () ->
               set_on c true;
               emit t ~node:(-1) (Trace.Fault_phase { fault = fault_label c; on = true })));
        ignore
          (Engine.schedule_at t.engine ~time:until (fun () ->
               set_on c false;
               emit t ~node:(-1) (Trace.Fault_phase { fault = fault_label c; on = false })))
      | None -> ())
    plan

let schedule_crashes t lat ~on_crash ~on_recover plan =
  List.iter
    (function
      | Crash_burst { at; victims; count; recover_after } ->
        ignore
          (Engine.schedule_at t.engine ~time:at (fun () ->
               let pool = Array.of_list (members lat victims) in
               let chosen = Rng.sample t.rng ~k:count pool in
               Array.iter
                 (fun addr ->
                   t.crashes <- t.crashes + 1;
                   emit t ~node:addr (Trace.Fault_crash { addr });
                   on_crash addr)
                 chosen;
               ignore
                 (Engine.schedule t.engine ~delay:recover_after (fun () ->
                      Array.iter
                        (fun addr ->
                          emit t ~node:addr (Trace.Fault_recover { addr });
                          on_recover addr)
                        chosen))))
      | _ -> ())
    plan

let install engine lat net ?corrupt ?(on_crash = fun _ -> ()) ?(on_recover = fun _ -> ())
    plan =
  let t =
    {
      engine;
      rng = Rng.split (Engine.rng engine);
      compiled = Array.of_list (List.map (compile lat) plan);
      corrupt;
      drops = 0;
      corruptions = 0;
      duplicates = 0;
      reorders = 0;
      crashes = 0;
    }
  in
  schedule_windows t plan;
  schedule_crashes t lat ~on_crash ~on_recover plan;
  Net.set_fault_hook net (Some (verdict t));
  t
