(* Traced-run probe: counts trace events by kind and charges the wall
   time between consecutive trace points to the layer of the earlier
   point.

   It is two subscribers around the invariant checker. Subscribers run
   newest first, so [before] (subscribed after the checker) sees each
   event first and [after] (subscribed before it) last; the time between
   the two is the checker's, and the time [after] spends counting is
   charged to no layer. *)

module Trace = Octo_sim.Trace

let layers = [| "engine"; "net"; "rpc"; "query"; "walk"; "lookup"; "ca"; "surv"; "other" |]

let layer_of = function
  | Trace.Sched _ -> 0
  | Trace.Net_send _ | Trace.Net_deliver _ | Trace.Net_drop _ | Trace.Msg _ -> 1
  | Trace.Rpc_timeout _ | Trace.Rpc_resolve _ | Trace.Rpc_late _ | Trace.Rpc_retry _
  | Trace.Rpc_giveup _ | Trace.Rpc_queued _ ->
    2
  | Trace.Query_sent _ | Trace.Path_fallback _ -> 3
  | Trace.Walk_step _ | Trace.Walk_done _ | Trace.Walk_abandoned _ -> 4
  | Trace.Lookup_start _ | Trace.Lookup_hop _ | Trace.Lookup_done _ | Trace.Cache_hit _ -> 5
  | Trace.Ca_report _ | Trace.Ca_outcome _ | Trace.Ca_admission _ | Trace.Revoked _ -> 6
  | Trace.Surveillance _ -> 7
  | _ -> 8

let counter_of = function
  | Trace.Sched _ -> Some "engine.sched"
  | Trace.Net_drop _ -> Some "net.drops"
  | Trace.Rpc_resolve _ -> Some "rpc.resolved"
  | Trace.Rpc_timeout _ -> Some "rpc.timeouts"
  | Trace.Msg { kind; _ } -> Some ("msg." ^ kind)
  | Trace.Lookup_start { anonymous; _ } -> Some (if anonymous then "lookup.anon" else "lookup.direct")
  | Trace.Lookup_done _ -> Some "lookup.done"
  | Trace.Query_sent { dummy; _ } -> Some (if dummy then "query.dummy" else "query.real")
  | Trace.Path_fallback _ -> Some "query.fallbacks"
  | Trace.Walk_step _ -> Some "walk.steps"
  | Trace.Walk_done { ok; _ } -> Some (if ok then "walk.ok" else "walk.failed")
  | Trace.Walk_abandoned _ -> Some "walk.abandoned"
  | Trace.Ca_report _ -> Some "ca.reports"
  | Trace.Revoked _ -> Some "ca.revocations"
  | Trace.Surveillance { verdict = "reported"; _ } -> Some "surv.reported"
  | _ -> None

type t = {
  gap_ns : int array;  (** per layer *)
  counts : (string, int ref) Hashtbl.t;
  mutable hops : int;
  mutable invariant_ns : int;
  mutable last_layer : int;
  mutable last : int64;
  mutable entered : int64;  (** when [before] saw the current event *)
  mutable active : bool;
}

let create () =
  {
    gap_ns = Array.make (Array.length layers) 0;
    counts = Hashtbl.create 64;
    hops = 0;
    invariant_ns = 0;
    last_layer = 0;
    last = 0L;
    entered = 0L;
    active = false;
  }

let elapsed_ns a b = Int64.to_int (Int64.sub b a)

(* Call right before [Engine.run]: events emitted while the world was
   being built are neither timed nor counted. *)
let start t =
  t.active <- true;
  t.last <- Monotonic_clock.now ()

let before t (_ : Trace.event) =
  if t.active then begin
    let now = Monotonic_clock.now () in
    t.gap_ns.(t.last_layer) <- t.gap_ns.(t.last_layer) + elapsed_ns t.last now;
    t.entered <- now
  end

let after t (ev : Trace.event) =
  if t.active then begin
    t.invariant_ns <- t.invariant_ns + elapsed_ns t.entered (Monotonic_clock.now ());
    (match counter_of ev.Trace.data with
     | Some name -> (
       match Hashtbl.find_opt t.counts name with
       | Some r -> incr r
       | None -> Hashtbl.replace t.counts name (ref 1))
     | None -> ());
    (match ev.Trace.data with Trace.Lookup_done { hops; _ } -> t.hops <- t.hops + hops | _ -> ());
    t.last_layer <- layer_of ev.Trace.data;
    t.last <- Monotonic_clock.now ()
  end

let count t name = match Hashtbl.find_opt t.counts name with Some r -> !r | None -> 0

let ratio a b = if a + b = 0 then 1.0 else float_of_int a /. float_of_int (a + b)

(* Gap seconds per layer, the checker's seconds, the share of [run_s]
   they account for, and the counters, as named per-layer metrics.
   Message counts by kind come last, sorted. *)
let metrics t ~run_s =
  let secs ns = float_of_int ns *. 1e-9 in
  let gaps = Array.to_list (Array.mapi (fun i l -> (l ^ ".gap_s", secs t.gap_ns.(i))) layers) in
  let attributed = secs (Array.fold_left ( + ) t.invariant_ns t.gap_ns) in
  let c name = (name, float_of_int (count t name)) in
  let done_ = count t "lookup.done" in
  let msgs =
    Hashtbl.fold (fun k r acc -> if String.starts_with ~prefix:"msg." k then (k, float_of_int !r) :: acc else acc) t.counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  gaps
  @ [
      ("invariant.s", secs t.invariant_ns);
      ("attributed_frac", attributed /. run_s);
      c "engine.sched";
      c "net.drops";
      c "rpc.resolved";
      c "rpc.timeouts";
      ("rpc.resolve_ratio", ratio (count t "rpc.resolved") (count t "rpc.timeouts"));
      c "lookup.anon";
      c "lookup.direct";
      ("lookup.hops_per_done", if done_ = 0 then 0.0 else float_of_int t.hops /. float_of_int done_);
      c "query.real";
      c "query.dummy";
      c "query.fallbacks";
      c "walk.steps";
      ("walk.ok_ratio", ratio (count t "walk.ok") (count t "walk.failed"));
      c "walk.abandoned";
      c "ca.reports";
      c "ca.revocations";
      c "surv.reported";
    ]
  @ msgs
