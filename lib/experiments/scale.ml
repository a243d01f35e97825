module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Latency = Octo_sim.Latency
module Trace = Octo_sim.Trace
module Churn = Octo_sim.Churn
module Peer = Octo_chord.Peer

(* Population-scale preset: a full dynamic Octopus deployment at 10^4 to
   10^6 nodes on one machine, with memory as a first-class output.

   The configuration keeps exactly one periodic loop hot — stabilization
   — and pushes every heavyweight round (finger refresh, random walks,
   surveillance, the measured anonymous-lookup workload, gc) past the
   horizon: at 10^5 nodes a single 20 s finger-refresh cadence alone
   would be ~60k secure lookups per simulated second, which no
   single-machine run survives. Relay pools are skipped entirely
   ([World.create ~pools:false]); lookup traffic is a sparse schedule of
   *direct* secure lookups, which exercise the serve path, routing
   tables, RPC substrate and the convergence ledger without needing
   per-node relay state.

   Churn runs over the first [churn_until] fraction of the run and then
   stops, leaving the tail for stabilization to re-knit the ring —
   mirroring the chaos regimes, whose fault windows also close well
   before the end so [Invariant.check_convergence] asserts something
   that has had time to become true. *)

type result = {
  n : int;
  duration : float;
  events : int;  (* engine events fired *)
  trace_events : int;  (* events seen by the trace sink *)
  departures : int;  (* churn leave events *)
  outcome : Regime.outcome;
  bytes_per_node : float;  (* live heap per node right after bootstrap *)
  peak_heap_mb : float;  (* process top_heap_words at the end *)
  live_mb : float;  (* live heap after the run, post-compaction *)
  cpu_s : float;  (* process CPU seconds for the whole run *)
}

let scale_cfg ~stabilize_every =
  let dormant = 1.0e6 (* seconds; first (phase-randomized) firing is
                         ~uniform in [0, period), so at a 100-200 s
                         horizon effectively no node ever runs one *) in
  {
    Octopus.Config.default with
    Octopus.Config.stabilize_every;
    (* Churn rejoins give nodes fresh identities; the predecessor of a
       rejoined node only learns about it through the successor's-
       predecessors pull that [ring_repair] enables (the signed-list
       generalization of Chord's "ask your successor for its
       predecessor"). Without it, stale successor pointers survive the
       settle tail and fail the final convergence check. *)
    ring_repair = true;
    finger_update_every = dormant;
    random_walk_every = dormant;
    security_check_every = dormant;
    lookup_every = dormant;
    gc_every = dormant;
    metrics_sample_every = 60.0;
  }

let run ?(n = 10_000) ?(duration = 180.0) ?(seed = 7) ?(stabilize_every = 20.0)
    ?(churn_mean = 3600.0) ?(churn_until = 0.45) ?(lookups = 400) () =
  (* octolint: allow no-wallclock-rng — reported as harness cost (cpu_s),
     never fed back into the simulation *)
  let cpu0 = Sys.time () in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let cfg = scale_cfg ~stabilize_every in
  (* The checker's default grace is calibrated for the default 2 s
     stabilize period; here the ring re-knits at [stabilize_every]
     granularity (eviction alone needs two strike rounds), so a lookup
     may legitimately see pre-churn state for a few rounds after the
     last departure. The final [check_convergence] is unaffected — it
     asserts the settled ring regardless of grace. The ring is 2^16
     events, [Trace.create]'s default: the run is too long to retain. *)
  let grace =
    (4.0 *. stabilize_every)
    +. cfg.Octopus.Config.table_freshness
    +. (2.0 *. cfg.Octopus.Config.query_deadline)
    +. 2.0
  in
  let checks = { Regime.checks with Regime.capacity = 1 lsl 16; grace = Some grace } in
  let simulate h =
    let engine = Engine.create ~seed () in
    let latency = Latency.create (Rng.split (Engine.rng engine)) ~n:(n + 1) in
    let w = Octopus.World.create ~cfg ~pools:false engine latency ~n in
    Octopus.Serve.install w;
    let _ca = Octopus.Ca.create w in
    Regime.attach h w;
    Gc.compact ();
    let live1 = (Gc.stat ()).Gc.live_words in
    Octopus.Maintain.start
      ~opts:{ Octopus.Maintain.enable_lookups = false; churn_mean = None; enable_checks = false }
      w;
    (* Churn driven here rather than through [Maintain] so it can be
       stopped mid-run: [Maintain]'s own churn runs to the end of time,
       which would leave the ring legitimately unconverged at the final
       convergence check. Leave/join behaviour matches [Maintain.start]'s,
       plus a retry ladder on failed rejoins — at this scale a bootstrap
       lookup landing in the churn window is routine, and a node whose
       single join attempt failed would otherwise sit islanded (an empty
       routing table) and trip the convergence check. *)
    let churn_rng = Rng.split w.Octopus.World.rng in
    let heal_rng = Rng.split w.Octopus.World.rng in
    (* Successor refresh for rejoined nodes: resolve the owner of the id
       one past our own — by definition the true successor — and merge it
       into the successor list. A node whose join-time lookup landed far
       off the mark (routing is legitimately inconsistent mid-churn) would
       otherwise crawl back toward its true successor one predecessor-hop
       per stabilization round, which at 10^5 nodes can be thousands of
       rounds. The lookup runs from a random *helper* node, bootstrap-
       style, never from the rejoiner itself: a node with a wildly wrong
       successor pointer believes that successor covers every key just
       past its own id (the wrap-around interval looks huge), so a self-
       lookup short-circuits on the broken local view and returns the very
       pointer it was meant to fix. *)
    let refresh (node : Octopus.World.node) =
      if node.Octopus.World.alive && not node.Octopus.World.revoked then begin
        let key = Octo_chord.Id.add w.Octopus.World.space node.Octopus.World.peer.Peer.id 1 in
        let helper_addr = Octopus.World.random_alive w heal_rng in
        if helper_addr <> node.Octopus.World.addr then
          let helper = Octopus.World.node w helper_addr in
          Octopus.Olookup.direct w helper ~key (fun r ->
              match r.Octopus.Olookup.owner with
              | Some p
                when p.Peer.addr <> node.Octopus.World.addr && node.Octopus.World.alive
                     && not node.Octopus.World.revoked ->
                Octo_chord.Rtable.merge_succs (Octopus.World.rt node) [ p ]
              | Some _ | None -> ())
      end
    in
    let rejoined = ref [] in
    let rec rejoin (node : Octopus.World.node) =
      if node.Octopus.World.alive && not node.Octopus.World.revoked then
        Octopus.Maintain.join w node (fun ok ->
            if ok then begin
              Octopus.World.after w ~delay:stabilize_every (fun () -> refresh node);
              Octopus.World.after w ~delay:(2.0 *. stabilize_every) (fun () -> refresh node)
            end
            else if node.Octopus.World.alive then
              Octopus.World.after w ~delay:stabilize_every (fun () -> rejoin node))
    in
    let churn =
      Churn.start engine churn_rng ~mean_lifetime:churn_mean
        ~rejoin_delay:cfg.Octopus.Config.churn_rejoin_delay
        ~addrs:(List.init n (fun i -> i))
        ~on_leave:(fun addr ->
          let node = Octopus.World.node w addr in
          if node.Octopus.World.alive && not node.Octopus.World.revoked then
            Octopus.World.kill w addr)
        ~on_join:(fun addr ->
          let node = Octopus.World.node w addr in
          if not node.Octopus.World.revoked then begin
            Octopus.World.revive w addr;
            rejoined := addr :: !rejoined;
            rejoin node
          end)
        ()
    in
    let stop_at = churn_until *. duration in
    ignore (Engine.schedule engine ~delay:stop_at (fun () -> Churn.stop churn));
    (* Once churn stops, sweep every node that rejoined during the run:
       nodes still islanded (a join that failed through the whole churn
       window leaves an empty table) re-run the join protocol against the
       now-stable ring; the rest get one more successor refresh. The sweep
       is over rejoiners only, so it stays O(departures), not O(n). *)
    ignore
      (Engine.schedule engine
         ~delay:(stop_at +. (0.5 *. stabilize_every))
         (fun () ->
           List.iter
             (fun addr ->
               let node = Octopus.World.node w addr in
               if node.Octopus.World.alive && not node.Octopus.World.revoked then
                 if Octo_chord.Rtable.successor (Octopus.World.rt node) = None then
                   rejoin node
                 else refresh node)
             (List.sort_uniq Int.compare !rejoined)));
    (* Sparse direct-lookup schedule: evenly spread over the run (churn
       phase included — those are excused by the checker's disturbance
       window), sources and keys drawn from a dedicated stream. *)
    let lookup_rng = Rng.split w.Octopus.World.rng in
    for i = 0 to lookups - 1 do
      let at = duration *. (0.02 +. (0.93 *. float_of_int i /. float_of_int (max 1 lookups))) in
      ignore
        (Engine.schedule engine ~delay:at (fun () ->
             let addr = Octopus.World.random_alive w lookup_rng in
             let node = Octopus.World.node w addr in
             if node.Octopus.World.alive && not node.Octopus.World.revoked then begin
               let key = Octo_chord.Id.random w.Octopus.World.space lookup_rng in
               Octopus.Olookup.direct w node ~key (fun _ -> ())
             end))
    done;
    Engine.run engine ~until:duration;
    (engine, churn, live1)
  in
  let (engine, churn, live1), outcome = Regime.run checks simulate in
  let stat = Gc.stat () in
  let peak_heap_mb = float_of_int stat.Gc.top_heap_words *. 8.0 /. (1024.0 *. 1024.0) in
  Gc.compact ();
  let live_end = (Gc.stat ()).Gc.live_words in
  {
    n;
    duration;
    events = Engine.events_processed engine;
    trace_events = Trace.seen outcome.Regime.trace;
    departures = Churn.departures churn;
    outcome;
    bytes_per_node = float_of_int (live1 - live0) *. 8.0 /. float_of_int n;
    peak_heap_mb;
    live_mb = float_of_int live_end *. 8.0 /. (1024.0 *. 1024.0);
    (* octolint: allow no-wallclock-rng — harness cost only (see cpu0) *)
    cpu_s = Sys.time () -. cpu0;
  }

let report r =
  {
    (Regime.report r.outcome) with
    Regime.lines =
      [ Printf.sprintf "n=%d duration %.0fs  events %d (trace %d)  departures %d" r.n r.duration
          r.events r.trace_events r.departures;
        Printf.sprintf
          "memory  %.0f B/node after bootstrap  peak heap %.1f MB  live after run %.1f MB  cpu %.1fs"
          r.bytes_per_node r.peak_heap_mb r.live_mb r.cpu_s;
      ];
  }
