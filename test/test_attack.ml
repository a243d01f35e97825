(* End-to-end adversary-campaign tests: every attack regime must hold its
   documented success floor with zero invariant violations (including the
   eclipse watch and post-campaign re-convergence), the Sybil admission
   defense must keep admissions under the rate-limit cap, conviction-driven
   revocation during an eclipse must flush the result cache. Same-seed
   determinism is covered for every regime by test_regime. *)

module Trace = Octo_sim.Trace
module Attack_exp = Octo_experiments.Attack_exp
module Regime = Octo_experiments.Regime

(* Smaller than the CLI default (60 nodes, 240 s) but large enough that a
   campaign has honest nodes left to attack; the CLI guard floor is 16. *)
let n = 24
let duration = 120.0

let run ?cache regime = Attack_exp.run ?cache ~n ~duration ~seed:7 ~regime ()

let check_regime ?cache regime =
  let r = run ?cache regime in
  let name = Attack_exp.regime_name regime in
  let report = Attack_exp.report r in
  Alcotest.(check bool)
    (Printf.sprintf "%s: lookups ran" name)
    true (r.Attack_exp.outcome.Regime.lookups_done > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: success %.2f above floor %.2f" name
       (Regime.success_rate report) (Attack_exp.threshold regime))
    true (Regime.passed report);
  (* The harness already ran post-campaign convergence, the eclipse
     watch, and end-of-run reconciliation against the checker. *)
  let checker = r.Attack_exp.outcome.Regime.checker in
  (match Octopus.Invariant.violations checker with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d violation(s), first: %s" name
      (List.length (Octopus.Invariant.violations checker))
      v.Octopus.Invariant.what);
  r

let test_sybil () =
  let r = check_regime Attack_exp.Sybil_flood in
  Alcotest.(check bool) "campaign made requests" true (r.Attack_exp.sybil_requests > 0);
  Alcotest.(check bool) "limiter refused some" true (r.Attack_exp.sybil_refused > 0);
  Alcotest.(check bool)
    (Printf.sprintf "admissions %d within cap %d" r.Attack_exp.sybils_admitted
       r.Attack_exp.sybil_cap)
    true
    (r.Attack_exp.sybils_admitted <= r.Attack_exp.sybil_cap);
  (* The measured cost curve must show the placement defense raising the
     per-eclipse spend: random assignment beats crafted placement. *)
  Alcotest.(check bool) "cost curve measured" true (r.Attack_exp.cost_curve <> []);
  Alcotest.(check bool) "id assignment raises attack cost" true
    (Attack_exp.cost_factor r.Attack_exp.cost_curve > 1.0)

let test_eclipse_recovers () =
  let r = check_regime Attack_exp.Eclipse in
  (* Zero violations above already implies no honest node ended the run
     eclipsed; the campaign itself must still have been armed. *)
  let armed =
    List.exists
      (fun (ev : Trace.event) ->
        match ev.Trace.data with
        | Trace.Attack_phase { on = true; _ } -> true
        | _ -> false)
      (Trace.events r.Attack_exp.outcome.Regime.trace)
  in
  Alcotest.(check bool) "campaign window armed" true armed

let test_eclipse_rcache_flush () =
  (* Regression: surveillance convictions during the eclipse campaign must
     flush cached owners, or clients keep routing to revoked colluders. *)
  let r = check_regime ~cache:true Attack_exp.Eclipse in
  Alcotest.(check bool) "convictions happened" true (r.Attack_exp.revocations > 0);
  Alcotest.(check bool)
    (Printf.sprintf "every revocation flushed the cache (%d flushes / %d revocations)"
       r.Attack_exp.cache_flushes r.Attack_exp.revocations)
    true
    (r.Attack_exp.cache_flushes >= r.Attack_exp.revocations)

let test_churn_range () =
  let r = check_regime Attack_exp.Churn_range in
  Alcotest.(check bool) "fresh estimates produced" true (r.Attack_exp.fresh_total > 0);
  Alcotest.(check bool) "stale estimates produced" true (r.Attack_exp.stale_total > 0)

(* ------------------------------------------------------------------ *)
(* Plumbing *)

let test_eclipse_watch_counts () =
  (* Unit-level check of [Invariant.check_eclipse]: a freshly bootstrapped
     all-honest ring has no eclipsed nodes, and the [allowed] knob merely
     suppresses flagging, not counting. *)
  let engine = Octo_sim.Engine.create ~seed:3 () in
  let lat_rng = Octo_sim.Rng.split (Octo_sim.Engine.rng engine) in
  let latency = Octo_sim.Latency.create lat_rng ~n:17 in
  let w = Octopus.World.create engine latency ~n:16 in
  let chk = Octopus.Invariant.create w in
  Alcotest.(check int) "no eclipses on honest ring" 0
    (Octopus.Invariant.check_eclipse ~allowed:0 chk);
  Alcotest.(check bool) "no violations recorded" true (Octopus.Invariant.ok chk)

let () =
  Alcotest.run "attack"
    [ ( "regimes",
        [ Alcotest.test_case "sybil flood held off" `Slow test_sybil;
          Alcotest.test_case "eclipse heals after campaign" `Slow test_eclipse_recovers;
          Alcotest.test_case "eclipse revocations flush rcache" `Slow
            test_eclipse_rcache_flush;
          Alcotest.test_case "range estimator under churn" `Slow test_churn_range;
        ] );
      ( "plumbing",
        [ Alcotest.test_case "eclipse watch clean on honest ring" `Quick
            test_eclipse_watch_counts;
        ] );
    ]
