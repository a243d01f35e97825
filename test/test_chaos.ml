(* End-to-end chaos tests: every fault regime must degrade gracefully
   (lookup success above its documented floor, ring re-converged after
   heal, zero invariant violations — including "corrupted documents are
   never accepted"), and a configuration without a fault plan must not
   engage the fault layer at all. Same-seed determinism is covered for
   every regime by test_regime. *)

module Trace = Octo_sim.Trace
module Chaos_exp = Octo_experiments.Chaos_exp
module Regime = Octo_experiments.Regime
module Scenario = Octo_experiments.Scenario

(* Small but not tiny: large enough for rings to survive a quarter of
   the nodes disappearing, small enough to keep the suite fast. *)
let n = 24
let duration = 80.0

let run regime = Chaos_exp.run ~n ~duration ~seed:7 ~regime ()

let check_regime regime ~expect_faults =
  let r = run regime in
  let name = Chaos_exp.regime_name regime in
  let report = Chaos_exp.report r in
  Alcotest.(check bool)
    (Printf.sprintf "%s: fault layer engaged" name)
    true (expect_faults r > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: lookups ran" name)
    true (r.Chaos_exp.outcome.Regime.lookups_done > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: success %.2f above floor %.2f" name (Regime.success_rate report)
       (Chaos_exp.threshold regime))
    true (Regime.passed report);
  (* The harness has already run the post-heal convergence check and
     the end-of-run reconciliation (byte accounting, corrupt-acceptance
     watch list) against the checker. *)
  let checker = r.Chaos_exp.outcome.Regime.checker in
  (match Octopus.Invariant.violations checker with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d violation(s), first: %s" name
      (List.length (Octopus.Invariant.violations checker))
      v.Octopus.Invariant.what);
  r

let test_partition () =
  ignore (check_regime Chaos_exp.Partition_heal ~expect_faults:(fun r -> r.Chaos_exp.drops))

let test_corruption () =
  let r = check_regime Chaos_exp.Corruption ~expect_faults:(fun r -> r.Chaos_exp.corruptions) in
  (* The invariant checker's clean bill above implies the watch list
     stayed empty: thousands of garbled documents crossed the wire and
     not one passed verification. Make the volume explicit. *)
  Alcotest.(check bool) "corruption actually exercised" true (r.Chaos_exp.corruptions > 50)

let test_dup_reorder () =
  let r =
    check_regime Chaos_exp.Dup_reorder ~expect_faults:(fun r ->
        r.Chaos_exp.duplicates + r.Chaos_exp.reorders)
  in
  Alcotest.(check bool) "duplicates seen" true (r.Chaos_exp.duplicates > 0);
  Alcotest.(check bool) "reorders seen" true (r.Chaos_exp.reorders > 0)

let test_crash_burst () =
  let r = check_regime Chaos_exp.Crash_burst ~expect_faults:(fun r -> r.Chaos_exp.crashes) in
  Alcotest.(check int) "an eighth of the ring crashed" (n / 8) r.Chaos_exp.crashes

let test_outage () =
  ignore (check_regime Chaos_exp.Regional_outage ~expect_faults:(fun r -> r.Chaos_exp.drops))

(* ------------------------------------------------------------------ *)
(* No plan: the fault layer must stay out of the loop entirely *)

let test_no_plan_no_fault_layer () =
  let trace = Trace.create () in
  Trace.install trace;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let spec = Scenario.make ~seed:7 ~n:16 ~duration:30.0 () in
      let sc = Scenario.run spec in
      Alcotest.(check bool) "no fault engine installed" true (Scenario.fault sc = None);
      let faulty =
        List.exists
          (fun (ev : Trace.event) ->
            match ev.Trace.data with
            | Trace.Fault_phase _ | Trace.Fault_crash _ | Trace.Fault_recover _
            | Trace.Net_drop _ ->
              true
            | _ -> false)
          (Trace.events trace)
      in
      Alcotest.(check bool) "no fault events in trace" false faulty)

let () =
  Alcotest.run "chaos"
    [ ( "regimes",
        [ Alcotest.test_case "partition heals and converges" `Slow test_partition;
          Alcotest.test_case "corruption never accepted" `Slow test_corruption;
          Alcotest.test_case "duplication and reordering" `Slow test_dup_reorder;
          Alcotest.test_case "crash burst recovers" `Slow test_crash_burst;
          Alcotest.test_case "regional outage" `Slow test_outage;
        ] );
      ( "plumbing",
        [ Alcotest.test_case "no plan, no fault layer" `Quick test_no_plan_no_fault_layer ] );
    ]
