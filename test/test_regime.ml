(* Every gated regime is deterministic: the same seed yields a
   byte-identical JSONL trace, and seeds 7 and 11 diverge. One table
   covers the checked trace scenario, every chaos and attack regime,
   every load preset (plus the load chaos overlay) and the scale preset,
   at small n. *)

module Trace = Octo_sim.Trace
open Octo_experiments

let regimes : (string * (int -> Regime.outcome)) list =
  [ ("trace", fun seed -> Tracecheck.run ~n:40 ~duration:40.0 ~seed ()) ]
  @ List.map
      (fun regime ->
        ( "chaos " ^ Chaos_exp.regime_name regime,
          fun seed -> (Chaos_exp.run ~n:24 ~duration:80.0 ~seed ~regime ()).Chaos_exp.outcome ))
      Chaos_exp.all_regimes
  @ List.map
      (fun regime ->
        ( "attack " ^ Attack_exp.regime_name regime,
          fun seed -> (Attack_exp.run ~n:24 ~duration:120.0 ~seed ~regime ()).Attack_exp.outcome ))
      Attack_exp.all_regimes
  @ List.map
      (fun (chaos, regime) ->
        ( "load " ^ Workload.regime_name regime ^ (if chaos then " --chaos" else ""),
          fun seed -> (Workload.run ~n:16 ~seed ~queries:50 ~chaos ~regime ()).Workload.outcome ))
      ((true, Workload.Steady) :: List.map (fun r -> (false, r)) Workload.all_regimes)
  @ [ ("scale", fun seed -> (Scale.run ~n:200 ~duration:120.0 ~seed ()).Scale.outcome) ]

(* What [--trace] would write, reduced to an event count and a digest. *)
let fingerprint (o : Regime.outcome) =
  let lines = List.map Trace.to_json (Trace.events o.Regime.trace) in
  (List.length lines, Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* The seed-7 run is shared by both tests. *)
let seed_7 = List.map (fun (name, go) -> (name, go, lazy (fingerprint (go 7)))) regimes

let test_same_seed_byte_identical () =
  List.iter
    (fun (name, go, first) ->
      let events, digest = Lazy.force first in
      let events', digest' = fingerprint (go 7) in
      Alcotest.(check bool) (name ^ ": events traced") true (events > 0);
      Alcotest.(check int) (name ^ ": same event count") events events';
      Alcotest.(check string) (name ^ ": byte-identical") digest digest')
    seed_7

let test_seeds_diverge () =
  List.iter
    (fun (name, go, first) ->
      let _, digest = Lazy.force first in
      let _, digest' = fingerprint (go 11) in
      Alcotest.(check bool) (name ^ ": seeds 7 and 11 diverge") false (String.equal digest digest'))
    seed_7

let () =
  Alcotest.run "regime"
    [ ( "determinism",
        [ Alcotest.test_case "same seed byte-identical" `Slow test_same_seed_byte_identical;
          Alcotest.test_case "seeds diverge" `Slow test_seeds_diverge;
        ] );
    ]
