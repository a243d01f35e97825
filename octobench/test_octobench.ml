(* octobench's own tests: the summary statistics and the comparison rule,
   the JSON it reads back, BENCHMARK.json against the metric tables, and
   the lookup driver against the library harnesses it mirrors. *)

module Drive = Obench.Drive
module Stats = Obench.Stats
module Json = Obench.Json
module Engine = Octo_sim.Engine
module Sketch = Octo_sim.Metrics.Sketch
module Dist = Octo_sim.Metrics.Dist
module World = Octopus.World
module Config = Octopus.Config
module Scenario = Octo_experiments.Scenario
module Workload = Octo_experiments.Workload
module Security = Octo_experiments.Security

let floats = Alcotest.(list (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Expected values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check xs (q1, q3) =
    let a, b = Stats.quartiles xs in
    Alcotest.(check floats) "q1, q3" [ q1; q3 ] [ a; b ]
  in
  check [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] (2.75, 8.25);
  check [ 1.; 2. ] (0.75, 2.25);
  check [ 3.; 1.; 2. ] (1.0, 3.0);
  check [ 5.0; 1.5; 2.25; 9.0; 4.0; 7.5; 3.0 ] (2.25, 7.5);
  check [ 4.0 ] (4.0, 4.0)

let test_median_min () =
  Alcotest.(check (float 0.)) "odd" 2.0 (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 0.)) "min" 1.0 (Stats.minimum [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-12)) "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ])

let test_judge () =
  let lower = { Stats.name = "run_s"; unit_ = "s"; better = Stats.Lower; bound = 0.10 } in
  let higher = { lower with Stats.name = "lookup_success"; better = Stats.Higher } in
  let side value runs = { Stats.value; runs } in
  let verdict = Alcotest.testable (fun f v -> Format.pp_print_string f (Stats.verdict_name v)) ( = ) in
  let steady = side 10.0 [ 9.9; 10.0; 10.1 ] in
  Alcotest.check verdict "same" Stats.Within (Stats.judge lower ~base:steady ~now:steady);
  Alcotest.check verdict "5% slower, within a 10% bound" Stats.Within
    (Stats.judge lower ~base:steady ~now:(side 10.5 [ 10.4; 10.5; 10.6 ]));
  Alcotest.check verdict "12% slower" Stats.Regressed
    (Stats.judge lower ~base:steady ~now:(side 11.2 [ 11.1; 11.2; 11.3 ]));
  Alcotest.check verdict "noisy runs" Stats.Unresolved
    (Stats.judge lower ~base:steady ~now:(side 10.2 [ 8.0; 10.2; 12.5 ]));
  Alcotest.check verdict "every run faster" Stats.Improved
    (Stats.judge lower ~base:steady ~now:(side 9.0 [ 8.9; 9.0; 9.1 ]));
  Alcotest.check verdict "a drop is worse when higher is better" Stats.Regressed
    (Stats.judge higher ~base:(side 0.99 [ 0.99 ]) ~now:(side 0.85 [ 0.85 ]));
  Alcotest.check verdict "a rise is better when higher is better" Stats.Improved
    (Stats.judge higher ~base:(side 0.90 [ 0.90 ]) ~now:(side 0.95 [ 0.95 ]))

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 0.1);
        ("b", Json.Arr [ Json.Num 1e-9; Json.Num 12345678.0; Json.Num (-2.5) ]);
        ("c", Json.Obj [ ("d", Json.Bool true); ("e", Json.Null); ("f", Json.Str "x y/z") ]);
        ("g", Json.Num (1.0 /. 3.0));
      ]
  in
  Alcotest.(check bool) "parse . print = id" true (Json.of_string (Json.to_string v) = v);
  Alcotest.check_raises "no escapes" (Invalid_argument "Json: unsupported character in a\"b")
    (fun () -> ignore (Json.to_string (Json.Str "a\"b")))

(* BENCHMARK.json is the driver's copy of the metric tables. *)
let test_benchmark_json () =
  let v = Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let workloads =
    List.map
      (fun w -> (Json.to_str (Json.field "name" w), Json.to_str (Json.field "why" w)))
      (Json.to_list (Json.field "workloads" v))
  in
  Alcotest.(check (list (pair string string)))
    "workloads" (List.map (fun w -> (w.Drive.name, w.Drive.why)) Drive.all) workloads;
  let check key table ~bounded =
    let got = Json.to_list (Json.field key v) in
    Alcotest.(check int) (key ^ " count") (List.length table) (List.length got);
    List.iter2
      (fun (m : Stats.metric) j ->
        Alcotest.(check string) "name" m.Stats.name (Json.to_str (Json.field "name" j));
        Alcotest.(check string) (m.Stats.name ^ " unit") m.Stats.unit_ (Json.to_str (Json.field "unit" j));
        Alcotest.(check string) (m.Stats.name ^ " better") (Stats.better_name m.Stats.better)
          (Json.to_str (Json.field "better" j));
        if bounded then
          Alcotest.(check (float 0.)) (m.Stats.name ^ " bound") m.Stats.bound
            (Json.to_num (Json.field "bound" j)))
      table got
  in
  check "end_to_end" Stats.end_to_end ~bounded:true;
  check "per_layer" Stats.per_layer ~bounded:false

(* ------------------------------------------------------------------ *)
(* The driver against the harnesses it mirrors *)

let run_driver wl ~seed =
  let spec, duration, out = Drive.prepare wl ~deploy_seed:seed ~seed in
  let sc = Scenario.build spec in
  Engine.run (Scenario.engine sc) ~until:duration;
  (sc, out ())

(* [Workload.run]'s steady preset, draw for draw: the same lookups are
   issued, converge, and take the same simulated time. *)
let test_matches_workload () =
  List.iter
    (fun seed ->
      let n = 16 and queries = 64 in
      let r = Workload.run ~n ~seed ~queries ~regime:Workload.Steady () in
      let wl =
        {
          Drive.anon_steady with
          Drive.n;
          process = Workload.process_of Workload.Steady;
          lookups = queries;
        }
      in
      let _, o = run_driver wl ~seed in
      let label what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check int) (label "issued") r.Workload.issued o.Drive.issued;
      Alcotest.(check int) (label "completed") r.Workload.completed o.Drive.completed;
      Alcotest.(check int) (label "converged") r.Workload.converged o.Drive.converged;
      let sketch = Sketch.create () in
      Array.iter (Sketch.record sketch) (Dist.to_sorted_array o.Drive.latency);
      Alcotest.(check (list (pair int int))) (label "latency buckets")
        (Sketch.buckets r.Workload.latency) (Sketch.buckets sketch);
      List.iter
        (fun q ->
          Alcotest.(check (float 0.)) (label (Printf.sprintf "p%g" (100. *. q)))
            (Sketch.quantile r.Workload.latency q) (Sketch.quantile sketch q))
        [ 0.5; 0.9; 0.99 ])
    [ 7; 11 ]

(* With no lookups of its own, the bias-attack driver is [Security.fig3a]:
   the same attackers are reported, convicted and ejected at the same
   times. *)
let test_matches_fig3a () =
  let n = 40 and duration = 200.0 and seed = 7 in
  let r = Security.fig3a ~n ~duration ~seed ~rate:1.0 () in
  let wl =
    {
      Drive.bias_attack with
      Drive.n;
      lookups = 0;
      min_duration = duration;
      base = Drive.bias_spec ~cfg:Config.default;
    }
  in
  let sc, _ = run_driver wl ~seed in
  let w = Scenario.world sc in
  let m = World.metrics_snapshot w in
  let series = Alcotest.(list (pair (float 0.) (float 0.))) in
  Alcotest.(check int) "reports" r.Security.reports m.World.ms_reports;
  Alcotest.check series "malicious fraction" r.Security.mal_frac m.World.ms_mal_frac;
  Alcotest.check series "lookups" r.Security.lookups_cum m.World.ms_lookups_cum;
  Alcotest.check series "biased lookups" r.Security.biased_cum m.World.ms_biased_cum;
  Alcotest.check series "CA messages" r.Security.ca_msgs_cum m.World.ms_ca_msgs_cum;
  Alcotest.(check (float 0.)) "final fraction" r.Security.final_malicious_fraction
    (World.malicious_fraction w)

let () =
  Alcotest.run "octobench"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles as Python's statistics.quantiles" `Quick test_quartiles;
          Alcotest.test_case "median, minimum, spread" `Quick test_median_min;
          Alcotest.test_case "compare verdicts" `Quick test_judge;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "BENCHMARK.json matches the metric tables" `Quick test_benchmark_json;
        ] );
      ( "driver",
        [
          Alcotest.test_case "anonymous lookups reproduce Workload.run" `Quick test_matches_workload;
          Alcotest.test_case "bias attack reproduces Security.fig3a" `Quick test_matches_fig3a;
        ] );
    ]
