module Fault = Octo_sim.Fault

type regime = Partition_heal | Corruption | Dup_reorder | Crash_burst | Regional_outage

let all_regimes = [ Partition_heal; Corruption; Dup_reorder; Crash_burst; Regional_outage ]

let regime_name = function
  | Partition_heal -> "partition"
  | Corruption -> "corrupt"
  | Dup_reorder -> "dup-reorder"
  | Crash_burst -> "crash"
  | Regional_outage -> "outage"

(* Success-rate floors per regime, documented in EXPERIMENTS.md. They are
   deliberately below the observed rates (measured at the default n=60,
   duration=240, seeds 7 and 11) so seed jitter does not flake CI, but
   high enough that a degradation-path regression — circuits not
   rebuilding, the ring failing to re-knit — trips them. *)
let threshold = function
  | Partition_heal -> 0.50
  | Corruption -> 0.60
  | Dup_reorder -> 0.70
  | Crash_burst -> 0.55
  | Regional_outage -> 0.50

(* Every window is phrased as a fraction of the run so the shape survives
   a --duration override: faults start after bootstrap has settled and
   heal with enough tail left for re-convergence. *)
let plan_for regime ~n ~duration : Fault.plan =
  let d = duration in
  match regime with
  | Partition_heal ->
    [ Fault.Partition
        {
          groups = [ Fault.Range { lo = 0; hi = (n / 4) - 1 } ];
          from_ = 0.25 *. d;
          heal_at = 0.55 *. d;
        };
    ]
  | Corruption -> [ Fault.Corrupt { prob = 0.08; from_ = 0.2 *. d; until = 0.7 *. d } ]
  | Dup_reorder ->
    [ Fault.Duplicate { prob = 0.08; spread = 0.4; from_ = 0.2 *. d; until = 0.7 *. d };
      Fault.Reorder { prob = 0.25; max_extra = 0.5; from_ = 0.2 *. d; until = 0.7 *. d };
    ]
  | Crash_burst ->
    [ Fault.Crash_burst
        {
          at = 0.3 *. d;
          victims = Fault.Range { lo = 0; hi = n - 1 };
          count = n / 8;
          recover_after = 0.2 *. d;
        };
    ]
  | Regional_outage ->
    [ Fault.Regional_outage
        { epicenter = 0; radius = 0.04; from_ = 0.3 *. d; until = 0.55 *. d };
    ]

type result = {
  regime : regime;
  outcome : Regime.outcome;
  drops : int;
  corruptions : int;
  duplicates : int;
  reorders : int;
  crashes : int;
}

let run ?(n = 60) ?(duration = 240.0) ?(seed = 7) ~regime () =
  let cfg =
    {
      Octopus.Config.default with
      Octopus.Config.fault_plan = Some (plan_for regime ~n ~duration);
      anon_path_retries = 2;
      ring_repair = true;
      lookup_every = 20.0;
    }
  in
  (* Every fault window closes well before the end of the run, so by the
     harness's final convergence check maintenance has had the tail of
     the run to re-knit the ring. *)
  let sc, outcome =
    Regime.run Regime.checks (fun h ->
        Scenario.run (Regime.on_init h (Scenario.make ~seed ~cfg ~n ~duration ())))
  in
  let counters f = match Scenario.fault sc with None -> 0 | Some t -> f t in
  {
    regime;
    outcome;
    drops = counters Fault.drops;
    corruptions = counters Fault.corruptions;
    duplicates = counters Fault.duplicates;
    reorders = counters Fault.reorders;
    crashes = counters Fault.crashes;
  }

let report r =
  {
    (Regime.report r.outcome) with
    Regime.floor = Some (threshold r.regime);
    lines =
      [ Printf.sprintf "drops %d corrupt %d dup %d reorder %d crash %d" r.drops r.corruptions
          r.duplicates r.reorders r.crashes ];
  }
