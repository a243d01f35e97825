(* The §5.1 setting every figure and table cell shares: N = 1000 nodes, a
   fifth of them colluders, 1000 s, the paper's lookup workload, and
   colluding predecessors that cover a checked finger half the time. *)
let default_n = 1000
let default_duration = 1000.0
let default_seed = 42
let fraction_malicious = 0.2
let consistency = 0.5

type result = {
  mal_frac : (float * float) list;
  lookups_cum : (float * float) list;
  biased_cum : (float * float) list;
  ca_msgs_cum : (float * float) list;
  false_positive : float;
  false_negative : float;
  false_alarm : float;
  reports : int;
  final_malicious_fraction : float;
}

let run ~n ~duration ~seed ~attack ~rate ?churn_mean () =
  let cfg =
    if attack = Octopus.World.Selective_dos then
      { Octopus.Config.default with Octopus.Config.dos_defense = true }
    else Octopus.Config.default
  in
  let sc =
    Scenario.run
      (Scenario.make ~seed ~cfg ~fraction_malicious ~metrics_bucket:10.0
         ~attack:{ Octopus.World.kind = attack; rate; consistency }
         ?churn_mean ~n ~duration ())
  in
  let w = Scenario.world sc in
  let m = Octopus.World.metrics_snapshot w in
  let reports = m.Octopus.World.ms_reports in
  let fp =
    if reports = 0 then 0.0
    else float_of_int m.Octopus.World.ms_convicted_honest /. float_of_int reports
  in
  let fn =
    if m.Octopus.World.ms_tests_on_attacker = 0 then 0.0
    else
      Float.max 0.0
        (1.0
        -. (float_of_int m.Octopus.World.ms_convicted_malicious
           /. float_of_int m.Octopus.World.ms_tests_on_attacker))
  in
  let fa =
    if reports = 0 then 0.0
    else float_of_int m.Octopus.World.ms_no_conviction /. float_of_int reports
  in
  {
    mal_frac = m.Octopus.World.ms_mal_frac;
    lookups_cum = m.Octopus.World.ms_lookups_cum;
    biased_cum = m.Octopus.World.ms_biased_cum;
    ca_msgs_cum = m.Octopus.World.ms_ca_msgs_cum;
    false_positive = fp;
    false_negative = fn;
    false_alarm = fa;
    reports;
    final_malicious_fraction = Octopus.World.malicious_fraction w;
  }

let scenario attack ?(n = default_n) ?(duration = default_duration) ?(seed = default_seed)
    ~rate () =
  run ~n ~duration ~seed ~attack ~rate ()

let fig3a = scenario Octopus.World.Bias
let fig3c = scenario Octopus.World.Finger_manip
let fig4 = scenario Octopus.World.Pollution
let fig9 = scenario Octopus.World.Selective_dos

type table2_row = {
  attack_name : string;
  lambda_minutes : float option;
  fp : float;
  fn : float;
  fa : float;
}

let table2 ?(n = default_n) ?(duration = default_duration) ?(seed = default_seed) () =
  let cell name attack lambda =
    let res =
      run ~n ~duration ~seed ~attack ~rate:1.0
        ?churn_mean:(Option.map (fun m -> m *. 60.0) lambda)
        ()
    in
    {
      attack_name = name;
      lambda_minutes = lambda;
      fp = res.false_positive;
      fn = res.false_negative;
      fa = res.false_alarm;
    }
  in
  List.concat_map
    (fun (name, attack) ->
      [ cell name attack (Some 60.0); cell name attack (Some 10.0) ])
    [
      ("Lookup Bias", Octopus.World.Bias);
      ("Fingertable Manipulation", Octopus.World.Finger_manip);
      ("Fingertable Pollution", Octopus.World.Pollution);
    ]
