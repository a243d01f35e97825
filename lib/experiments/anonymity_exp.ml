open Octo_anonymity

type point = { f : float; entropy : float; ideal : float; leak : float }
type curve = { label : string; points : point list }

let default_fs = [ 0.05; 0.1; 0.15; 0.2 ]

(* One ring model per malicious fraction, built once per figure: every
   curve of the figure draws from the same model, whose RNG advances as
   they run, so a figure's numbers depend only on its own arguments. *)
let models ~n ~seed fs = List.map (fun f -> (f, Ring_model.create ~n ~f ~seed ())) fs

let octopus_curve which ~trials ~models ~dummies ~alpha =
  let points =
    List.map
      (fun (f, m) ->
        let params =
          { Octopus_anon.default_params with trials; num_dummies = dummies; alpha }
        in
        let r =
          match which with
          | `I -> Octopus_anon.initiator m ~params ()
          | `T -> Octopus_anon.target m ~params ()
        in
        { f; entropy = r.Octopus_anon.entropy; ideal = r.Octopus_anon.ideal; leak = r.Octopus_anon.leak })
      models
  in
  {
    label = Printf.sprintf "octopus #dummies=%d alpha=%.1f%%" dummies (alpha *. 100.0);
    points;
  }

let fig5 which ?(n = 100_000) ?(trials = 300) ?(seed = 11) ?(fs = default_fs) () =
  let models = models ~n ~seed fs in
  List.concat_map
    (fun dummies ->
      List.map
        (fun alpha -> octopus_curve which ~trials ~models ~dummies ~alpha)
        [ 0.01; 0.005 ])
    [ 2; 6 ]

let fig5a = fig5 `I
let fig5c = fig5 `T

let baseline_curve name fn ~trials ~models =
  let points =
    List.map
      (fun (f, m) ->
        let params = { Baseline_anon.default_params with trials } in
        let r : Baseline_anon.result = fn m ~params () in
        { f; entropy = r.Baseline_anon.entropy; ideal = r.Baseline_anon.ideal; leak = r.Baseline_anon.leak })
      models
  in
  { label = name; points }

let comparison which ?(n = 100_000) ?(trials = 300) ?(seed = 11) ?(fs = default_fs) () =
  let models = models ~n ~seed fs in
  let octopus = octopus_curve which ~trials ~models ~dummies:6 ~alpha:0.01 in
  let baselines =
    match which with
    | `I ->
      [
        ("nisan", fun m ~params () -> Baseline_anon.nisan_initiator m ~params ());
        ("torsk", fun m ~params () -> Baseline_anon.torsk_initiator m ~params ());
        ("chord", fun m ~params () -> Baseline_anon.chord_initiator m ~params ());
      ]
    | `T ->
      [
        ("nisan", fun m ~params () -> Baseline_anon.nisan_target m ~params ());
        ("torsk", fun m ~params () -> Baseline_anon.torsk_target m ~params ());
        ("chord", fun m ~params () -> Baseline_anon.chord_target m ~params ());
      ]
  in
  { octopus with label = "octopus" }
  :: List.map (fun (name, fn) -> baseline_curve name fn ~trials ~models) baselines

let fig5b = comparison `I
let fig6 = comparison `T

type table1_row = {
  max_delay_ms : float;
  alpha : float;
  error_rate : float;
  info_leak_bits : float;
}

let table1 ?(n = 1_000_000) ?(trials = 1500) ?(seed = 11) () =
  List.concat_map
    (fun max_delay ->
      List.map
        (fun alpha ->
          let r = Timing.run ~n ~alpha ~max_delay ~trials ~seed () in
          {
            max_delay_ms = max_delay *. 1000.0;
            alpha;
            error_rate = r.Timing.error_rate;
            info_leak_bits = r.Timing.info_leak_bits;
          })
        [ 0.005; 0.01; 0.05 ])
    [ 0.1; 0.2 ]
