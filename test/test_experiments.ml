(* Tests for the experiment drivers: bandwidth model invariants, report
   rendering, the efficiency harness, small security runs, and ablation
   plumbing. *)

open Octo_experiments
module Bandwidth = Octopus.Bandwidth

(* ------------------------------------------------------------------ *)
(* Bandwidth model (Table 3 right half) *)

let test_bandwidth_ordering () =
  let k s = Bandwidth.kbps ~n:1_000_000 ~lookup_interval:300.0 s in
  let chord = k Bandwidth.Chord and halo = k Bandwidth.Halo and octo = k Bandwidth.Octopus in
  Alcotest.(check bool)
    (Printf.sprintf "chord %.2f < halo %.2f < octopus %.2f" chord halo octo)
    true
    (chord < halo && halo < octo)

let test_bandwidth_reasonable_magnitude () =
  (* The paper's claim: a few kbps even for Octopus. *)
  let octo = Bandwidth.kbps ~n:1_000_000 ~lookup_interval:300.0 Bandwidth.Octopus in
  Alcotest.(check bool) (Printf.sprintf "octopus %.1f kbps < 50" octo) true (octo < 50.0);
  let chord = Bandwidth.kbps ~n:1_000_000 ~lookup_interval:300.0 Bandwidth.Chord in
  Alcotest.(check bool) (Printf.sprintf "chord %.2f kbps < 3" chord) true (chord < 3.0)

let test_bandwidth_lookup_interval_effect () =
  (* Less frequent lookups cost less, and only the lookup component. *)
  let k li s = Bandwidth.kbps ~n:1_000_000 ~lookup_interval:li s in
  List.iter
    (fun s ->
      Alcotest.(check bool) "10min <= 5min" true
        (k 600.0 s <= k 300.0 s +. 1e-9))
    [ Bandwidth.Chord; Bandwidth.Halo; Bandwidth.Octopus ]

let test_bandwidth_scales_with_n () =
  (* More nodes -> longer lookups -> more bytes. *)
  let k n = Bandwidth.kbps ~n ~lookup_interval:300.0 Bandwidth.Octopus in
  Alcotest.(check bool) "n=1e6 > n=1e3" true (k 1_000_000 > k 1_000)

let test_bandwidth_breakdown_sums () =
  let parts = Bandwidth.breakdown ~n:1_000_000 ~lookup_interval:300.0 Bandwidth.Octopus in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 parts in
  Alcotest.(check (float 1e-6)) "kbps = 8 * sum / 1000"
    (total *. 8.0 /. 1000.0)
    (Bandwidth.kbps ~n:1_000_000 ~lookup_interval:300.0 Bandwidth.Octopus);
  Alcotest.(check int) "five octopus activities" 5 (List.length parts);
  List.iter (fun (_, v) -> Alcotest.(check bool) "non-negative" true (v >= 0.0)) parts

(* ------------------------------------------------------------------ *)
(* Efficiency harness *)

let test_efficiency_small_runs () =
  let octopus = Efficiency.octopus_latency ~n:80 ~lookups:40 ~seed:5 () in
  let chord = Efficiency.chord_latency ~n:80 ~lookups:40 ~seed:5 () in
  let halo = Efficiency.halo_latency ~n:80 ~lookups:40 ~seed:5 () in
  Alcotest.(check bool) "chord mostly succeeds" true (chord.Efficiency.succeeded >= 35);
  Alcotest.(check bool) "octopus mostly succeeds" true (octopus.Efficiency.succeeded >= 30);
  Alcotest.(check bool) "halo mostly succeeds" true (halo.Efficiency.succeeded >= 30);
  (* Exact pins: every baseline RPC rides the shared request table, so a
     change to its timeout or ordering moves these bit for bit. *)
  Alcotest.(check int) "chord succeeded" 40 chord.Efficiency.succeeded;
  Alcotest.(check int) "halo succeeded" 40 halo.Efficiency.succeeded;
  Alcotest.(check string) "chord mean" "0x1.340b54e5da2c2p-2"
    (Printf.sprintf "%h" chord.Efficiency.mean);
  Alcotest.(check string) "halo mean" "0x1.67cbaa24bac7ep+1"
    (Printf.sprintf "%h" halo.Efficiency.mean);
  Alcotest.(check bool)
    (Printf.sprintf "chord %.2fs < octopus %.2fs" chord.Efficiency.mean octopus.Efficiency.mean)
    true
    (chord.Efficiency.mean < octopus.Efficiency.mean);
  Alcotest.(check bool)
    (Printf.sprintf "chord %.2fs < halo %.2fs" chord.Efficiency.mean halo.Efficiency.mean)
    true
    (chord.Efficiency.mean < halo.Efficiency.mean);
  (* CDFs are monotone in both coordinates. *)
  let rec monotone = function
    | (v1, p1) :: ((v2, p2) :: _ as rest) ->
      v1 <= v2 && p1 <= p2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "octopus cdf monotone" true (monotone octopus.Efficiency.cdf)

(* ------------------------------------------------------------------ *)
(* Security driver *)

let test_security_small_run () =
  let r = Security.fig3a ~n:150 ~duration:250.0 ~rate:1.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "malicious fraction fell to %.3f" r.Security.final_malicious_fraction)
    true
    (r.Security.final_malicious_fraction < 0.05);
  Alcotest.(check (float 1e-9)) "no false positives" 0.0 r.Security.false_positive;
  Alcotest.(check bool) "reports were filed" true (r.Security.reports > 0);
  (* The malicious-fraction series starts at ~0.2 and is non-increasing. *)
  (match r.Security.mal_frac with
  | (_, first) :: _ ->
    (* The first bucket already includes the first revocations. *)
    Alcotest.(check bool)
      (Printf.sprintf "starts near 0.2 (%.3f)" first)
      true
      (first <= 0.205 && first >= 0.08)
  | [] -> Alcotest.fail "empty series");
  let rec non_increasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> b <= a +. 1e-9 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone decline" true (non_increasing r.Security.mal_frac);
  (* Biased lookups stop growing at the end. *)
  (match (r.Security.biased_cum, List.rev r.Security.biased_cum) with
  | _ :: _, (_, last) :: _ ->
    let mid =
      List.nth r.Security.biased_cum (List.length r.Security.biased_cum / 2) |> snd
    in
    Alcotest.(check bool)
      (Printf.sprintf "biased flattens (mid %.0f, end %.0f)" mid last)
      true
      (last -. mid <= Float.max 2.0 (0.3 *. last))
  | _ -> Alcotest.fail "empty biased series")

(* ------------------------------------------------------------------ *)
(* Report rendering *)

let test_report_rendering () =
  let rows = Anonymity_exp.table1 ~n:100_000 ~trials:80 ~seed:3 () in
  let s = Report.table1 rows in
  Alcotest.(check bool) "table1 mentions paper refs" true
    (String.length s > 0
    &&
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    contains s "99.50%");
  Alcotest.(check int) "six cells" 6 (List.length rows);
  List.iter
    (fun (r : Anonymity_exp.table1_row) ->
      Alcotest.(check bool) "high error rate" true (r.Anonymity_exp.error_rate > 0.9))
    rows

let test_series_rendering () =
  let s =
    Report.series ~every:2 ~header:("t", "v") [ (0.0, 1.0); (1.0, 2.0); (2.0, 3.0); (3.0, 4.0) ]
  in
  (* header + separator + rows 0,2,3 (thinning keeps the last) + newline *)
  Alcotest.(check int) "thinned rows" 6 (List.length (String.split_on_char '\n' s))

(* ------------------------------------------------------------------ *)
(* Anonymity figures *)

(* A figure's numbers depend only on its own arguments: computing another
   figure in between (as `anonymity` and `all` do) must not change them. *)
let test_figures_independent_of_order () =
  let fig5c () = Report.fig_curves (Anonymity_exp.fig5c ~n:3000 ~trials:30 ~fs:[ 0.1; 0.2 ] ()) in
  let first = fig5c () in
  ignore (Anonymity_exp.fig5a ~n:3000 ~trials:30 ~fs:[ 0.1; 0.2 ] ());
  ignore (Anonymity_exp.fig6 ~n:3000 ~trials:30 ~fs:[ 0.1; 0.2 ] ());
  Alcotest.(check string) "fig5c unchanged by fig5a and fig6" first (fig5c ())

(* ------------------------------------------------------------------ *)
(* Ablation plumbing *)

let test_ablation_dummies_direction () =
  let points = Ablation.dummies ~n:8_000 ~trials:120 ~seed:9 () in
  Alcotest.(check int) "three points" 3 (List.length points);
  let leak d =
    (List.find (fun (p : Ablation.dummy_point) -> p.Ablation.dummies = d) points).Ablation.leak_t
  in
  Alcotest.(check bool)
    (Printf.sprintf "0 dummies (%.2f) leaks >= 6 dummies (%.2f)" (leak 0) (leak 6))
    true
    (leak 0 >= leak 6 -. 0.15)

let test_ablation_single_path_direction () =
  let points = Ablation.paths ~n:8_000 ~trials:150 ~seed:9 () in
  let leak single =
    (List.find (fun (p : Ablation.path_point) -> p.Ablation.single_path = single) points)
      .Ablation.leak_t
  in
  Alcotest.(check bool)
    (Printf.sprintf "single path (%.2f) leaks >= multi path (%.2f)" (leak true) (leak false))
    true
    (leak true >= leak false -. 0.1)

let () =
  Alcotest.run "octo_experiments"
    [
      ( "bandwidth",
        [
          Alcotest.test_case "ordering" `Quick test_bandwidth_ordering;
          Alcotest.test_case "magnitude" `Quick test_bandwidth_reasonable_magnitude;
          Alcotest.test_case "lookup interval" `Quick test_bandwidth_lookup_interval_effect;
          Alcotest.test_case "scales with n" `Quick test_bandwidth_scales_with_n;
          Alcotest.test_case "breakdown sums" `Quick test_bandwidth_breakdown_sums;
        ] );
      ("efficiency", [ Alcotest.test_case "small runs" `Slow test_efficiency_small_runs ]);
      ("security", [ Alcotest.test_case "small run" `Slow test_security_small_run ]);
      ( "report",
        [
          Alcotest.test_case "table1 rendering" `Quick test_report_rendering;
          Alcotest.test_case "series thinning" `Quick test_series_rendering;
        ] );
      ( "anonymity",
        [ Alcotest.test_case "figures independent of order" `Quick test_figures_independent_of_order ]
      );
      ( "ablation",
        [
          Alcotest.test_case "dummies direction" `Slow test_ablation_dummies_direction;
          Alcotest.test_case "single path direction" `Slow test_ablation_single_path_direction;
        ] );
    ]
