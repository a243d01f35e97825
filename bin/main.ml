(* octopus-repro: command-line driver regenerating every table and figure
   of the paper's evaluation. Each subcommand prints the measured rows
   next to the paper's reference values (see EXPERIMENTS.md). *)

open Cmdliner
open Octo_experiments

let p = print_string
let pl = print_endline

let int_opt name default doc = Arg.(value & opt int default & info [ name ] ~doc)
let float_opt name default doc = Arg.(value & opt float default & info [ name ] ~doc)
let seed_opt default = int_opt "seed" default "RNG seed."
let flag name doc = Arg.(value & flag & info [ name ] ~doc)

(* Positional artifact names; none given selects them all. *)
let artifacts names =
  Term.(
    const (fun figs name -> figs = [] || List.mem name figs)
    $ Arg.(value & pos_all (enum (List.map (fun a -> (a, a)) names)) []
           & info [] ~docv:"ARTIFACT" ~doc:"Artifacts to regenerate (default: all)."))

(* Print each wanted artifact under its title. *)
let show wants = List.iter (fun (fig, title, text) -> if wants fig then (pl title; p (text ())))

(* ------------------------------------------------------------------ *)
(* Paper artifacts: security, anonymity, timing, efficiency, ablation and
   all (every artifact at reduced scale). *)

let security_cmd =
  let run wants n duration seed rate =
    let label = Printf.sprintf "attack rate = %.0f%%" (rate *. 100.) in
    if wants "fig3a" || wants "fig3b" || wants "fig7b" then begin
      let r = Security.fig3a ~n ~duration ~seed ~rate () in
      show wants
        [ ("fig3a", "== Figure 3(a): lookup bias attack, remaining malicious fraction ==",
           fun () -> Report.security_run ~label r);
          ("fig3b", "== Figure 3(b): lookups vs biased lookups (cumulative) ==",
           fun () -> Report.fig3b r);
          ("fig7b", "== Figure 7(b): CA workload, lookup bias attack ==",
           fun () -> Report.fig7b r) ]
    end;
    show wants
      [ ("fig3c", "== Figure 3(c): fingertable manipulation attack ==",
         fun () -> Report.security_run ~label (Security.fig3c ~n ~duration ~seed ~rate ()));
        ("fig4", "== Figure 4: fingertable pollution attack ==",
         fun () -> Report.security_run ~label (Security.fig4 ~n ~duration ~seed ~rate ()));
        ("fig9", "== Figure 9: selective DoS attack ==",
         fun () -> Report.security_run ~label (Security.fig9 ~n ~duration ~seed ~rate ())) ];
    if wants "table2" then begin
      pl "== Table 2: identification accuracy under churn ==";
      p (Report.table2 (Security.table2 ~n ~duration ~seed ()))
    end
  in
  Cmd.v
    (Cmd.info "security" ~doc:"Figures 3, 4, 7b, 9 and Table 2 (event simulation)")
    Term.(
      const run
      $ artifacts [ "fig3a"; "fig3b"; "fig3c"; "fig4"; "fig7b"; "fig9"; "table2" ]
      $ int_opt "n" 1000 "Network size."
      $ float_opt "duration" 1000.0 "Simulated seconds."
      $ seed_opt 42
      $ float_opt "rate" 1.0 "Attack rate (0..1).")

let anonymity_cmd =
  let run wants n trials seed =
    show wants
      [ ("fig5a", "== Figure 5(a): H(I) of Octopus ==",
         fun () -> Report.fig_curves (Anonymity_exp.fig5a ~n ~trials ~seed ()));
        ("fig5b", "== Figure 5(b): H(I) comparison (paper: NISAN/Torsk leak ~3.3 bits, ~6x Octopus) ==",
         fun () -> Report.fig_curves (Anonymity_exp.fig5b ~n ~trials ~seed ()));
        ("fig5c", "== Figure 5(c): H(T) of Octopus (paper: 0.82 bits leaked at f=0.2, 6 dummies) ==",
         fun () -> Report.fig_curves (Anonymity_exp.fig5c ~n ~trials ~seed ()));
        ("fig6", "== Figure 6: H(T) comparison (paper: NISAN 11.3, Torsk 3.4 bits leaked) ==",
         fun () -> Report.fig_curves (Anonymity_exp.fig6 ~n ~trials ~seed ())) ]
  in
  Cmd.v
    (Cmd.info "anonymity" ~doc:"Figures 5(a)-(c) and 6 (probabilistic modelling)")
    Term.(
      const run $ artifacts [ "fig5a"; "fig5b"; "fig5c"; "fig6" ]
      $ int_opt "n" 100_000 "Network size." $ int_opt "trials" 300 "Monte-Carlo trials."
      $ seed_opt 11)

let timing_cmd =
  let run trials seed =
    pl "== Table 1: end-to-end timing analysis error rate ==";
    p (Report.table1 (Anonymity_exp.table1 ~trials ~seed ()))
  in
  Cmd.v
    (Cmd.info "timing" ~doc:"Table 1: timing-analysis attack simulation")
    Term.(const run $ int_opt "trials" 1500 "Trials per cell." $ seed_opt 11)

let efficiency_cmd =
  let run cdf n lookups seed =
    let octopus = Efficiency.octopus_latency ~n ~lookups ~seed () in
    let chord = Efficiency.chord_latency ~n ~lookups ~seed () in
    let halo = Efficiency.halo_latency ~n ~lookups ~seed () in
    pl "== Table 3: lookup latency and bandwidth ==";
    p (Report.table3 ~octopus ~chord ~halo ~bandwidth:(Efficiency.bandwidth_table ()));
    if cdf then begin
      pl "== Figure 7(a): lookup latency CDF ==";
      p (Report.fig7a ~octopus ~chord ~halo)
    end
  in
  Cmd.v
    (Cmd.info "efficiency" ~doc:"Table 3 and Figure 7(a) (simulated WAN)")
    Term.(
      const run
      $ flag "cdf" "Also print the Figure 7(a) CDFs."
      $ int_opt "n" 207 "Nodes (paper: 207)." $ int_opt "lookups" 600 "Measured lookups."
      $ seed_opt 42)

let ablation_cmd =
  let run n duration trials seed =
    pl "== Ablations of DESIGN.md's flagged choices ==";
    p
      (Ablation.render
         ~dummies:(Ablation.dummies ~trials ~seed ())
         ~paths:(Ablation.paths ~trials ~seed ())
         ~proofs:(Ablation.proof_queue ~n ~duration ~seed ())
         ~bounds:(Ablation.bound_checking ~n ~seed ()))
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Dummies, path layout, proof queue, bound checking")
    Term.(
      const run $ int_opt "n" 300 "Network size for sim ablations."
      $ float_opt "duration" 400.0 "Simulated seconds." $ int_opt "trials" 250 "Monte-Carlo trials."
      $ seed_opt 42)

let all_cmd =
  let run () =
    pl "Regenerating every table and figure (reduced scales; see --help of";
    pl "each subcommand for full-scale runs).\n";
    pl "== Table 1 ==";
    p (Report.table1 (Anonymity_exp.table1 ~trials:800 ()));
    pl "\n== Figures 3a/3b/7b (lookup bias) ==";
    let r = Security.fig3a ~n:500 ~duration:600.0 ~rate:1.0 () in
    p (Report.security_run ~label:"bias, rate 100%" r);
    p (Report.fig3b r);
    p (Report.fig7b r);
    pl "\n== Figure 3c (manipulation) ==";
    p (Report.security_run ~label:"manipulation, rate 100%"
         (Security.fig3c ~n:500 ~duration:600.0 ~rate:1.0 ()));
    pl "\n== Figure 4 (pollution) ==";
    p (Report.security_run ~label:"pollution, rate 100%"
         (Security.fig4 ~n:500 ~duration:600.0 ~rate:1.0 ()));
    pl "\n== Figure 9 (selective DoS) ==";
    p (Report.security_run ~label:"selective DoS, rate 100%"
         (Security.fig9 ~n:500 ~duration:600.0 ~rate:1.0 ()));
    pl "\n== Table 2 ==";
    p (Report.table2 (Security.table2 ~n:500 ~duration:600.0 ()));
    pl "\n== Figures 5a/5b/5c/6 ==";
    p (Report.fig_curves (Anonymity_exp.fig5a ~n:50_000 ~trials:200 ()));
    p (Report.fig_curves (Anonymity_exp.fig5b ~n:50_000 ~trials:200 ()));
    p (Report.fig_curves (Anonymity_exp.fig5c ~n:50_000 ~trials:200 ()));
    p (Report.fig_curves (Anonymity_exp.fig6 ~n:50_000 ~trials:200 ()));
    pl "\n== Table 3 / Figure 7a ==";
    let octopus = Efficiency.octopus_latency ~lookups:300 () in
    let chord = Efficiency.chord_latency ~lookups:300 () in
    let halo = Efficiency.halo_latency ~lookups:300 () in
    p (Report.table3 ~octopus ~chord ~halo ~bandwidth:(Efficiency.bandwidth_table ()));
    p (Report.fig7a ~octopus ~chord ~halo)
  in
  Cmd.v (Cmd.info "all" ~doc:"Every artifact at reduced scale") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* The gated regimes (trace, chaos, attack, load, scale): one option
   block and one runner. *)

type opts = {
  n : int; duration : float; seed : int; trace : string option; json : string option; check : bool }

let usage fmt = Printf.ksprintf (fun s -> prerr_endline ("octopus-repro: " ^ s); exit 2) fmt

(* A command takes [--duration] only with a default (load sizes its run
   by --queries), and only the output flags named in [outputs]. *)
let opts ~n ~duration ~outputs =
  let path name doc =
    if List.mem name outputs then
      Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
    else Term.const None
  in
  Term.(
    const (fun n duration seed trace json check -> { n; duration; seed; trace; json; check })
    $ int_opt "n" n "Network size."
    $ Option.fold duration ~none:(const 0.0) ~some:(fun d ->
          float_opt "duration" d "Simulated seconds.")
    $ seed_opt 7
    $ path "trace"
        "Write the event stream to $(docv) as JSON Lines; when several regimes run, \
         each writes $(docv).REGIME."
    $ path "json" "Write the octopus-load/v1 JSON summary (counts, latency quantiles, \
                   duplicate factor) to $(docv)."
    $ flag "check-invariants"
        "Run the online invariant checker (with the regime's end-of-run convergence \
         and eclipse checks); exit 1 on any violation.")

(* Every output path is opened before anything simulates, so a bad path
   fails at once rather than after a full-scale run. *)
let run_regimes cmd o regimes =
  let output what name =
    Option.map (fun path ->
        let path = if List.length regimes > 1 then path ^ "." ^ name else path in
        try (path, open_out path) with Sys_error e -> usage "cannot write %s: %s" what e)
  in
  let planned =
    List.map (fun (name, go) -> (name, go, output "trace file" name o.trace,
                                 output "json summary" name o.json)) regimes
  in
  let failed = ref false in
  List.iter
    (fun (name, go, trace_out, json_out) ->
      let say line = Printf.printf "%-18s %s\n" (String.trim (cmd ^ " " ^ name)) line in
      let written what write = Option.iter (fun (path, oc) ->
          write oc;
          close_out oc;
          say (what ^ " written to " ^ path))
      in
      let r : Regime.report = go () in
      let { Regime.trace; checker; _ } = r.Regime.outcome in
      List.iter say (Regime.result_line r :: r.Regime.lines);
      written "trace" (Octo_sim.Trace.dump_jsonl trace) trace_out;
      written "summary" (fun oc -> Option.iter (output_string oc) r.Regime.json) json_out;
      if not (Regime.passed r) then begin
        say "FAILED: below the documented floor";
        failed := true
      end;
      if o.check then begin
        Octopus.Invariant.report checker Format.std_formatter;
        if not (Octopus.Invariant.ok checker) then failed := true
      end)
    planned;
  if !failed then exit 1

(* [regimes o extra] checks the family's own flags and names its runs. *)
let regime_cmd cmd ~doc ~min_n:(min_n, why) opts extra regimes =
  let run o x =
    if o.n < min_n then usage "%s needs -n >= %d%s" cmd min_n why;
    run_regimes cmd o (regimes o x)
  in
  Cmd.v (Cmd.info cmd ~doc) Term.(const run $ opts $ extra)

let pos_regimes what all name =
  let names = List.map (fun r -> (name r, r)) all in
  let arg =
    Arg.(value & pos_all (enum names) [] & info [] ~docv:"REGIME"
           ~doc:(what ^ " regimes to run (default: all)."))
  in
  Term.(const (function [] -> all | rs -> rs) $ arg)

let each name go = List.map (fun r -> (name r, fun () -> go r))

let trace_cmd =
  regime_cmd "trace" ~doc:"Traced end-to-end scenario with online invariant checking"
    ~min_n:(8, " (successor-list bootstrap)")
    (opts ~n:80 ~duration:(Some 120.0) ~outputs:[ "trace" ])
    (flag "inject-misroute"
       "Deliberately corrupt lookup results (test hook) — the checker must catch it.")
    (fun o misroute ->
      if misroute then
        Octopus.Olookup.set_test_misroute
          (Some (fun (p : Octo_chord.Peer.t) -> { p with Octo_chord.Peer.id = p.id + 1 }));
      [ ("", fun () -> Tracecheck.report (Tracecheck.run ~n:o.n ~duration:o.duration ~seed:o.seed ())) ])

let chaos_cmd =
  regime_cmd "chaos"
    ~doc:"Lookup workload under fault injection: partitions, corruption, \
          duplication/reordering, crash bursts, regional outages"
    ~min_n:(16, " (partition/crash group sizing)")
    (opts ~n:60 ~duration:(Some 240.0) ~outputs:[ "trace" ])
    (pos_regimes "Fault" Chaos_exp.all_regimes Chaos_exp.regime_name)
    (fun o ->
      each Chaos_exp.regime_name (fun regime ->
          Chaos_exp.report (Chaos_exp.run ~n:o.n ~duration:o.duration ~seed:o.seed ~regime ())))

let attack_cmd =
  regime_cmd "attack"
    ~doc:"Lookup workload under active adversaries: Sybil identifier flooding \
          against the CA's admission defense, eclipse timed with partition \
          heals, and range estimation under churn"
    ~min_n:(16, " (colluder group sizing)")
    (opts ~n:60 ~duration:(Some 240.0) ~outputs:[ "trace" ])
    Term.(
      const (fun rs cache -> (rs, cache))
      $ pos_regimes "Attack" Attack_exp.all_regimes Attack_exp.regime_name
      $ flag "cache"
          "Enable the hot-key result cache during the eclipse regime \
           (conviction-driven revocations must flush it).")
    (fun o (regimes, cache) ->
      each Attack_exp.regime_name
        (fun regime ->
          Attack_exp.report
            (Attack_exp.run ~n:o.n ~duration:o.duration ~seed:o.seed ~cache ~regime ()))
        regimes)

let load_cmd =
  let names = List.map (fun r -> (Workload.regime_name r, r)) Workload.all_regimes in
  regime_cmd "load"
    ~doc:"Open-loop traffic: Poisson/MMPP/diurnal arrivals, Zipf keys, latency \
          CDFs from a bounded-memory sketch, optional hot-key cache"
    ~min_n:(8, "")
    (opts ~n:60 ~duration:None ~outputs:[ "trace"; "json" ])
    Term.(
      const (fun regime queries cache chaos -> (regime, queries, cache, chaos))
      $ Arg.(value & opt (enum names) Workload.Steady
             & info [ "regime" ] ~docv:"REGIME" ~doc:"Traffic regime: steady, burst or diurnal.")
      $ int_opt "queries" 2000 "Open-loop arrivals to generate."
      $ flag "cache" "Enable the hot-key result cache and print its anonymity-impact report."
      $ flag "chaos" "Overlay the dup-reorder fault plan plus graceful-degradation knobs.")
    (fun o (regime, queries, cache, chaos) ->
      if queries < 1 then usage "load needs --queries >= 1";
      each Workload.regime_name
        (fun regime ->
          Workload.report (Workload.run ~n:o.n ~seed:o.seed ~queries ~cache ~chaos ~regime ()))
        [ regime ])

let scale_cmd =
  regime_cmd "scale"
    ~doc:"Population-scale dynamic network (10^4..10^6 nodes): churn, signed \
          stabilization, sparse lookups, memory envelope reporting"
    ~min_n:(64, " (it is a population-scale preset)")
    (opts ~n:10_000 ~duration:(Some 180.0) ~outputs:[])
    Term.(
      const (fun a b c d -> (a, b, c, d))
      $ float_opt "stabilize-every" 20.0
          "Stabilization period in simulated seconds (the only hot periodic loop)."
      $ float_opt "churn-mean" 3600.0 "Mean node lifetime in simulated seconds (exponential churn)."
      $ float_opt "churn-until" 0.45
          "Fraction of the run after which churn stops, leaving a quiet settle tail for the \
           final convergence check."
      $ int_opt "lookups" 400 "Direct secure lookups spread evenly over the run.")
    (fun o (stabilize_every, churn_mean, churn_until, lookups) ->
      if churn_until < 0.0 || churn_until > 0.8 then
        usage "--churn-until must be in [0, 0.8] (the ring needs a settle tail)";
      [ ( "",
          fun () ->
            Scale.report (Scale.run ~n:o.n ~duration:o.duration ~seed:o.seed ~stabilize_every
                            ~churn_mean ~churn_until ~lookups ()) ) ])

let () =
  let doc = "Octopus: anonymous and secure DHT lookup — paper reproduction harness" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "octopus-repro" ~doc)
          [ security_cmd; anonymity_cmd; timing_cmd; efficiency_cmd; ablation_cmd; trace_cmd;
            chaos_cmd; attack_cmd; load_cmd; scale_cmd; all_cmd ]))
