(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks: one Test.make per paper artifact,
   timing the kernel computation that drives it.

   Part 2 — the reproduction harness: regenerates every table and figure
   at a reduced-but-representative scale and prints the measured rows next
   to the paper's reference values. Full-scale runs: `octopus-repro`. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Shared fixtures for the kernels *)

module Fixtures = struct
  module Engine = Octo_sim.Engine
  module Rng = Octo_sim.Rng
  module Latency = Octo_sim.Latency

  let world =
    lazy
      (let engine = Engine.create ~seed:1 () in
       let latency = Latency.create (Rng.split (Engine.rng engine)) ~n:121 in
       let w = Octopus.World.create engine latency ~n:120 in
       Octopus.Serve.install w;
       let _ = Octopus.Ca.create w in
       (engine, w))

  let chord =
    lazy
      (let engine = Engine.create ~seed:2 () in
       let latency = Latency.create (Rng.split (Engine.rng engine)) ~n:120 in
       (engine, Octo_chord.Network.create engine latency ~n:120))

  let ring = lazy (Octo_anonymity.Ring_model.create ~n:20_000 ~f:0.2 ~seed:3 ())

  let rng = Rng.create ~seed:4
end

let kernels =
  let open Fixtures in
  Test.make_grouped ~name:"kernels"
    [
      (* Table 1: one timing-analysis trial. *)
      Test.make ~name:"table1/timing-trial"
        (Staged.stage (fun () ->
             ignore (Octo_anonymity.Timing.run ~n:100_000 ~trials:1 ~seed:5 ())));
      (* Table 2 / Fig 3a: the security sim's hot path — sign + verify a
         routing table. *)
      Test.make ~name:"table2/sign-verify-table"
        (Staged.stage (fun () ->
             let _, w = Lazy.force world in
             let node = Octopus.World.node w 3 in
             let st = Octopus.World.honest_table w node in
             assert (Octopus.World.verify_table w st)));
      (* Fig 3b: one anonymous lookup on a quiet network. *)
      Test.make ~name:"fig3b/anonymous-lookup"
        (Staged.stage (fun () ->
             let engine, w = Lazy.force world in
             let key = Octo_chord.Id.random w.Octopus.World.space rng in
             let got = ref false in
             Octopus.Olookup.anonymous w (Octopus.World.node w 0) ~key (fun _ -> got := true);
             Engine.run engine ~until:(Engine.now engine +. 30.0);
             assert !got));
      (* Fig 3c / Fig 4: the bound-check geometry. *)
      Test.make ~name:"fig3c/bound-check"
        (Staged.stage (fun () ->
             let _, net = Lazy.force chord in
             let node = Octo_chord.Network.node net 0 in
             let gap = Octo_chord.Bounds.estimated_gap node.Octo_chord.Network.rt in
             let table = Octo_chord.Network.snapshot net 1 in
             ignore
               (Octo_chord.Bounds.check_table
                  (Octo_chord.Network.space net)
                  ~num_fingers:12 ~gap table)));
      (* Fig 5a: one greedy lookup trajectory on the static ring model. *)
      Test.make ~name:"fig5a/ring-lookup-path"
        (Staged.stage (fun () ->
             let m = Lazy.force ring in
             let from = Octo_anonymity.Ring_model.random_rank m in
             let key = Octo_anonymity.Ring_model.random_key m in
             ignore (Octo_anonymity.Ring_model.lookup_path m ~from ~key)));
      (* Fig 5b / Fig 6: a closed-form baseline entropy evaluation. *)
      Test.make ~name:"fig5b/baseline-entropy"
        (Staged.stage (fun () ->
             ignore (Octo_anonymity.Baseline_anon.chord_initiator (Lazy.force ring) ())));
      (* Fig 5c: one range estimation. *)
      Test.make ~name:"fig5c/range-estimate"
        (Staged.stage (fun () ->
             let m = Lazy.force ring in
             let from = Octo_anonymity.Ring_model.random_rank m in
             let key = Octo_anonymity.Ring_model.random_key m in
             let path = Octo_anonymity.Ring_model.lookup_path m ~from ~key in
             ignore (Octo_anonymity.Range_attack.estimate m path)));
      (* Table 3 / Fig 7a: one plain Chord lookup on the event simulator. *)
      Test.make ~name:"table3/chord-lookup"
        (Staged.stage (fun () ->
             let engine, net = Lazy.force chord in
             let key = Octo_chord.Id.random (Octo_chord.Network.space net) rng in
             let got = ref false in
             Octo_chord.Lookup.run net ~from:0 ~key (fun _ -> got := true);
             Engine.run engine ~until:(Engine.now engine +. 30.0);
             assert !got));
      (* Fig 7b: CA-side report verification (wire digest + signature). *)
      Test.make ~name:"fig7b/report-verify"
        (Staged.stage (fun () ->
             let _, w = Lazy.force world in
             let node = Octopus.World.node w 7 in
             let sl = Octopus.World.honest_list w node Octopus.Types.Succ_list in
             assert (Octopus.World.verify_list w sl)));
      (* Fig 9: receipt signing + verification (the DoS-defense hot path). *)
      Test.make ~name:"fig9/receipt-sign-verify"
        (Staged.stage (fun () ->
             let _, w = Lazy.force world in
             let node = Octopus.World.node w 9 in
             let receipt = Octopus.World.sign_receipt w node ~cid:42 in
             assert (Octopus.World.verify_receipt w receipt)));
      (* Rpc substrate: the call/resolve fast path every protocol message
         now rides on. *)
      Test.make ~name:"rpc/call-resolve"
        (let engine = Octo_sim.Engine.create ~seed:6 () in
         let rpc =
           Octo_sim.Rpc.create engine ~rng:(Octo_sim.Rng.create ~seed:7) ()
         in
         let policy = Octo_sim.Rpc.policy ~timeout:1.0 () in
         Staged.stage (fun () ->
             let tok =
               Octo_sim.Rpc.call rpc ~src:0 ~dst:1 ~policy
                 ~send:(fun _ -> ())
                 ~on_give_up:(fun () -> ())
                 (fun (_ : unit) -> ())
             in
             assert (Octo_sim.Rpc.resolve rpc (Octo_sim.Rpc.rid tok) ())));
      (* Rpc substrate: a full timeout -> retry -> give-up ladder. *)
      Test.make ~name:"rpc/timeout-giveup"
        (let engine = Octo_sim.Engine.create ~seed:8 () in
         let rpc =
           Octo_sim.Rpc.create engine ~rng:(Octo_sim.Rng.create ~seed:9) ()
         in
         let policy =
           Octo_sim.Rpc.policy ~attempts:3 ~backoff:0.2 ~jitter:0.5 ~timeout:0.5 ()
         in
         Staged.stage (fun () ->
             let gave_up = ref false in
             ignore
               (Octo_sim.Rpc.call rpc ~src:0 ~dst:1 ~policy
                  ~send:(fun _ -> ())
                  ~on_give_up:(fun () -> gave_up := true)
                  (fun (_ : unit) -> ()));
             Octo_sim.Engine.run engine
               ~until:(Octo_sim.Engine.now engine +. 10.0);
             assert !gave_up));
      (* Fault layer: with no plan installed the Net send path must cost
         the same as before the layer existed (the hook is a single
         option check). A batch of sends drained through a hookless net;
         compare against the PR4 baseline to bound the overhead. *)
      Test.make ~name:"fault/overhead"
        (let engine = Octo_sim.Engine.create ~seed:10 () in
         let lat = Octo_sim.Latency.create (Octo_sim.Rng.create ~seed:11) ~n:8 in
         let net = Octo_sim.Net.create engine lat in
         let () = for a = 0 to 7 do Octo_sim.Net.register net a (fun _ -> ()) done in
         Staged.stage (fun () ->
             for i = 0 to 63 do
               Octo_sim.Net.send net ~src:(i mod 8) ~dst:((i + 3) mod 8) ~size:36 ()
             done;
             Octo_sim.Engine.run engine ~until:(Octo_sim.Engine.now engine +. 5.0)));
      (* Open-loop load harness: the Zipf sampler drawn per query. *)
      Test.make ~name:"load/zipf-sample"
        (let zipf = Octo_experiments.Workload.Zipf.create ~n:512 () in
         let zrng = Octo_sim.Rng.create ~seed:12 in
         Staged.stage (fun () ->
             ignore (Octo_experiments.Workload.Zipf.sample zipf zrng)));
      (* Open-loop load harness: one latency sample into the bounded
         quantile sketch — must stay allocation-free (the unit suite
         asserts zero minor words; this kernel tracks the cycle cost). *)
      Test.make ~name:"load/sketch-record"
        (let sketch = Octo_sim.Metrics.Sketch.create () in
         let srng = Octo_sim.Rng.create ~seed:13 in
         Staged.stage (fun () ->
             Octo_sim.Metrics.Sketch.record sketch (Octo_sim.Rng.unit_float srng)));
      (* Open-loop load harness: a miniature end-to-end run — world
         bootstrap, 64 Poisson arrivals, sketch percentiles, invariant
         teardown. Tracks the whole-engine cost per run, not per query. *)
      Test.make ~name:"load/open-loop"
        (Staged.stage (fun () ->
             let r =
               Octo_experiments.Workload.run ~n:16 ~queries:64
                 ~regime:Octo_experiments.Workload.Steady ()
             in
             assert (r.Octo_experiments.Workload.completed > 0)));
      (* Sybil admission defense: the CA's certificate-request judge on
         its steady-state path — token-bucket limiter armed vs. open
         admission. Requests name an already-taken identifier so the
         world's id table stays bounded across iterations; the refusal
         path is exactly what a flooding attacker saturates. *)
      Test.make ~name:"attack/sybil-admission"
        (let engine = Octo_sim.Engine.create ~seed:14 () in
         let lat =
           Octo_sim.Latency.create (Octo_sim.Rng.split (Octo_sim.Engine.rng engine)) ~n:33
         in
         let cfg = { Octopus.Config.default with Octopus.Config.ca_admission = true } in
         let w = Octopus.World.create ~cfg engine lat ~n:32 in
         let ca = Octopus.Ca.create w in
         let taken = (Octopus.World.node w 0).Octopus.World.peer.Octo_chord.Peer.id in
         Staged.stage (fun () ->
             ignore (Octopus.Ca.request_admission ca ~source:1 ~requested_id:taken)));
      Test.make ~name:"attack/sybil-admission-open"
        (let engine = Octo_sim.Engine.create ~seed:15 () in
         let lat =
           Octo_sim.Latency.create (Octo_sim.Rng.split (Octo_sim.Engine.rng engine)) ~n:33
         in
         let w = Octopus.World.create engine lat ~n:32 in
         let ca = Octopus.Ca.create w in
         let taken = (Octopus.World.node w 0).Octopus.World.peer.Octo_chord.Peer.id in
         Staged.stage (fun () ->
             ignore (Octopus.Ca.request_admission ca ~source:1 ~requested_id:taken)));
      (* Crypto substrate reference point. *)
      Test.make ~name:"substrate/sha256-1KiB"
        (let buf = Bytes.create 1024 in
         Staged.stage (fun () -> ignore (Octo_crypto.Sha256.digest_bytes buf)));
      (* Exactly one compression: a block-aligned 64-byte update on a
         context that is never finalized. *)
      Test.make ~name:"substrate/sha256-block"
        (let ctx = Octo_crypto.Sha256.init () in
         let block = Bytes.make 64 'b' in
         Staged.stage (fun () -> Octo_crypto.Sha256.update ctx block));
      (* A certificate check that hits the authority's verified-tag memo:
         revocation and validity-window checks plus the field match. *)
      Test.make ~name:"substrate/cert-verify"
        (let registry = Octo_crypto.Keys.create_registry () in
         let crng = Octo_sim.Rng.create ~seed:16 in
         let auth = Octo_crypto.Cert.create_authority registry crng in
         let kp = Octo_crypto.Keys.generate registry crng in
         let cert =
           Octo_crypto.Cert.issue auth ~node_id:42 ~addr:7 ~public:kp.Octo_crypto.Keys.public
             ~now:0.0 ~expires:1e9
         in
         assert (Octo_crypto.Cert.verify auth ~now:1.0 cert);
         Staged.stage (fun () -> assert (Octo_crypto.Cert.verify auth ~now:2.0 cert)));
      Test.make ~name:"substrate/onion-wrap-peel-4"
        (let keys = List.init 4 (fun i -> Bytes.make 16 (Char.chr (65 + i))) in
         let payload = Bytes.create 32 in
         Staged.stage (fun () ->
             let w = Octo_crypto.Onion.wrap ~rng:Fixtures.rng ~keys payload in
             assert (Octo_crypto.Onion.peel_all ~keys w <> None)));
    ]

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_*.json (see EXPERIMENTS.md,
   "Benchmarking"). The schema is flat on purpose so future PRs can diff
   perf trajectories without a JSON library. *)

module Bench_compare = Octo_experiments.Bench_compare

type row = Bench_compare.row = {
  ns_per_op : float;
  minor_words_per_op : float;
  major_words_per_op : float;
  peak_heap_mb : float;
  bytes_per_node : float;
}

let estimate_of results name =
  match Hashtbl.find_opt results name with
  | None -> Float.nan
  | Some ols -> (
    match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> Float.nan)

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.3f" f

(* octopus-bench/v2: v1 plus major_words_per_op on every kernel and
   peak_heap_mb / bytes_per_node where measured (scale kernels). Fields
   that were not measured are omitted; Bench_compare parses them as NaN
   either way. *)
let write_json path rows =
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"octopus-bench/v2\",\n  \"kernels\": {\n";
  List.iteri
    (fun i (name, r) ->
      let opt field v = if Float.is_nan v then "" else Printf.sprintf ", \"%s\": %s" field (json_float v) in
      Printf.fprintf oc
        "    \"%s\": { \"ns_per_op\": %s, \"minor_words_per_op\": %s, \"major_words_per_op\": %s%s%s }%s\n"
        (Octo_sim.Trace.json_escape name) (json_float r.ns_per_op)
        (json_float r.minor_words_per_op)
        (json_float r.major_words_per_op)
        (opt "peak_heap_mb" r.peak_heap_mb)
        (opt "bytes_per_node" r.bytes_per_node)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d kernels)\n" path (List.length rows)

let print_comparison ~baseline_path baseline rows =
  Printf.printf "\n== Comparison against %s ==\n" baseline_path;
  Printf.printf "  %-36s %12s %12s %9s\n" "kernel" "base ns/op" "now ns/op" "speedup";
  List.iter
    (fun (name, now) ->
      match List.assoc_opt name baseline with
      | None -> Printf.printf "  %-36s %12s %12.0f %9s\n" name "-" now.ns_per_op "new"
      | Some base ->
        let speedup = base.ns_per_op /. now.ns_per_op in
        Printf.printf "  %-36s %12.0f %12.0f %8.2fx\n" name base.ns_per_op now.ns_per_op
          speedup)
    rows;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name rows) then Printf.printf "  %-36s (kernel removed)\n" name)
    baseline

(* With --fail-above, a regression past the threshold turns into a
   non-zero exit so CI can gate on it; the pairing/threshold policy lives
   in Octo_experiments.Bench_compare where it is unit-tested. Memory
   metrics (v2 baselines) gate through the same threshold: growing a
   kernel's major words, peak heap or bytes/node past the percentage
   fails exactly like slowing it down. *)
let gate_regressions ~fail_above ~baseline rows =
  match fail_above with
  | None -> ()
  | Some pct ->
    let ds = Bench_compare.deltas ~baseline ~current:rows in
    let over = Bench_compare.regressions ~fail_above:pct ds in
    List.iter
      (fun d ->
        Printf.printf "  REGRESSION %-36s %+.1f%% (%.0f -> %.0f ns/op, threshold %.1f%%)\n"
          d.Bench_compare.kernel d.Bench_compare.pct d.Bench_compare.base_ns
          d.Bench_compare.now_ns pct)
      over;
    let mds = Bench_compare.mem_deltas ~baseline ~current:rows in
    let mem_over = Bench_compare.mem_regressions ~fail_above:pct mds in
    List.iter
      (fun d ->
        Printf.printf "  MEMORY REGRESSION %-28s %s %+.1f%% (%.1f -> %.1f, threshold %.1f%%)\n"
          d.Bench_compare.m_kernel d.Bench_compare.m_metric d.Bench_compare.m_pct
          d.Bench_compare.m_base d.Bench_compare.m_now pct)
      mem_over;
    if over <> [] || mem_over <> [] then begin
      Printf.eprintf "bench: %d kernel metric(s) regressed more than %.1f%%\n"
        (List.length over + List.length mem_over)
        pct;
      exit 3
    end
    else begin
      let only_base, only_now = Bench_compare.unpaired ~baseline ~current:rows in
      let unpaired_note =
        if only_base = [] && only_now = [] then ""
        else
          Printf.sprintf " (%d baseline-only, %d new kernel(s) not gated)"
            (List.length only_base) (List.length only_now)
      in
      Printf.printf "  all %d paired kernels (%d memory metrics) within %.1f%% of baseline%s\n"
        (List.length ds) (List.length mds) pct unpaired_note
    end

(* Population-scale memory kernel: build a full (pool-less, lazy-table)
   world at [n] nodes and measure what it costs to hold it — live words
   per node after a compaction, major words allocated by the build, and
   the process peak heap. Timed coarsely (one build); the interesting
   figures are the memory ones, which is why ns_per_op stays NaN and the
   row never enters the ns/op gate. *)
let scale_rows () =
  let n = 10_000 in
  Gc.compact ();
  let before = Gc.stat () in
  let engine = Octo_sim.Engine.create ~seed:21 () in
  let latency =
    Octo_sim.Latency.create (Octo_sim.Rng.split (Octo_sim.Engine.rng engine)) ~n:(n + 1)
  in
  let w = Octopus.World.create ~pools:false engine latency ~n in
  Gc.compact ();
  let after = Gc.stat () in
  let live_delta = float_of_int (after.Gc.live_words - before.Gc.live_words) in
  let row =
    {
      ns_per_op = Float.nan;
      minor_words_per_op = Float.nan;
      major_words_per_op = (after.Gc.major_words -. before.Gc.major_words) /. float_of_int n;
      peak_heap_mb = float_of_int after.Gc.top_heap_words *. 8.0 /. (1024.0 *. 1024.0);
      bytes_per_node = live_delta *. 8.0 /. float_of_int n;
    }
  in
  ignore (Sys.opaque_identity (Octopus.World.node w 0));
  [ ("scale/world-10k", row) ]

let run_bechamel ~json_out ~compare_with ~fail_above () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock; minor_allocated; major_allocated ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances kernels in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols Instance.minor_allocated raw in
  let majors = Analyze.all ols Instance.major_allocated raw in
  print_endline "== Micro-benchmarks (one kernel per paper artifact) ==";
  let rows = ref [] in
  Hashtbl.iter
    (fun name _ ->
      let row =
        {
          ns_per_op = estimate_of times name;
          minor_words_per_op = estimate_of allocs name;
          major_words_per_op = estimate_of majors name;
          peak_heap_mb = Float.nan;
          bytes_per_node = Float.nan;
        }
      in
      rows := (name, row) :: !rows)
    times;
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  let rows = rows @ scale_rows () in
  List.iter
    (fun (name, r) ->
      let ns = r.ns_per_op and words = r.minor_words_per_op in
      let alloc = if Float.is_nan words then "" else Printf.sprintf "  %10.0f w/run" words in
      if not (Float.is_nan r.bytes_per_node) then
        Printf.printf "  %-36s %8.0f B/node  %8.2f MB peak heap\n" name r.bytes_per_node
          r.peak_heap_mb
      else if Float.is_nan ns then Printf.printf "  %-36s (no estimate)\n" name
      else if ns > 1e6 then Printf.printf "  %-36s %8.2f ms/run%s\n" name (ns /. 1e6) alloc
      else if ns > 1e3 then Printf.printf "  %-36s %8.2f us/run%s\n" name (ns /. 1e3) alloc
      else Printf.printf "  %-36s %8.0f ns/run%s\n" name ns alloc)
    rows;
  print_newline ();
  Option.iter (fun path -> write_json path rows) json_out;
  Option.iter
    (fun path ->
      let baseline = Bench_compare.read_file path in
      print_comparison ~baseline_path:path baseline rows;
      gate_regressions ~fail_above ~baseline rows)
    compare_with

(* ------------------------------------------------------------------ *)
(* Part 2: reduced-scale reproduction of every table and figure *)

let reproduce () =
  let open Octo_experiments in
  print_endline "== Reproduction harness (reduced scale; octopus-repro runs full scale) ==\n";

  print_endline "-- Table 1: end-to-end timing analysis (paper: error 99.35-99.95%) --";
  print_string (Report.table1 (Anonymity_exp.table1 ~trials:800 ~seed:11 ()));

  print_endline "\n-- Figure 3(a): lookup bias attack (paper: all attackers caught in ~20 min) --";
  let bias100 = Security.fig3a ~n:250 ~duration:400.0 ~rate:1.0 () in
  print_string (Report.security_run ~label:"attack rate 100%" bias100);
  let bias50 = Security.fig3a ~n:250 ~duration:400.0 ~seed:43 ~rate:0.5 () in
  print_string (Report.security_run ~label:"attack rate 50%" bias50);

  print_endline "\n-- Figure 3(b): biased lookups flatten once attackers are ejected --";
  print_string (Report.fig3b bias100);

  print_endline "\n-- Figure 3(c): fingertable manipulation attack --";
  print_string
    (Report.security_run ~label:"attack rate 100%"
       (Security.fig3c ~n:250 ~duration:400.0 ~rate:1.0 ()));

  print_endline "\n-- Figure 4: fingertable pollution attack --";
  print_string
    (Report.security_run ~label:"attack rate 100%"
       (Security.fig4 ~n:250 ~duration:400.0 ~rate:1.0 ()));

  print_endline "\n-- Figure 7(b): CA workload peaks early then decays (paper: ~2 msg/s peak) --";
  print_string (Report.fig7b bias100);

  print_endline "\n-- Figure 9: selective DoS attack (Appendix II) --";
  print_string
    (Report.security_run ~label:"attack rate 100%"
       (Security.fig9 ~n:250 ~duration:400.0 ~rate:1.0 ()));

  print_endline "\n-- Table 2: identification accuracy under churn --";
  print_string (Report.table2 (Security.table2 ~n:250 ~duration:350.0 ()));

  print_endline "\n-- Figure 5(a): H(I) of Octopus (paper: 0.57 bits leaked at f=0.2) --";
  print_string (Report.fig_curves (Anonymity_exp.fig5a ~n:30_000 ~trials:150 ()));

  print_endline "\n-- Figure 5(b): H(I) comparison (paper: NISAN/Torsk ~6x worse) --";
  print_string (Report.fig_curves (Anonymity_exp.fig5b ~n:30_000 ~trials:150 ()));

  print_endline "\n-- Figure 5(c): H(T) of Octopus (paper: 0.82 bits leaked at f=0.2) --";
  print_string (Report.fig_curves (Anonymity_exp.fig5c ~n:30_000 ~trials:150 ()));

  print_endline "\n-- Figure 6: H(T) comparison (paper: NISAN leaks 11.3, Torsk 3.4 bits) --";
  print_string (Report.fig_curves (Anonymity_exp.fig6 ~n:30_000 ~trials:150 ()));

  print_endline "\n-- Table 3 + Figure 7(a): lookup latency and bandwidth --";
  let octopus = Efficiency.octopus_latency ~lookups:250 () in
  let chord = Efficiency.chord_latency ~lookups:250 () in
  let halo = Efficiency.halo_latency ~lookups:250 () in
  print_string (Report.table3 ~octopus ~chord ~halo ~bandwidth:(Efficiency.bandwidth_table ()));
  print_endline "\n-- Figure 7(a): latency CDFs --";
  print_string (Report.fig7a ~octopus ~chord ~halo)

let () =
  let skip_micro = Array.exists (fun a -> a = "--no-micro") Sys.argv in
  let skip_repro = Array.exists (fun a -> a = "--micro-only") Sys.argv in
  let flag_value name =
    let rec find i =
      if i >= Array.length Sys.argv - 1 then None
      else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let json_out = flag_value "--json" in
  let compare_with = flag_value "--compare" in
  let fail_above =
    match flag_value "--fail-above" with
    | None -> None
    | Some v -> (
      match float_of_string_opt v with
      | Some pct when pct >= 0.0 -> Some pct
      | _ ->
        Printf.eprintf "bench: --fail-above expects a non-negative percentage, got %S\n" v;
        exit 2)
  in
  if fail_above <> None && compare_with = None then begin
    Printf.eprintf "bench: --fail-above requires --compare <baseline.json>\n";
    exit 2
  end;
  if not skip_micro then run_bechamel ~json_out ~compare_with ~fail_above ();
  if not skip_repro then reproduce ()
