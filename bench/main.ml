(* Benchmark harness: Bechamel micro-benchmarks, one Test.make per paper
   artifact, timing the kernel computation that drives it, plus the
   scale/world-10k memory row. The paper's tables and figures themselves
   come from `octopus-repro` (`bin/main.exe all` at reduced scale). *)

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
         routing table. The clock never advances, so every iteration signs
         the same bytes; verification is not cached, so each one checks
         the signature in full, as a live receipt does. *)
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
      (* Fig 7b: CA-side report verification (wire digest + signature),
         in full on every iteration like table2/sign-verify-table. *)
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
         now rides on. The engine then runs past the timeout, so the heap
         entry the disarmed timeout leaves behind pops as it does in a live
         run instead of piling up in the event heap. *)
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
             assert (Octo_sim.Rpc.resolve rpc (Octo_sim.Rpc.rid tok) ());
             Octo_sim.Engine.run engine ~until:(Octo_sim.Engine.now engine +. 2.0)));
      (* Rpc substrate: a call that times out and gives up. *)
      Test.make ~name:"rpc/timeout-giveup"
        (let engine = Octo_sim.Engine.create ~seed:8 () in
         let rpc =
           Octo_sim.Rpc.create engine ~rng:(Octo_sim.Rng.create ~seed:9) ()
         in
         let policy = Octo_sim.Rpc.policy ~timeout:0.5 () in
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
      (* One signed-list digest from scratch: a signed 6-peer successor
         list with its memo cleared on every run, so each run renders and
         hashes the five digest parts. *)
      Test.make ~name:"substrate/list-digest"
        (let _, w = Lazy.force world in
         let sl = Octopus.World.honest_list w (Octopus.World.node w 5) Octopus.Types.Succ_list in
         assert (List.length sl.Octopus.Types.l_peers = 6);
         Staged.stage (fun () ->
             sl.Octopus.Types.l_memo <- None;
             ignore (Octopus.Types.list_digest sl)));
      (* The simulator's most frequent draw. *)
      Test.make ~name:"sim/rng-int"
        (let r = Rng.create ~seed:17 in
         Staged.stage (fun () -> ignore (Rng.int r 1000)));
      (* One onion layer's keystream, 64 bytes, under a fresh nonce per
         call: four AES blocks and a key expansion. *)
      Test.make ~name:"substrate/aes-ctr-64"
        (let key = Bytes.make 16 'k' and buf = Bytes.make 80 'b' and calls = ref 0 in
         Staged.stage (fun () ->
             incr calls;
             Bytes.set_int64_le buf 8 (Int64.of_int !calls);
             Octo_crypto.Cipher.xor_in_place ~key ~nonce_src:buf ~nonce_off:0 buf ~off:16
               ~len:64));
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
  (* The world goes first, while the heap holds nothing else: its
     [peak_heap_mb] is the process high-water mark, which the kernels
     would otherwise set. *)
  let scale = scale_rows () in
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
  let rows = rows @ scale in
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

let usage = "usage: bench/main.exe [--json FILE] [--compare BASELINE.json [--fail-above PCT]]"

let () =
  let usage_error fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "bench: %s\n%s\n" msg usage;
        exit 2)
      fmt
  in
  (* One pass over argv: every argument is a known flag or its value, so a
     stale or misspelt flag stops the run before any kernel starts. *)
  let rec parse ~json_out ~compare_with ~fail_above = function
    | [] -> (json_out, compare_with, fail_above)
    | "--json" :: path :: rest -> parse ~json_out:(Some path) ~compare_with ~fail_above rest
    | "--compare" :: path :: rest -> parse ~json_out ~compare_with:(Some path) ~fail_above rest
    | "--fail-above" :: v :: rest -> (
      match float_of_string_opt v with
      | Some pct when pct >= 0.0 -> parse ~json_out ~compare_with ~fail_above:(Some pct) rest
      | _ -> usage_error "--fail-above expects a non-negative percentage, got %S" v)
    | [ ("--json" | "--compare" | "--fail-above") as flag ] -> usage_error "%s needs a value" flag
    | arg :: _ -> usage_error "unknown argument %S" arg
  in
  let json_out, compare_with, fail_above =
    parse ~json_out:None ~compare_with:None ~fail_above:None
      (List.tl (Array.to_list Sys.argv))
  in
  if fail_above <> None && compare_with = None then
    usage_error "--fail-above requires --compare <baseline.json>";
  run_bechamel ~json_out ~compare_with ~fail_above ()
