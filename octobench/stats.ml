(* Summaries of repeated measurements, the metric table, and the rule
   that compares two sets of runs. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum xs = List.fold_left Float.min Float.infinity xs
let maximum xs = List.fold_left Float.max Float.neg_infinity xs

(* First and third quartiles exactly as Python's
   [statistics.quantiles xs ~n:4] (the default "exclusive" method). With
   one value both are that value. *)
let quartiles xs =
  match sorted xs with
  | [] -> (Float.nan, Float.nan)
  | [ x ] -> (x, x)
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* ------------------------------------------------------------------ *)
(* Metrics *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** share of the base median it may worsen by *)
}

let m name unit_ better bound = { name; unit_; better; bound }

(* The end-to-end metrics, every workload reports each of them; the
   bounds are those of BENCHMARK.json. *)
let end_to_end =
  [
    m "setup_s" "s" Lower 0.25;
    m "run_s" "s" Lower 0.25;
    m "peak_heap_mb" "MB" Lower 0.15;
    m "bytes_per_node" "B" Lower 0.05;
    m "lookup_success" "fraction" Higher 0.2;
    m "lookup_p50_s" "sim_s" Lower 0.25;
    m "bw_node_Bps" "B/s" Lower 0.12;
  ]

(* The per-layer metrics --trace 1 reports, every workload each of
   them, with no bound. They are those an optimisation is likely to
   move. The gap times of the walk, ca, surv and other layers read 0 on
   every run of some workload, and the attack and failure counts are
   outcomes rather than cost, so those stay in the report and the --json
   file only. *)
let per_layer =
  let l name unit_ = m name unit_ Lower 0.0 and h name unit_ = m name unit_ Higher 0.0 in
  [
    l "engine.gap_s" "s";
    l "net.gap_s" "s";
    l "rpc.gap_s" "s";
    l "query.gap_s" "s";
    l "lookup.gap_s" "s";
    l "invariant.s" "s";
    h "attributed_frac" "fraction";
    l "trace.overhead_s" "s";
    l "gc.pause_s" "s";
    l "gc.pause_max_ms" "ms";
    l "lookup.issue_us" "us";
    l "engine.events" "count";
    h "engine.events_per_s" "1/s";
    l "engine.sched" "count";
    l "net.sent" "count";
    l "net.delivered" "count";
    l "net.bytes" "B";
    l "rpc.queued" "count";
    l "rpc.resolved" "count";
    h "rpc.resolve_ratio" "fraction";
    h "vcache.entries" "count";
    l "lookup.hops_per_done" "count";
    l "query.real" "count";
    l "walk.steps" "count";
    l "gc.minor_words" "words";
    l "gc.major_words" "words";
    l "gc.minor_collections" "count";
    l "gc.major_collections" "count";
    l "crypto.sha256_1k_ns" "ns";
    l "crypto.onion4_ns" "ns";
    l "crypto.sign_verify_table_ns" "ns";
    l "crypto.sign_verify_list_ns" "ns";
    l "crypto.receipt_ns" "ns";
    l "sim.rpc_call_resolve_ns" "ns";
    l "sim.net_send64_ns" "ns";
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"

(* ------------------------------------------------------------------ *)
(* Comparing two sets of runs *)

type verdict = Within | Improved | Regressed | Unresolved

let verdict_name = function
  | Within -> "within"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

(* A side of a comparison: the value reported and the runs behind it. *)
type side = { value : float; runs : float list }

(* Signed relative change, positive when [now] is worse. *)
let worsening metric ~base ~now =
  let d = if base.value = 0.0 then 0.0 else (now.value -. base.value) /. Float.abs base.value in
  match metric.better with Lower -> d | Higher -> -.d

(* A metric regressed when its value worsened by more than the bound.
   Otherwise, when either side's runs spread wider than the bound, a
   change cannot be told from noise: unresolved, unless every new run
   reads better than every base run. Improved needs the same. *)
let judge metric ~base ~now =
  let all_better =
    match metric.better with
    | Lower -> maximum now.runs < minimum base.runs
    | Higher -> minimum now.runs > maximum base.runs
  in
  if worsening metric ~base ~now > metric.bound then Regressed
  else if all_better then Improved
  else if spread base.runs > metric.bound || spread now.runs > metric.bound then Unresolved
  else Within
