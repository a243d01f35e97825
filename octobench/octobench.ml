(* octobench: the end-to-end benchmark.

     octobench.exe --workload NAME --seed N --seconds S --trace 0|1 [--json FILE]
     octobench.exe --compare BASE.json NEW.json

   NAME is one of the workloads in drive.ml, or "all" (the default),
   which interleaves their repetitions round-robin. Each repetition runs
   in a fresh child process (this program, re-executed with --child), so
   peak heap is per run and no process-global memo carries warm state
   from one repetition into the next. The run repeats for about S
   seconds per workload and reports the median of each metric over the
   repetitions, except run_s (see [sliced_run_s]).

   --trace 0 reports the end-to-end metrics. --trace 1 alternates
   untraced and traced repetitions and reports the per-layer metrics;
   the traced child installs a trace sink with the invariant checker
   and the probe (probe.ml), and reads GC pauses from Runtime_events.

   Every repetition checks its outputs (the gates below) and that its
   deterministic outputs equal the first repetition's. The last line of
   standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}, where a repetition is
   the operation attempted. The exit code is 0 when every gate held. *)

module Engine = Octo_sim.Engine
module Net = Octo_sim.Net
module Rpc = Octo_sim.Rpc
module Dist = Octo_sim.Metrics.Dist
module Trace = Octo_sim.Trace
module World = Octopus.World
module Invariant = Octopus.Invariant
module Scenario = Octo_experiments.Scenario
module Drive = Obench.Drive
module Probe = Obench.Probe
module Stats = Obench.Stats
module Json = Obench.Json

let now_ns = Monotonic_clock.now
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* ------------------------------------------------------------------ *)
(* GC pauses, from the runtime's own event ring *)

module Pauses = struct
  type t = { mutable depth : int; mutable began : int64; mutable total_ns : int64; mutable max_ns : int64 }

  (* Runtime phases nest; time inside the outermost one is a pause.
     Returns the totals and the function that reads new events into
     them; only events after [start] count. *)
  let start () =
    let t = { depth = 0; began = 0L; total_ns = 0L; max_ns = 0L } in
    let ns = Runtime_events.Timestamp.to_int64 in
    let callbacks =
      Runtime_events.Callbacks.create
        ~runtime_begin:(fun _ at _ ->
          if t.depth = 0 then t.began <- ns at;
          t.depth <- t.depth + 1)
        ~runtime_end:(fun _ at _ ->
          if t.depth > 0 then begin
            t.depth <- t.depth - 1;
            if t.depth = 0 then begin
              let d = Int64.sub (ns at) t.began in
              t.total_ns <- Int64.add t.total_ns d;
              if d > t.max_ns then t.max_ns <- d
            end
          end)
        ()
    in
    Runtime_events.start ();
    let cursor = Runtime_events.create_cursor None in
    let poll () = ignore (Runtime_events.read_poll cursor callbacks None) in
    poll ();
    t.total_ns <- 0L;
    t.max_ns <- 0L;
    (t, poll)
end

(* ------------------------------------------------------------------ *)
(* Child: one repetition *)

(* Deterministic outputs: every repetition of a seed must reproduce
   them exactly, traced or not. *)
let det_outputs (wl : Drive.t) (w : World.t) (o : Drive.lookups) ~duration =
  let net = w.World.net in
  let bytes = ref 0 in
  for addr = 0 to wl.Drive.n - 1 do
    bytes := !bytes + Net.tx_bytes net addr + Net.rx_bytes net addr
  done;
  let snap = World.metrics_snapshot w in
  let f = float_of_int in
  [
    ("lookup_success", if o.Drive.issued = 0 then 0.0 else f o.Drive.converged /. f o.Drive.issued);
    ("lookup_p50_s", Dist.percentile o.Drive.latency 0.5);
    ("lookup_p99_s", Dist.percentile o.Drive.latency 0.99);
    ("bw_node_Bps", f !bytes /. f wl.Drive.n /. duration);
    ("lookups.issued", f o.Drive.issued);
    ("lookups.completed", f o.Drive.completed);
    ("lookups.converged", f o.Drive.converged);
    ("lookups.wrong_owner", f o.Drive.wrong);
    ("engine.events", f (Engine.events_processed (World.engine w)));
    ("net.sent", f (Net.messages_sent net));
    ("net.delivered", f (Net.messages_delivered net));
    ("net.bytes", f !bytes);
    ("rpc.queued", f (Rpc.queued_ever w.World.rpc));
    ("vcache.entries", f (Hashtbl.length w.World.verify_cache));
    ("ca.reports_judged", f snap.World.ms_reports);
    ("ca.convicted_honest", f snap.World.ms_convicted_honest);
    ("mal_frac_end", World.malicious_fraction w);
  ]

let gates (wl : Drive.t) det =
  let v name = List.assoc name det in
  let fail = ref [] in
  let check ok msg = if not ok then fail := msg :: !fail in
  check (v "lookups.issued" > 0.0) "no lookup was issued";
  check
    (v "lookup_success" >= wl.Drive.success_floor)
    (Printf.sprintf "lookup_success %.4f below the floor %.2f" (v "lookup_success")
       wl.Drive.success_floor);
  check
    (v "lookups.completed" = v "lookups.issued")
    (Printf.sprintf "%.0f of %.0f lookups never completed"
       (v "lookups.issued" -. v "lookups.completed")
       (v "lookups.issued"));
  if wl.Drive.exact_owner then
    check (v "lookups.wrong_owner" = 0.0)
      (Printf.sprintf "%.0f lookups named a wrong owner" (v "lookups.wrong_owner"));
  if wl.Drive.attack then begin
    check (v "mal_frac_end" <= 0.01)
      (Printf.sprintf "%.3f of the nodes are still active attackers" (v "mal_frac_end"));
    check (v "ca.convicted_honest" = 0.0)
      (Printf.sprintf "%.0f honest nodes convicted" (v "ca.convicted_honest"))
  end;
  List.rev !fail

let extra_builds = 4

let child (wl : Drive.t) ~seed ~traced =
  let probe = Probe.create () in
  let checker = ref None in
  let issue_ns = Dist.create () in
  let trace = if traced then Some (Trace.create ~capacity:1 ()) else None in
  let on_init w =
    Option.iter
      (fun trace ->
        let c = Invariant.create ?grace:wl.Drive.grace w in
        Invariant.attach c trace;
        Trace.subscribe trace (Probe.before probe);
        (* The scenario arms its attack before [on_init]; announce the
           campaign again so the checker excuses lookups it poisons. *)
        if w.World.attack.World.kind <> World.No_attack then World.set_attack w w.World.attack;
        checker := Some c)
      trace
  in
  let around f =
    if traced then begin
      let t0 = now_ns () in
      f ();
      Dist.add issue_ns (Int64.to_float (Int64.sub (now_ns ()) t0))
    end
    else f ()
  in
  let spec, duration, out =
    Drive.prepare ~on_init ~around wl ~deploy_seed:Drive.deploy_seed ~seed
  in
  Option.iter
    (fun trace ->
      Trace.install trace;
      Trace.subscribe trace (Probe.after probe))
    trace;
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let t0 = now_ns () in
  let sc = Scenario.build spec in
  let setup_s = seconds_since t0 in
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let w = Scenario.world sc in
  let engine = Scenario.engine sc in
  let pauses = if traced then Some (Pauses.start ()) else None in
  if traced then Probe.start probe;
  let gc0 = Gc.quick_stat () in
  (* The run goes in slices of one simulated second, timed one by one;
     slicing runs exactly the same events as one [Engine.run]. Every
     repetition of a seed does the same work in each slice, so the
     parent can take each slice's fastest repetition. *)
  let slices = ref [] in
  let rec slice t =
    let t = Float.min duration (t +. 1.0) in
    let t0 = now_ns () in
    Engine.run engine ~until:t;
    slices := seconds_since t0 :: !slices;
    Option.iter (fun (_, poll) -> poll ()) pauses;
    if t < duration then slice t
  in
  slice (Engine.now engine);
  let slices = List.rev !slices in
  let run_s = List.fold_left ( +. ) 0.0 slices in
  let gc1 = Gc.quick_stat () in
  let det = det_outputs wl w (out ()) ~duration in
  let violations =
    match !checker with
    | None -> []
    | Some c ->
      if not wl.Drive.churn then Invariant.check_convergence c;
      Invariant.finish c;
      List.map (fun v -> "invariant: " ^ v.Invariant.what) (Invariant.violations c)
  in
  Trace.uninstall ();
  let f = float_of_int in
  let peak_heap_mb = f (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0 in
  (* A build takes milliseconds, so one is at the mercy of the host:
     build the same deployment again, without the lookup stream's hooks,
     and report the median. These builds come after the run and its
     outputs, so they change nothing the run measured. *)
  let setups =
    if traced then [ setup_s ]
    else
      setup_s
      :: List.init extra_builds (fun _ ->
             Gc.compact ();
             let t0 = now_ns () in
             ignore (Scenario.build (wl.Drive.base ~n:wl.Drive.n ~seed:Drive.deploy_seed ~duration));
             seconds_since t0)
  in
  let layers =
    match pauses with
    | None ->
      [
        ("gc.minor_words", gc1.Gc.minor_words -. gc0.Gc.minor_words);
        ("gc.major_words", gc1.Gc.major_words -. gc0.Gc.major_words);
        ("gc.minor_collections", f (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        ("gc.major_collections", f (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ]
    | Some (p, _) ->
      Probe.metrics probe ~run_s
      @ [
          ("lookup.issue_us", Dist.median issue_ns *. 1e-3);
          ("gc.pause_s", Int64.to_float p.Pauses.total_ns *. 1e-9);
          ("gc.pause_max_ms", Int64.to_float p.Pauses.max_ns *. 1e-6);
        ]
  in
  let obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("measured",
              obj
                [
                  ("setup_s", Stats.median setups);
                  ("run_s", run_s);
                  ("peak_heap_mb", peak_heap_mb);
                  ("bytes_per_node", f (live1 - live0) *. 8.0 /. f wl.Drive.n);
                ]);
            ("slices", Json.Arr (List.map (fun s -> Json.Num s) slices));
            ("det", obj det);
            ("layers", obj layers);
            ("gates", Json.Arr (List.map (fun s -> Json.Str s) (gates wl det @ violations)));
          ]))

(* ------------------------------------------------------------------ *)
(* Per-call costs of the layers' hot paths *)

(* Median of five batches, each repeating [f] for about 40 ms. *)
let per_call_ns f =
  let batch () =
    let t0 = now_ns () in
    let calls = ref 0 in
    while Int64.sub (now_ns ()) t0 < 40_000_000L do
      f ();
      incr calls
    done;
    Int64.to_float (Int64.sub (now_ns ()) t0) /. float_of_int !calls
  in
  f ();
  Stats.median (List.init 5 (fun _ -> batch ()))

let kernels () =
  let engine = Engine.create ~seed:1 () in
  let latency = Octo_sim.Latency.create (Octo_sim.Rng.split (Engine.rng engine)) ~n:121 in
  let w = World.create engine latency ~n:120 in
  Octopus.Serve.install w;
  ignore (Octopus.Ca.create w);
  let rng = Octo_sim.Rng.create ~seed:4 in
  let buf = Bytes.create 1024 in
  let keys = List.init 4 (fun i -> Bytes.make 16 (Char.chr (65 + i))) in
  let payload = Bytes.create 32 in
  let rpc_engine = Engine.create ~seed:6 () in
  let rpc = Rpc.create rpc_engine ~rng:(Octo_sim.Rng.create ~seed:7) () in
  let policy = Rpc.policy ~timeout:1.0 () in
  let net_engine = Engine.create ~seed:10 () in
  let net = Net.create net_engine (Octo_sim.Latency.create (Octo_sim.Rng.create ~seed:11) ~n:8) in
  for a = 0 to 7 do Net.register net a (fun _ -> ()) done;
  [
    ("crypto.sha256_1k_ns", fun () -> ignore (Octo_crypto.Sha256.digest_bytes buf));
    ( "crypto.onion4_ns",
      fun () ->
        let wrapped = Octo_crypto.Onion.wrap ~rng ~keys payload in
        assert (Octo_crypto.Onion.peel_all ~keys wrapped <> None) );
    ( "crypto.sign_verify_table_ns",
      fun () -> assert (World.verify_table w (World.honest_table w (World.node w 3))) );
    ( "crypto.sign_verify_list_ns",
      fun () ->
        assert (World.verify_list w (World.honest_list w (World.node w 7) Octopus.Types.Succ_list)) );
    ( "crypto.receipt_ns",
      fun () -> assert (World.verify_receipt w (World.sign_receipt w (World.node w 9) ~cid:42)) );
    ( "sim.rpc_call_resolve_ns",
      fun () ->
        let tok =
          Rpc.call rpc ~src:0 ~dst:1 ~policy ~send:ignore ~on_give_up:ignore (fun (_ : unit) -> ())
        in
        assert (Rpc.resolve rpc (Rpc.rid tok) ()) );
    ( "sim.net_send64_ns",
      fun () ->
        for i = 0 to 63 do
          Net.send net ~src:(i mod 8) ~dst:((i + 3) mod 8) ~size:36 ()
        done;
        Engine.run net_engine ~until:(Engine.now net_engine +. 5.0) );
  ]
  |> List.map (fun (name, f) -> (name, per_call_ns f))

(* ------------------------------------------------------------------ *)
(* Parent: repetitions in child processes *)

type rep = {
  traced : bool;
  wall_s : float;  (** the whole child, process start to exit *)
  measured : (string * float) list;
  slices : float array;  (** wall seconds of each simulated second *)
  det : (string * float) list;
  layers : (string * float) list;
  gates : string list;
}

let events_dir = Filename.dirname Sys.executable_name

exception Child_failed of string

let parse_rep ~traced ~wall_s out =
  let v = Json.of_string (String.trim out) in
  let nums k = List.map (fun (n, x) -> (n, Json.to_num x)) (Json.to_obj (Json.field k v)) in
  {
    traced;
    wall_s;
    measured = nums "measured";
    slices = Array.of_list (List.map Json.to_num (Json.to_list (Json.field "slices" v)));
    det = nums "det";
    layers = nums "layers";
    gates = List.map Json.to_str (Json.to_list (Json.field "gates" v));
  }

(* A child the system killed (out of memory on a shared host, say) gets
   two more tries; one that exits with an error fails the run. *)
let rec spawn ?(tries = 3) (wl : Drive.t) ~seed ~traced =
  let args =
    [| Sys.executable_name; "--child"; wl.Drive.name; "--seed"; string_of_int seed |]
  in
  let args = if traced then Array.append args [| "--traced" |] else args in
  let env = Array.append [| "OCAML_RUNTIME_EVENTS_DIR=" ^ events_dir |] (Unix.environment ()) in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid = Unix.create_process_env Sys.executable_name args env Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let wall_s = seconds_since t0 in
  match status with
  | Unix.WEXITED 0 -> parse_rep ~traced ~wall_s out
  | Unix.WEXITED c -> raise (Child_failed (Printf.sprintf "%s child exited with %d" wl.Drive.name c))
  | Unix.WSIGNALED s when tries > 1 ->
    Printf.eprintf "octobench: %s child killed by signal %d; running it again\n%!" wl.Drive.name s;
    spawn ~tries:(tries - 1) wl ~seed ~traced
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    raise (Child_failed (Printf.sprintf "%s child killed by signal %d" wl.Drive.name s))

type result = {
  wl : Drive.t;
  mutable reps : rep list;  (** newest first *)
  mutable kernels : (string * float) list;
}

(* Gate failures of one repetition, including any deterministic output
   that differs from the first repetition's. *)
let failures r rep =
  let first = List.nth r.reps (List.length r.reps - 1) in
  let drift =
    List.filter_map
      (fun (k, v) ->
        let v0 = List.assoc k first.det in
        if Float.equal v v0 then None
        else Some (Printf.sprintf "%s %s reads %.17g, the first run read %.17g" k
                     (if rep.traced then "(traced)" else "") v v0))
      rep.det
  in
  rep.gates @ drift

let values r ~traced section name =
  List.filter_map
    (fun rep -> if rep.traced = traced then List.assoc_opt name (section rep) else None)
    r.reps

(* Repeat until each workload has had about [seconds] of wall time: a
   child starts only if the median child so far would still end in
   time. At least [min_reps] of each kind run whatever the budget. *)
let run_all wls ~seed ~seconds ~trace =
  let results = List.map (fun wl -> { wl; reps = []; kernels = [] }) wls in
  let min_reps = 3 in
  let kinds = if trace then [ false; true ] else [ false ] in
  let t0 = now_ns () in
  let kernel_reserve = if trace then 2.5 else 0.0 in
  let budget = (float_of_int (List.length wls) *. float_of_int seconds) -. kernel_reserve in
  let count r traced = List.length (List.filter (fun rep -> rep.traced = traced) r.reps) in
  let continue () =
    let walls = List.concat_map (fun r -> List.map (fun rep -> rep.wall_s) r.reps) results in
    let per_round = Stats.median walls *. float_of_int (List.length results * List.length kinds) in
    List.exists (fun r -> List.exists (fun k -> count r k < min_reps) kinds) results
    || seconds_since t0 +. per_round <= budget
  in
  while continue () do
    List.iter
      (fun traced ->
        List.iter
          (fun r -> r.reps <- spawn r.wl ~seed ~traced :: r.reps)
          results)
      kinds
  done;
  if trace then begin
    let k = kernels () in
    List.iter (fun r -> r.kernels <- k) results
  end;
  results

(* ------------------------------------------------------------------ *)
(* Reporting *)

(* Other tenants of the host slow a run in bursts and in drifts lasting
   minutes, by up to half. Every repetition of a seed does the same work
   in each simulated second, so run_s is the sum over simulated seconds
   of the fastest wall time any repetition spent on that second: a
   burst moves it only if it hit that second in every repetition. *)
let sliced_run_s ?(traced = false) r =
  let reps = List.filter (fun rep -> rep.traced = traced) r.reps in
  let n = List.fold_left (fun acc rep -> Int.min acc (Array.length rep.slices)) max_int reps in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. Stats.minimum (List.map (fun rep -> rep.slices.(i)) reps)
  done;
  !total

(* End-to-end metrics: each with its values over the untraced
   repetitions and the value reported, their median (run_s: see
   [sliced_run_s]). *)
let end_to_end r =
  List.map
    (fun (m : Stats.metric) ->
      let xs = values r ~traced:false (fun rep -> rep.measured @ rep.det) m.Stats.name in
      (m, xs, if m.Stats.name = "run_s" then sliced_run_s r else Stats.median xs))
    Stats.end_to_end

(* Per-layer values, each a median over the repetitions that measure
   it; [Stats.per_layer] names those the driver line reports. Message
   counts by kind vary with the workload, so they stay in the report
   and out of the driver line. *)
let per_layer r =
  let med traced section name = Stats.median (values r ~traced section name) in
  let traced_layers =
    match List.find_opt (fun rep -> rep.traced) r.reps with
    | None -> []
    | Some rep -> List.map fst rep.layers
  in
  let traced_run = sliced_run_s ~traced:true r in
  let untraced_run = sliced_run_s r in
  let traced_vals =
    List.map (fun name -> (name, med true (fun rep -> rep.layers) name)) traced_layers
  in
  let untraced name = (name, med false (fun rep -> rep.det @ rep.layers) name) in
  let events = med false (fun rep -> rep.det) "engine.events" in
  traced_vals
  @ [
      ("trace.overhead_s", traced_run -. untraced_run);
      untraced "engine.events";
      ("engine.events_per_s", events /. untraced_run);
      untraced "net.sent";
      untraced "net.delivered";
      untraced "net.bytes";
      untraced "rpc.queued";
      untraced "vcache.entries";
      untraced "gc.minor_words";
      untraced "gc.major_words";
      untraced "gc.minor_collections";
      untraced "gc.major_collections";
    ]
  @ r.kernels

let print_report r ~trace =
  let reps = List.rev r.reps in
  Printf.printf "\n== %s (n=%d, %d lookups, %d runs) ==\n" r.wl.Drive.name r.wl.Drive.n
    r.wl.Drive.lookups (List.length reps);
  Printf.printf "  %-22s %-9s %12s %12s %12s %12s %12s\n" "metric" "unit" "value" "min" "q1" "q3"
    "max";
  List.iter
    (fun ((m : Stats.metric), xs, value) ->
      let q1, q3 = Stats.quartiles xs in
      Printf.printf "  %-22s %-9s %12.6g %12.6g %12.6g %12.6g %12.6g\n" m.Stats.name m.Stats.unit_
        value (Stats.minimum xs) q1 q3 (Stats.maximum xs))
    (end_to_end r);
  let first = List.hd reps in
  Printf.printf "  deterministic outputs (every run):";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s%s=%.6g" (if i mod 4 = 0 then "\n    " else "  ") k v)
    first.det;
  print_newline ();
  if trace then begin
    Printf.printf "  per-layer:";
    List.iteri
      (fun i (k, v) -> Printf.printf "%s%s=%.6g" (if i mod 3 = 0 then "\n    " else "  ") k v)
      (per_layer r);
    print_newline ()
  end;
  List.iter
    (fun rep ->
      List.iter
        (fun msg ->
          Printf.printf "  GATE FAILED: %s\n" msg;
          Printf.eprintf "octobench: %s: gate failed: %s\n%!" r.wl.Drive.name msg)
        (failures r rep))
    reps

let report_json results ~seed ~seconds ~trace =
  let num x = Json.Num x in
  Json.Obj
    [
      ("schema", Json.Str "octobench/v1");
      ("seed", num (float_of_int seed));
      ("seconds", num (float_of_int seconds));
      ("trace", Json.Bool trace);
      ( "workloads",
        Json.Obj
          (List.map
             (fun r ->
               let reps = List.rev r.reps in
               ( r.wl.Drive.name,
                 Json.Obj
                   [
                     ("runs", num (float_of_int (List.length reps)));
                     ( "failures",
                       Json.Arr (List.concat_map (fun rep -> List.map (fun s -> Json.Str s) (failures r rep)) reps) );
                     ( "metrics",
                       Json.Obj
                         (List.map
                            (fun ((m : Stats.metric), xs, value) ->
                              ( m.Stats.name,
                                Json.Obj
                                  [
                                    ("unit", Json.Str m.Stats.unit_);
                                    ("value", num value);
                                    ("values", Json.Arr (List.map num xs));
                                  ] ))
                            (end_to_end r)) );
                     ("counts", Json.Obj (List.map (fun (k, v) -> (k, num v)) (List.hd reps).det));
                     ( "layers",
                       if trace then Json.Obj (List.map (fun (k, v) -> (k, num v)) (per_layer r))
                       else Json.Obj [] );
                   ] ))
             results) );
    ]

(* The driver line: the reported end-to-end values, or with --trace 1
   the per-layer ones. With several workloads each name is prefixed by
   its workload. *)
let driver_line results ~trace =
  let prefix r name = if List.length results = 1 then name else r.wl.Drive.name ^ "/" ^ name in
  let metric name unit_ v = (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]) in
  let metrics =
    List.concat_map
      (fun r ->
        if trace then
          let values = per_layer r in
          List.map
            (fun (m : Stats.metric) ->
              metric (prefix r m.Stats.name) m.Stats.unit_ (List.assoc m.Stats.name values))
            Stats.per_layer
        else
          List.map
            (fun ((m : Stats.metric), _, value) -> metric (prefix r m.Stats.name) m.Stats.unit_ value)
            (end_to_end r))
      results
  in
  let attempted = List.fold_left (fun acc r -> acc + List.length r.reps) 0 results in
  let failed =
    List.fold_left
      (fun acc r -> acc + List.length (List.filter (fun rep -> failures r rep <> []) r.reps))
      0 results
  in
  ( failed = 0,
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Num (float_of_int attempted));
        ("failed", Json.Num (float_of_int failed));
        ("metrics", Json.Obj metrics);
      ] )

(* ------------------------------------------------------------------ *)
(* --compare *)

let compare_files base_path new_path =
  let read path = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let base = read base_path and now = read new_path in
  let same_seed = Json.field "seed" base = Json.field "seed" now in
  let workloads v = Json.to_obj (Json.field "workloads" v) in
  let bad = ref 0 in
  Printf.printf "%-12s %-16s %12s %12s %8s %6s  %s\n" "workload" "metric" "base" "new" "delta" "bound"
    "verdict";
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name (workloads now) with
      | None -> Printf.printf "%-12s (not in %s)\n" name new_path
      | Some n ->
        let side v m =
          match Json.member m (Json.field "metrics" v) with
          | Some x ->
            Some
              {
                Stats.value = Json.to_num (Json.field "value" x);
                runs = List.map Json.to_num (Json.to_list (Json.field "values" x));
              }
          | None -> None
        in
        List.iter
          (fun (m : Stats.metric) ->
            match (side b m.Stats.name, side n m.Stats.name) with
            | Some base, Some now ->
              let verdict = Stats.judge m ~base ~now in
              if verdict = Stats.Regressed then incr bad;
              let delta =
                if base.Stats.value = 0.0 then 0.0
                else 100.0 *. (now.Stats.value -. base.Stats.value) /. base.Stats.value
              in
              Printf.printf "%-12s %-16s %12.6g %12.6g %+7.2f%% %5.0f%%  %s\n" name m.Stats.name
                base.Stats.value now.Stats.value delta (100.0 *. m.Stats.bound)
                (Stats.verdict_name verdict)
            | _ -> Printf.printf "%-12s %-16s (missing)\n" name m.Stats.name)
          Stats.end_to_end;
        if same_seed then
          List.iter
            (fun (k, bv) ->
              match Json.member k (Json.field "counts" n) with
              | Some nv when Json.to_num nv = Json.to_num bv -> ()
              | Some nv ->
                incr bad;
                Printf.printf "%-12s count %s changed: %.17g -> %.17g\n" name k (Json.to_num bv)
                  (Json.to_num nv)
              | None ->
                incr bad;
                Printf.printf "%-12s count %s missing from %s\n" name k new_path)
            (Json.to_obj (Json.field "counts" b)))
    (workloads base);
  if not same_seed then print_endline "(different seeds: deterministic counts not compared)";
  if !bad > 0 then begin
    Printf.printf "%d regression(s) or changed count(s)\n" !bad;
    exit 3
  end

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage =
  "octobench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n\
   octobench --compare BASE.json NEW.json\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.Drive.name) Drive.all)

let () =
  let workload = ref "all" and seed = ref 7 and seconds = ref 25 and trace = ref 0 in
  let json = ref None and child_of = ref None and traced = ref false in
  let files = ref [] and compare = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  workload to run, or all");
      ("--seed", Arg.Set_int seed, "N  seed of the lookup streams (default 7)");
      ("--seconds", Arg.Set_int seconds, "S  wall seconds per workload (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  report end-to-end (0) or per-layer (1) metrics");
      ("--json", Arg.String (fun f -> json := Some f), "FILE  write every run's values to FILE");
      ("--compare", Arg.Set compare, " compare two --json files");
      ("--child", Arg.String (fun w -> child_of := Some w), "NAME  (internal) run one repetition");
      ("--traced", Arg.Set traced, " (internal) trace the repetition");
    ]
    (fun f -> files := f :: !files)
    usage;
  let find name =
    match Drive.find name with
    | Some wl -> wl
    | None ->
      prerr_endline ("octobench: unknown workload " ^ name ^ "\n" ^ usage);
      exit 2
  in
  match (!child_of, !compare, List.rev !files) with
  | Some name, _, _ -> child (find name) ~seed:!seed ~traced:!traced
  | None, true, [ a; b ] -> compare_files a b
  | None, false, [] when !trace = 0 || !trace = 1 ->
    let wls = if !workload = "all" then Drive.all else [ find !workload ] in
    let trace = !trace = 1 in
    let results =
      try run_all wls ~seed:!seed ~seconds:!seconds ~trace
      with Child_failed msg | Json.Parse_error msg ->
        prerr_endline ("octobench: " ^ msg);
        exit 1
    in
    List.iter (print_report ~trace) results;
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (Json.to_string (report_json results ~seed:!seed ~seconds:!seconds ~trace));
            output_char oc '\n'))
      !json;
    let ok, line = driver_line results ~trace in
    print_endline (Json.to_string line);
    if not ok then exit 1
  | _ ->
    prerr_endline usage;
    exit 2
