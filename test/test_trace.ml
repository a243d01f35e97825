(* Tests for the structured trace layer and the online invariant checker:
   ring-buffer mechanics, synthetic violations, the end-to-end checked
   scenario, fault injection, and cross-seed determinism. *)

module Trace = Octo_sim.Trace
module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Latency = Octo_sim.Latency
module Peer = Octo_chord.Peer

let with_trace ?capacity f =
  let t = Trace.create ?capacity () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Trace mechanics *)

let test_disabled_by_default () =
  Alcotest.(check bool) "off" false (Trace.on ());
  (* Emission without a sink is a silent no-op. *)
  Trace.emit ~time:0.0 ~node:1 (Trace.Walk_done { ok = true })

let test_install_uninstall () =
  with_trace (fun t ->
      Alcotest.(check bool) "on" true (Trace.on ());
      Trace.emit ~time:1.0 ~node:2 (Trace.Walk_done { ok = false });
      Alcotest.(check int) "seen" 1 (Trace.seen t));
  Alcotest.(check bool) "off after" false (Trace.on ())

let test_ring_retention () =
  with_trace ~capacity:8 (fun t ->
      for i = 0 to 19 do
        Trace.emit ~time:(float_of_int i) ~node:i (Trace.Circuit_relay { relay = i })
      done;
      Alcotest.(check int) "seen counts past wrap" 20 (Trace.seen t);
      let evs = Trace.events t in
      Alcotest.(check int) "retains capacity" 8 (List.length evs);
      Alcotest.(check (list int)) "oldest-first window"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        (List.map (fun (e : Trace.event) -> e.Trace.seq) evs))

let test_subscribe () =
  with_trace (fun t ->
      let got = ref [] in
      Trace.subscribe t (fun ev -> got := ev.Trace.seq :: !got);
      Trace.emit ~time:0.0 ~node:0 (Trace.Walk_done { ok = true });
      Trace.emit ~time:1.0 ~node:0 (Trace.Walk_done { ok = true });
      Alcotest.(check (list int)) "synchronous delivery" [ 1; 0 ] !got)

let test_json_shape () =
  with_trace (fun t ->
      Trace.emit ~time:1.5 ~node:3
        (Trace.Net_drop { src = 3; dst = 4; size = 36; reason = "ho\"ok" });
      match Trace.events t with
      | [ ev ] ->
        let json = Trace.to_json ev in
        Alcotest.(check string) "escaped json"
          "{\"seq\":0,\"t\":1.500000,\"node\":3,\"ev\":\"net_drop\",\"src\":3,\"dst\":4,\"size\":36,\"reason\":\"ho\\\"ok\"}"
          json
      | _ -> Alcotest.fail "expected one event")

let test_engine_emits_sched () =
  with_trace (fun t ->
      let e = Engine.create () in
      ignore (Engine.schedule e ~delay:2.5 (fun () -> ()));
      match Trace.events t with
      | [ { Trace.data = Trace.Sched { at }; node = -1; _ } ] ->
        Alcotest.(check (float 1e-9)) "scheduled time" 2.5 at
      | _ -> Alcotest.fail "expected one Sched event")

let test_net_emits_send_deliver_drop () =
  with_trace (fun t ->
      let e = Engine.create ~seed:5 () in
      let rng = Rng.create ~seed:50 in
      let net = Octo_sim.Net.create e (Latency.create rng ~n:10) in
      Octo_sim.Net.register net 1 (fun _ -> ());
      Octo_sim.Net.send net ~src:0 ~dst:1 ~size:100 "ok";
      Engine.run_until_idle e ();
      Octo_sim.Net.set_alive net 1 false;
      Octo_sim.Net.send net ~src:0 ~dst:1 ~size:50 "to-dead";
      Engine.run_until_idle e ();
      let tags =
        List.filter_map
          (fun (ev : Trace.event) ->
            match ev.Trace.data with
            | Trace.Net_send _ -> Some "send"
            | Trace.Net_deliver _ -> Some "deliver"
            | Trace.Net_drop { reason; _ } -> Some ("drop:" ^ reason)
            | _ -> None)
          (Trace.events t)
      in
      Alcotest.(check (list string)) "net event stream"
        [ "send"; "deliver"; "send"; "drop:dead" ] tags)

(* ------------------------------------------------------------------ *)
(* Invariant checker on synthetic streams *)

let make_world ?(n = 30) ?(seed = 42) () =
  let engine = Engine.create ~seed () in
  let lat_rng = Rng.split (Engine.rng engine) in
  let latency = Latency.create lat_rng ~n:(n + 1) in
  let w = Octopus.World.create engine latency ~n in
  Octopus.Serve.install w;
  let _ = Octopus.Ca.create w in
  (engine, w)

let synthetic f =
  with_trace (fun trace ->
      let _engine, w = make_world () in
      let chk = Octopus.Invariant.create w in
      Octopus.Invariant.attach chk trace;
      f w chk)

let test_clean_synthetic_stream () =
  synthetic (fun _w chk ->
      Trace.emit ~time:0.0 ~node:2
        (Trace.Query_sent { cid = 1; target_addr = 9; target_id = 9; relays = [ 3; 4; 5; 6 ]; dummy = false });
      Octopus.Invariant.finish chk;
      Alcotest.(check bool) "clean" true (Octopus.Invariant.ok chk))

let test_duplicate_relay_flagged () =
  synthetic (fun _w chk ->
      Trace.emit ~time:0.0 ~node:2
        (Trace.Query_sent { cid = 7; target_addr = 9; target_id = 9; relays = [ 3; 4; 3; 6 ]; dummy = false });
      Alcotest.(check int) "one violation" 1 (List.length (Octopus.Invariant.violations chk)))

let test_initiator_relay_flagged () =
  synthetic (fun _w chk ->
      Trace.emit ~time:0.0 ~node:4
        (Trace.Query_sent { cid = 8; target_addr = 9; target_id = 9; relays = [ 3; 4; 5; 6 ]; dummy = false });
      match Octopus.Invariant.violations chk with
      | [ v ] ->
        Alcotest.(check bool) "offending event kept" true (v.Octopus.Invariant.event <> None)
      | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs))

let test_revoked_routing_item_flagged () =
  synthetic (fun _w chk ->
      Trace.emit ~time:0.0 ~node:9 (Trace.Revoked { addr = 9; id = 999 });
      (* A lookup started long after the revocation must never query the
         ejected identity. *)
      Trace.emit ~time:100.0 ~node:3 (Trace.Lookup_start { key = 1; anonymous = false });
      Trace.emit ~time:100.5 ~node:3
        (Trace.Lookup_hop { key = 1; peer_addr = 9; peer_id = 999; hop = 0 });
      Alcotest.(check int) "one violation" 1 (List.length (Octopus.Invariant.violations chk)))

let test_revoked_within_grace_excused () =
  synthetic (fun _w chk ->
      Trace.emit ~time:0.0 ~node:9 (Trace.Revoked { addr = 9; id = 999 });
      (* This lookup began before the CRL could have mattered. *)
      Trace.emit ~time:1.0 ~node:3 (Trace.Lookup_start { key = 1; anonymous = false });
      Trace.emit ~time:1.5 ~node:3
        (Trace.Lookup_hop { key = 1; peer_addr = 9; peer_id = 999; hop = 0 });
      Alcotest.(check bool) "excused" true (Octopus.Invariant.ok chk))

let test_byte_budget_flagged () =
  synthetic (fun _w chk ->
      Trace.emit ~time:0.0 ~node:1 (Trace.Msg { kind = "Ping_req"; dst = 2; size = 40 });
      Trace.emit ~time:0.0 ~node:1 (Trace.Msg { kind = "Fwd"; dst = 2; size = 12 });
      Alcotest.(check int) "oversized ping + sub-header fwd" 2
        (List.length (Octopus.Invariant.violations chk)))

let test_accounting_mismatch_flagged () =
  synthetic (fun _w chk ->
      (* A Net_send event with no matching Net counter increment means the
         stream and the network disagree. *)
      Trace.emit ~time:0.0 ~node:0 (Trace.Net_send { src = 0; dst = 1; size = 10 });
      Octopus.Invariant.finish chk;
      Alcotest.(check bool) "mismatch flagged" false (Octopus.Invariant.ok chk))

(* ------------------------------------------------------------------ *)
(* End-to-end checked scenarios *)

let scenario ?(revoke_one = false) ?(misroute = false) ?(seed = 7) () =
  Octo_experiments.Tracecheck.run ~n:40 ~duration:40.0 ~seed ~revoke_one ~misroute ()

let test_scenario_no_violations () =
  let r = scenario () in
  let chk = r.Octo_experiments.Regime.checker in
  if not (Octopus.Invariant.ok chk) then
    Octopus.Invariant.report chk Format.str_formatter;
  Alcotest.(check string) "no violations" "" (Format.flush_str_formatter ());
  Alcotest.(check bool) "lookups ran" true (r.Octo_experiments.Regime.lookups_done > 0);
  Alcotest.(check bool) "events checked" true (Octopus.Invariant.checked chk > 1000)

let test_scenario_with_revocation () =
  let r = scenario ~revoke_one:true () in
  let chk = r.Octo_experiments.Regime.checker in
  let revocations =
    List.filter
      (fun (ev : Trace.event) ->
        match ev.Trace.data with Trace.Revoked _ -> true | _ -> false)
      (Trace.events r.Octo_experiments.Regime.trace)
  in
  Alcotest.(check int) "one revocation traced" 1 (List.length revocations);
  if not (Octopus.Invariant.ok chk) then
    Octopus.Invariant.report chk Format.str_formatter;
  Alcotest.(check string) "revocation run clean" "" (Format.flush_str_formatter ())

let test_injected_misroute_caught () =
  let r = scenario ~misroute:true () in
  let chk = r.Octo_experiments.Regime.checker in
  let vs = Octopus.Invariant.violations chk in
  Alcotest.(check bool) "violations reported" true (vs <> []);
  (* Every violation carries its offending Lookup_done event. *)
  List.iter
    (fun (v : Octopus.Invariant.violation) ->
      match v.Octopus.Invariant.event with
      | Some { Trace.data = Trace.Lookup_done _; _ } -> ()
      | Some ev -> Alcotest.failf "unexpected offender: %s" (Trace.to_json ev)
      | None -> Alcotest.fail "violation without offending event")
    vs

(* ------------------------------------------------------------------ *)
(* Cross-seed determinism (test_regime repeats it for every regime) *)

let rendered r = List.map Trace.to_json (Trace.events r.Octo_experiments.Regime.trace)

let test_same_seed_same_trace () =
  let a = rendered (scenario ~seed:5 ()) in
  let b = rendered (scenario ~seed:5 ()) in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  List.iter2 (fun x y -> if x <> y then Alcotest.failf "diverged: %s vs %s" x y) a b

let test_different_seed_diverges () =
  let a = rendered (scenario ~seed:5 ()) in
  let b = rendered (scenario ~seed:6 ()) in
  Alcotest.(check bool) "different streams" true (a <> b)

(* Lazy routing-table materialization is a pure memory optimization: a
   thunked table replays exactly what the eager bootstrap would have
   built, draws no randomness, and emits no trace events — so forcing
   every table before maintenance starts must leave the same seed's event
   stream byte-identical. *)
let eager_lazy_rendered ~eager () =
  with_trace ~capacity:(1 lsl 18) (fun t ->
      let spec = Octo_experiments.Scenario.make ~seed:5 ~n:64 ~duration:90.0 () in
      let spec =
        if eager then
          Octo_experiments.Scenario.on_init spec (fun w ->
              Array.iter (fun n -> ignore (Octopus.World.rt n)) w.Octopus.World.nodes)
        else spec
      in
      ignore (Octo_experiments.Scenario.run spec);
      List.map Trace.to_json (Trace.events t))

let test_eager_lazy_tables_identical () =
  let lazy_run = eager_lazy_rendered ~eager:false () in
  let eager_run = eager_lazy_rendered ~eager:true () in
  Alcotest.(check int) "same length" (List.length lazy_run) (List.length eager_run);
  List.iter2
    (fun x y -> if x <> y then Alcotest.failf "diverged: %s vs %s" x y)
    lazy_run eager_run

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "octo_trace"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
          Alcotest.test_case "install/uninstall" `Quick test_install_uninstall;
          Alcotest.test_case "ring retention" `Quick test_ring_retention;
          Alcotest.test_case "subscribe" `Quick test_subscribe;
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "engine sched event" `Quick test_engine_emits_sched;
          Alcotest.test_case "net events" `Quick test_net_emits_send_deliver_drop;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "clean stream" `Quick test_clean_synthetic_stream;
          Alcotest.test_case "duplicate relay" `Quick test_duplicate_relay_flagged;
          Alcotest.test_case "initiator relay" `Quick test_initiator_relay_flagged;
          Alcotest.test_case "revoked routing item" `Quick test_revoked_routing_item_flagged;
          Alcotest.test_case "revoked within grace" `Quick test_revoked_within_grace_excused;
          Alcotest.test_case "byte budget" `Quick test_byte_budget_flagged;
          Alcotest.test_case "accounting mismatch" `Quick test_accounting_mismatch_flagged;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "no violations" `Quick test_scenario_no_violations;
          Alcotest.test_case "revocation run" `Quick test_scenario_with_revocation;
          Alcotest.test_case "misroute caught" `Quick test_injected_misroute_caught;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same trace" `Quick test_same_seed_same_trace;
          Alcotest.test_case "different seed diverges" `Quick test_different_seed_diverges;
          Alcotest.test_case "eager vs lazy tables identical" `Quick
            test_eager_lazy_tables_identical;
        ] );
    ]
