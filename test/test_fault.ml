(* Tests for the fault-injection engine: group resolution, every fault
   kind's observable effect, counter bookkeeping, same-seed determinism,
   the envelope-pool poisoning detector, and RPC behavior when the
   destination dies (fast-fail of queued calls, cancellation). *)

module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Latency = Octo_sim.Latency
module Net = Octo_sim.Net
module Fault = Octo_sim.Fault
module Rpc = Octo_sim.Rpc
module Trace = Octo_sim.Trace

(* A small rig: engine, latency space and a net whose slots record every
   delivered payload as [(time, src, payload, size)]. *)
type rig = {
  engine : Engine.t;
  lat : Latency.t;
  net : string Net.t;
  delivered : (float * int * string * int) list ref array;
}

let make_rig ?(seed = 42) ~n () =
  let engine = Engine.create ~seed () in
  let lat = Latency.create (Rng.create ~seed:(seed + 1)) ~n in
  let net = Net.create engine lat in
  let delivered = Array.init n (fun _ -> ref []) in
  for a = 0 to n - 1 do
    Net.register net a (fun env ->
        delivered.(a) :=
          (Engine.now engine, env.Net.src, env.Net.payload, env.Net.size)
          :: !(delivered.(a)))
  done;
  { engine; lat; net; delivered }

let count rig a = List.length !(rig.delivered.(a))

(* ------------------------------------------------------------------ *)
(* Group resolution *)

(* A group resolves to its slots within the latency space: a crash burst
   asking for more victims than the group holds crashes exactly those. *)
let test_members () =
  let crashed group =
    let rig = make_rig ~n:8 () in
    let out = ref [] in
    ignore
      (Fault.install rig.engine rig.lat rig.net
         ~on_crash:(fun a -> out := a :: !out)
         [ Fault.Crash_burst { at = 1.0; victims = group; count = 16; recover_after = 1.0 } ]);
    Engine.run rig.engine ~until:2.0;
    List.sort compare !out
  in
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (crashed (Fault.Range { lo = 2; hi = 4 }));
  Alcotest.(check (list int)) "empty range" [] (crashed (Fault.Range { lo = 4; hi = 2 }));
  Alcotest.(check (list int)) "clipped to the slots" [ 6; 7 ]
    (crashed (Fault.Range { lo = 6; hi = 20 }))

(* ------------------------------------------------------------------ *)
(* Fault kinds *)

let test_partition_drops_and_heals () =
  let rig = make_rig ~n:6 () in
  let plan =
    [ Fault.Partition
        { groups = [ Fault.Range { lo = 0; hi = 2 } ]; from_ = 1.0; heal_at = 5.0 };
    ]
  in
  let f = Fault.install rig.engine rig.lat rig.net plan in
  (* Before the window: cross-group traffic flows. *)
  Net.send rig.net ~src:0 ~dst:4 ~size:36 "pre";
  Engine.run rig.engine ~until:1.0;
  Alcotest.(check int) "pre-window delivered" 1 (count rig 4);
  (* During: across the cut both ways drops, within a side flows. *)
  Net.send rig.net ~src:0 ~dst:4 ~size:36 "cross";
  Net.send rig.net ~src:4 ~dst:0 ~size:36 "cross-back";
  Net.send rig.net ~src:0 ~dst:1 ~size:36 "inside";
  Net.send rig.net ~src:4 ~dst:5 ~size:36 "outside";
  Engine.run rig.engine ~until:5.0;
  Alcotest.(check int) "cross dropped" 1 (count rig 4);
  Alcotest.(check int) "cross-back dropped" 0 (count rig 0);
  Alcotest.(check int) "same-group delivered" 1 (count rig 1);
  Alcotest.(check int) "remainder-group delivered" 1 (count rig 5);
  Alcotest.(check int) "two drops counted" 2 (Fault.drops f);
  (* After heal: flows again. *)
  Net.send rig.net ~src:0 ~dst:4 ~size:36 "post";
  Engine.run rig.engine ~until:10.0;
  Alcotest.(check int) "post-heal delivered" 2 (count rig 4);
  Alcotest.(check int) "no further drops" 2 (Fault.drops f)

let test_corruption_rewrites_payload_and_size () =
  let rig = make_rig ~n:2 () in
  let corrupt _rng payload = ("garbled:" ^ payload, 99) in
  let f =
    Fault.install rig.engine rig.lat rig.net ~corrupt
      [ Fault.Corrupt { prob = 1.0; from_ = 1.0; until = 10.0 } ]
  in
  Engine.run rig.engine ~until:1.0;
  Net.send rig.net ~src:0 ~dst:1 ~size:36 "hello";
  Engine.run rig.engine ~until:5.0;
  (match !(rig.delivered.(1)) with
  | [ (_, src, payload, size) ] ->
    Alcotest.(check int) "src preserved" 0 src;
    Alcotest.(check string) "payload garbled" "garbled:hello" payload;
    Alcotest.(check int) "received at perturbed size" 99 size
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l));
  Alcotest.(check int) "counted" 1 (Fault.corruptions f);
  (* Transmit accounting keeps the original wire size. *)
  Alcotest.(check int) "tx at original size" 36 (Net.tx_bytes rig.net 0);
  Alcotest.(check int) "rx at corrupted size" 99 (Net.rx_bytes rig.net 1)

let test_duplicate_delivers_twice () =
  let rig = make_rig ~n:2 () in
  let f =
    Fault.install rig.engine rig.lat rig.net
      [ Fault.Duplicate { prob = 1.0; spread = 0.5; from_ = 1.0; until = 10.0 } ]
  in
  Engine.run rig.engine ~until:1.0;
  Net.send rig.net ~src:0 ~dst:1 ~size:36 "once";
  Engine.run rig.engine ~until:5.0;
  Alcotest.(check int) "delivered twice" 2 (count rig 1);
  Alcotest.(check int) "one duplication" 1 (Fault.duplicates f);
  Alcotest.(check int) "tx counted once" 36 (Net.tx_bytes rig.net 0);
  Alcotest.(check int) "rx counted per copy" 72 (Net.rx_bytes rig.net 1)

let test_reorder_holds_back_bounded () =
  (* With a deterministic two-message probe: the reordered copy arrives
     strictly later than an un-faulted reference send of the same
     latency, but no more than [max_extra] later. *)
  let seed = 9 in
  let baseline =
    let rig = make_rig ~seed ~n:2 () in
    Engine.run rig.engine ~until:1.0;
    Net.send rig.net ~src:0 ~dst:1 ~size:36 "ref";
    Engine.run rig.engine ~until:10.0;
    match !(rig.delivered.(1)) with
    | [ (t, _, _, _) ] -> t
    | _ -> Alcotest.fail "baseline lost"
  in
  let rig = make_rig ~seed ~n:2 () in
  let f =
    Fault.install rig.engine rig.lat rig.net
      [ Fault.Reorder { prob = 1.0; max_extra = 2.0; from_ = 1.0; until = 10.0 } ]
  in
  Engine.run rig.engine ~until:1.0;
  Net.send rig.net ~src:0 ~dst:1 ~size:36 "held";
  Engine.run rig.engine ~until:20.0;
  (match !(rig.delivered.(1)) with
  | [ (t, _, _, _) ] ->
    Alcotest.(check bool) "arrives later than baseline" true (t > baseline);
    Alcotest.(check bool) "within max_extra bound" true (t <= baseline +. 2.0)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l));
  Alcotest.(check int) "one reorder" 1 (Fault.reorders f)

let test_crash_burst_callbacks () =
  let rig = make_rig ~n:8 () in
  let crashed = ref [] and recovered = ref [] in
  let f =
    Fault.install rig.engine rig.lat rig.net
      ~on_crash:(fun a -> crashed := a :: !crashed)
      ~on_recover:(fun a -> recovered := a :: !recovered)
      [ Fault.Crash_burst
          { at = 2.0; victims = Fault.Range { lo = 0; hi = 7 }; count = 3; recover_after = 4.0 };
      ]
  in
  Engine.run rig.engine ~until:3.0;
  Alcotest.(check int) "three crashed" 3 (List.length !crashed);
  Alcotest.(check int) "distinct victims" 3 (List.length (List.sort_uniq compare !crashed));
  Alcotest.(check int) "none recovered yet" 0 (List.length !recovered);
  Engine.run rig.engine ~until:10.0;
  Alcotest.(check (list int)) "same set recovers" (List.sort compare !crashed)
    (List.sort compare !recovered);
  Alcotest.(check int) "crash counter" 3 (Fault.crashes f)

let test_regional_outage_blocks_both_directions () =
  let rig = make_rig ~n:6 () in
  (* Radius 0: exactly the epicenter is out — it can neither send nor
     receive, while bystander traffic is untouched. *)
  let f =
    Fault.install rig.engine rig.lat rig.net
      [ Fault.Regional_outage { epicenter = 2; radius = 0.0; from_ = 1.0; until = 5.0 } ]
  in
  Engine.run rig.engine ~until:1.0;
  Net.send rig.net ~src:2 ~dst:4 ~size:36 "from-out";
  Net.send rig.net ~src:4 ~dst:2 ~size:36 "to-out";
  Net.send rig.net ~src:0 ~dst:4 ~size:36 "bystander";
  Engine.run rig.engine ~until:5.0;
  Alcotest.(check int) "outage node receives nothing" 0 (count rig 2);
  Alcotest.(check (list string)) "only bystander traffic arrives" [ "bystander" ]
    (List.map (fun (_, _, p, _) -> p) !(rig.delivered.(4)));
  Alcotest.(check int) "both directions dropped" 2 (Fault.drops f);
  (* After the window the epicenter is reachable again. *)
  Net.send rig.net ~src:4 ~dst:2 ~size:36 "post";
  Engine.run rig.engine ~until:10.0;
  Alcotest.(check int) "reachable after window" 1 (count rig 2)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let mixed_plan =
  [ Fault.Partition { groups = [ Fault.Range { lo = 0; hi = 3 } ]; from_ = 1.0; heal_at = 6.0 };
    Fault.Corrupt { prob = 0.3; from_ = 0.0; until = 8.0 };
    Fault.Duplicate { prob = 0.3; spread = 0.5; from_ = 0.0; until = 8.0 };
    Fault.Reorder { prob = 0.5; max_extra = 1.0; from_ = 0.0; until = 8.0 };
  ]

let faulted_run seed =
  let t = Trace.create () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let rig = make_rig ~seed ~n:8 () in
      let corrupt _rng p = ("x" ^ p, 40) in
      let f = Fault.install rig.engine rig.lat rig.net ~corrupt mixed_plan in
      for i = 0 to 99 do
        Net.send rig.net ~src:(i mod 8)
          ~dst:((i * 3 + 1) mod 8)
          ~size:(36 + (i mod 5))
          (string_of_int i)
      done;
      Engine.run rig.engine ~until:20.0;
      ( List.map Trace.to_json (Trace.events t),
        (Fault.drops f, Fault.corruptions f, Fault.duplicates f, Fault.reorders f) ))

let test_same_seed_identical () =
  let trace_a, counters_a = faulted_run 17 in
  let trace_b, counters_b = faulted_run 17 in
  Alcotest.(check int) "same event count" (List.length trace_a) (List.length trace_b);
  List.iter2 (fun a b -> Alcotest.(check string) "same event" a b) trace_a trace_b;
  let a1, a2, a3, a4 = counters_a and b1, b2, b3, b4 = counters_b in
  Alcotest.(check (list int)) "same counters" [ a1; a2; a3; a4 ] [ b1; b2; b3; b4 ]

let test_different_seed_differs () =
  let trace_a, _ = faulted_run 17 in
  let trace_b, _ = faulted_run 18 in
  Alcotest.(check bool) "different seeds diverge" true (trace_a <> trace_b)

(* ------------------------------------------------------------------ *)
(* Envelope-pool poisoning *)

let test_poison_detects_retained_envelope () =
  let engine = Engine.create ~seed:1 () in
  let lat = Latency.create (Rng.create ~seed:2) ~n:2 in
  let net = Net.create engine lat in
  Net.set_debug_poison net true;
  let leaked = ref None in
  Net.register net 1 (fun env ->
      (* The bug under test: retaining the pooled envelope. While the
         handler runs the envelope is live and unpoisoned. *)
      Alcotest.(check bool) "live during handling" false (Net.poisoned env);
      leaked := Some env);
  Net.send net ~src:0 ~dst:1 ~size:36 "msg";
  Engine.run engine ~until:5.0;
  match !leaked with
  | None -> Alcotest.fail "handler never ran"
  | Some env ->
    Alcotest.(check bool) "poisoned after release" true (Net.poisoned env);
    (* Poisoned envelopes are withheld from the pool: a second send must
       not resurrect the leaked one. *)
    let second = ref None in
    Net.register net 1 (fun e -> second := Some e);
    Net.send net ~src:0 ~dst:1 ~size:36 "msg2";
    Engine.run engine ~until:10.0;
    (match !second with
    | Some e2 -> Alcotest.(check bool) "fresh envelope, not the leak" true (e2 != env)
    | None -> Alcotest.fail "second delivery lost");
    Alcotest.(check bool) "leak stays poisoned" true (Net.poisoned env)

let test_no_poison_by_default () =
  let engine = Engine.create ~seed:1 () in
  let lat = Latency.create (Rng.create ~seed:2) ~n:2 in
  let net = Net.create engine lat in
  let got = ref None in
  Net.register net 1 (fun env -> got := Some env);
  Net.send net ~src:0 ~dst:1 ~size:36 "msg";
  Engine.run engine ~until:5.0;
  match !got with
  | Some env -> Alcotest.(check bool) "not poisoned" false (Net.poisoned env)
  | None -> Alcotest.fail "delivery lost"

(* ------------------------------------------------------------------ *)
(* RPC under node death *)

let test_fail_queued_fast_fails_exactly_the_queue () =
  let e = Engine.create ~seed:1 () in
  let rpc = Rpc.create e ~rng:(Rng.create ~seed:3) ~in_flight_cap:1 () in
  let sent = ref [] and gave_up = ref [] and resolved = ref [] in
  let call tag =
    ignore
      (Rpc.call rpc ~src:0 ~dst:1
         ~policy:(Rpc.policy ~timeout:5.0 ())
         ~send:(fun _rid -> sent := tag :: !sent)
         ~on_give_up:(fun () -> gave_up := tag :: !gave_up)
         (fun (_ : string) -> resolved := tag :: !resolved))
  in
  call "a";
  call "b";
  call "c";
  Alcotest.(check (list string)) "only the first flew" [ "a" ] !sent;
  Alcotest.(check int) "two queued" 2 (Rpc.queued rpc ~dst:1);
  (* Destination dies: queued calls fail immediately and in order; the
     flying call is left to its own timeout. *)
  Rpc.fail_queued rpc ~dst:1;
  Alcotest.(check (list string)) "queue fast-failed FIFO" [ "c"; "b" ] !gave_up;
  Alcotest.(check int) "queue empty" 0 (Rpc.queued rpc ~dst:1);
  Alcotest.(check int) "flying call still out" 1 (Rpc.in_flight rpc ~dst:1);
  Alcotest.(check (list string)) "nothing resolved" [] !resolved;
  (* Idempotent on an empty queue. *)
  Rpc.fail_queued rpc ~dst:1;
  Alcotest.(check (list string)) "no double give-up" [ "c"; "b" ] !gave_up;
  Engine.run e ~until:10.0;
  Alcotest.(check (list string)) "flyer timed out once, afterwards" [ "a"; "c"; "b" ] !gave_up

let () =
  Alcotest.run "fault"
    [ ( "groups",
        [ Alcotest.test_case "members" `Quick test_members ] );
      ( "kinds",
        [ Alcotest.test_case "partition drops and heals" `Quick test_partition_drops_and_heals;
          Alcotest.test_case "corruption rewrites payload/size" `Quick
            test_corruption_rewrites_payload_and_size;
          Alcotest.test_case "duplication delivers twice" `Quick test_duplicate_delivers_twice;
          Alcotest.test_case "reorder bounded" `Quick test_reorder_holds_back_bounded;
          Alcotest.test_case "crash burst callbacks" `Quick test_crash_burst_callbacks;
          Alcotest.test_case "regional outage blocks both directions" `Quick
            test_regional_outage_blocks_both_directions;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seed identical" `Quick test_same_seed_identical;
          Alcotest.test_case "different seed differs" `Quick test_different_seed_differs;
        ] );
      ( "envelope-pool",
        [ Alcotest.test_case "poison detects retention" `Quick
            test_poison_detects_retained_envelope;
          Alcotest.test_case "no poison by default" `Quick test_no_poison_by_default;
        ] );
      ( "rpc-under-death",
        [ Alcotest.test_case "fail_queued fast-fails queue" `Quick
            test_fail_queued_fast_fails_exactly_the_queue;
        ] );
    ]
