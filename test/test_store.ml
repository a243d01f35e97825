(* Tests for the storage layer, circuit construction, and the entropy
   metrics. *)

open Octopus
module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Latency = Octo_sim.Latency

let make_world ?(n = 120) ?(seed = 42) ?(fraction_malicious = 0.0) () =
  let engine = Engine.create ~seed () in
  let latency = Latency.create (Rng.split (Engine.rng engine)) ~n:(n + 1) in
  let w = World.create ~fraction_malicious engine latency ~n in
  Serve.install w;
  let _ = Ca.create w in
  (engine, w)

(* ------------------------------------------------------------------ *)
(* Store *)

let test_store_put_get_roundtrip () =
  let engine, w = make_world () in
  let node = World.node w 0 in
  let rng = Rng.create ~seed:7 in
  let items =
    List.init 10 (fun i -> (Id.random w.World.space rng, Bytes.of_string (Printf.sprintf "v%d" i)))
  in
  let stored = ref 0 in
  List.iter (fun (key, value) -> Store.put w node ~key ~value (fun ok -> if ok then incr stored)) items;
  Engine.run engine ~until:30.0;
  Alcotest.(check int) "all stored" 10 !stored;
  let fetched = ref 0 in
  List.iter
    (fun (key, value) ->
      Store.get w (World.node w 50) ~key (fun got ->
          match got with Some v when Bytes.equal v value -> incr fetched | _ -> ()))
    items;
  Engine.run engine ~until:60.0;
  Alcotest.(check int) "all fetched from another node" 10 !fetched

let test_store_get_missing () =
  let engine, w = make_world ~seed:8 () in
  let got = ref (Some (Bytes.create 1)) in
  Store.get w (World.node w 3) ~key:12345 (fun v -> got := v);
  Engine.run engine ~until:30.0;
  Alcotest.(check bool) "missing key is None" true (!got = None)

let test_store_value_at_owner_and_replicas () =
  let engine, w = make_world ~seed:9 () in
  let key = Id.random w.World.space (Rng.create ~seed:10) in
  let value = Bytes.of_string "replicated" in
  Store.put w (World.node w 1) ~key ~value (fun _ -> ());
  Engine.run engine ~until:30.0;
  let owner = Option.get (World.find_owner w ~key) in
  let holder = World.node w owner.Peer.addr in
  Alcotest.(check bool) "owner holds it" true (World.Imap.mem holder.World.storage key);
  let replicas =
    List.filteri (fun i _ -> i < 2) (Octo_chord.Rtable.succs (World.rt holder))
  in
  List.iter
    (fun (r : Peer.t) ->
      Alcotest.(check bool) "replica holds it" true
        (World.Imap.mem (World.node w r.Peer.addr).World.storage key))
    replicas

let test_store_survives_owner_death () =
  let engine, w = make_world ~seed:11 () in
  let key = Id.random w.World.space (Rng.create ~seed:12) in
  let value = Bytes.of_string "survivor" in
  Store.put w (World.node w 1) ~key ~value (fun _ -> ());
  Engine.run engine ~until:30.0;
  let owner = Option.get (World.find_owner w ~key) in
  World.kill w owner.Peer.addr;
  (* The new owner is the first replica; the get's fallback chain finds the
     value there. *)
  let got = ref None in
  Store.get w (World.node w 7) ~key (fun v -> got := v);
  Engine.run engine ~until:60.0;
  Alcotest.(check (option bytes)) "value survives owner death" (Some value) !got

(* ------------------------------------------------------------------ *)
(* Circuits *)

let test_circuit_build_and_send () =
  let engine, w = make_world ~n:150 ~seed:13 () in
  let node = World.node w 5 in
  let circuit = ref None in
  Circuits.build w node ~hops:3 (fun c -> circuit := c);
  Engine.run engine ~until:60.0;
  match !circuit with
  | None -> Alcotest.fail "circuit not built"
  | Some c ->
    Alcotest.(check int) "three relays" 3 (List.length c.Circuits.relays);
    Alcotest.(check bool) "relays distinct" true
      (List.length (List.sort_uniq Peer.compare c.Circuits.relays) = 3);
    Alcotest.(check bool) "not the initiator" true
      (List.for_all (fun r -> r.Peer.addr <> node.World.addr) c.Circuits.relays);
    (* Session keys installed at each relay. *)
    List.iter
      (fun (s : World.relay) ->
        Alcotest.(check bool) "session installed" true
          (World.Imap.mem (World.node w s.World.r_peer.Peer.addr).World.sessions s.World.r_sid))
      c.Circuits.sessions;
    let payload = Bytes.of_string "through the circuit" in
    let echoed = ref None in
    Circuits.send w node c ~payload (fun r -> echoed := r);
    Engine.run engine ~until:120.0;
    Alcotest.(check (option bytes)) "payload echoed through circuit" (Some payload) !echoed

let test_circuit_send_fails_on_dead_relay () =
  let engine, w = make_world ~n:150 ~seed:18 () in
  let node = World.node w 5 in
  let circuit = ref None in
  Circuits.build w node ~hops:3 (fun c -> circuit := c);
  Engine.run engine ~until:120.0;
  match !circuit with
  | None -> Alcotest.fail "circuit not built"
  | Some c ->
    World.kill w (List.hd c.Circuits.relays).Peer.addr;
    let echoed = ref (Some Bytes.empty) in
    Circuits.send w node c ~payload:(Bytes.of_string "x") (fun r -> echoed := r);
    Engine.run engine ~until:240.0;
    Alcotest.(check bool) "send fails" true (!echoed = None)

(* ------------------------------------------------------------------ *)
(* Entropy metrics *)

let test_entropy_metrics () =
  let module E = Octo_anonymity.Entropy in
  Alcotest.(check (float 1e-9)) "uniform 8" 3.0 (E.shannon (List.init 8 (fun _ -> 1.0)));
  Alcotest.(check (float 1e-9)) "certainty" 0.0 (E.shannon [ 1.0 ]);
  Alcotest.(check (float 1e-9)) "skewed" 1.5 (E.shannon [ 0.5; 0.25; 0.25 ]);
  Alcotest.(check bool) "normalization ignores scale" true
    (Float.abs (E.shannon [ 2.0; 2.0 ] -. 1.0) < 1e-9);
  Alcotest.(check (float 1e-9)) "max entropy 8" 3.0 (E.max_entropy 8);
  Alcotest.(check (float 1e-9)) "max entropy singleton" 0.0 (E.max_entropy 1)

let () =
  Alcotest.run "octopus-store-circuits"
    [
      ( "store",
        [
          Alcotest.test_case "put/get roundtrip" `Quick test_store_put_get_roundtrip;
          Alcotest.test_case "missing key" `Quick test_store_get_missing;
          Alcotest.test_case "replication" `Quick test_store_value_at_owner_and_replicas;
          Alcotest.test_case "survives owner death" `Quick test_store_survives_owner_death;
        ] );
      ( "circuits",
        [
          Alcotest.test_case "build and send" `Quick test_circuit_build_and_send;
          Alcotest.test_case "dead relay fails" `Quick test_circuit_send_fails_on_dead_relay;
        ] );
      ("entropy", [ Alcotest.test_case "metrics" `Quick test_entropy_metrics ]);
    ]
