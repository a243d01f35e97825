(* Tests for the storage layer, circuit construction, and the binary wire
   codecs. *)

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
(* Wire codecs *)

let test_codec_primitives_roundtrip () =
  let module W = Octo_crypto.Codec.Writer in
  let module R = Octo_crypto.Codec.Reader in
  let w = W.create () in
  W.u8 w 200;
  W.u16 w 40_000;
  W.u32 w 3_000_000_000;
  W.u64 w 123_456_789_012_345;
  W.f64 w (-3.25);
  W.bytes w (Bytes.of_string "payload");
  W.list w (W.u16 w) [ 1; 2; 3 ];
  W.option w (W.u8 w) (Some 9);
  W.option w (W.u8 w) None;
  let r = R.create (W.contents w) in
  Alcotest.(check int) "u8" 200 (R.u8 r);
  Alcotest.(check int) "u16" 40_000 (R.u16 r);
  Alcotest.(check int) "u32" 3_000_000_000 (R.u32 r);
  Alcotest.(check int) "u64" 123_456_789_012_345 (R.u64 r);
  Alcotest.(check (float 1e-12)) "f64" (-3.25) (R.f64 r);
  Alcotest.(check bytes) "bytes" (Bytes.of_string "payload") (R.bytes r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (R.list r R.u16);
  Alcotest.(check (option int)) "some" (Some 9) (R.option r R.u8);
  Alcotest.(check (option int)) "none" None (R.option r R.u8);
  R.expect_end r

let test_codec_truncation_raises () =
  let module R = Octo_crypto.Codec.Reader in
  let r = R.create (Bytes.of_string "ab") in
  Alcotest.check_raises "u32 past end" R.Truncated (fun () -> ignore (R.u32 r))

let peer_testable =
  Alcotest.testable Peer.pp Peer.equal

let test_signed_list_codec_roundtrip () =
  let _, w = make_world ~n:60 ~seed:15 () in
  let node = World.node w 0 in
  let sl = World.honest_list w node Types.Succ_list in
  match Wire_codec.decode_signed_list (Wire_codec.encode_signed_list sl) with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
    Alcotest.(check peer_testable) "owner" sl.Types.l_owner decoded.Types.l_owner;
    Alcotest.(check (list peer_testable)) "peers" sl.Types.l_peers decoded.Types.l_peers;
    Alcotest.(check (float 1e-9)) "time" sl.Types.l_time decoded.Types.l_time;
    (* The decoded document still *verifies* — signature and certificate
       survive the trip. *)
    Alcotest.(check bool) "still verifies" true
      (World.verify_list w ~expect_owner:node.World.peer decoded)

let test_signed_table_codec_roundtrip () =
  let _, w = make_world ~n:60 ~seed:16 () in
  let node = World.node w 3 in
  let st = World.honest_table w node in
  match Wire_codec.decode_signed_table (Wire_codec.encode_signed_table st) with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
    Alcotest.(check bool) "still verifies" true
      (World.verify_table w ~expect_owner:node.World.peer decoded);
    Alcotest.(check int) "finger slots" (List.length st.Types.t_fingers)
      (List.length decoded.Types.t_fingers)

let test_query_codec_roundtrip () =
  let samples =
    [
      Types.Q_table { session = None };
      Types.Q_table { session = Some (42, Bytes.of_string "0123456789abcdef") };
      Types.Q_list Types.Succ_list;
      Types.Q_list Types.Pred_list;
      Types.Q_phase2 { seed = 987654; length = 3 };
      Types.Q_establish { sid = 7; key = Bytes.make 16 'k' };
      Types.Q_put { key = 123456; value = Bytes.of_string "a value" };
      Types.Q_get { key = 9 };
      Types.Q_echo (Bytes.of_string "ping");
    ]
  in
  List.iter
    (fun q ->
      match Wire_codec.decode_query (Wire_codec.encode_query q) with
      | Ok q' -> Alcotest.(check bool) "roundtrip equal" true (q = q')
      | Error e -> Alcotest.fail e)
    samples

let test_report_codec_roundtrip () =
  let _, w = make_world ~n:60 ~seed:17 () in
  let node = World.node w 0 and other = World.node w 1 in
  let sl = World.honest_list w node Types.Succ_list in
  let st = World.honest_table w other in
  let samples =
    [
      Types.R_neighbor { reporter = node.World.peer; missing = node.World.peer; claimed = sl };
      Types.R_finger
        { y_table = st; index = 4; f_preds = World.honest_list w other Types.Pred_list;
          p1_succs = sl };
      Types.R_table_omission { reporter = node.World.peer; missing = other.World.peer; table = st };
      Types.R_dos
        { reporter = node.World.peer; relays = [ node.World.peer; other.World.peer ]; cid = 5;
          sent_at = 1.5 };
    ]
  in
  List.iter
    (fun rep ->
      match Wire_codec.decode_report (Wire_codec.encode_report rep) with
      | Ok rep' -> Alcotest.(check bool) "roundtrip equal" true (Types.equal_report rep rep')
      | Error e -> Alcotest.fail e)
    samples

let test_codec_rejects_garbage () =
  List.iter
    (fun data ->
      (match Wire_codec.decode_signed_list data with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage accepted as signed list");
      match Wire_codec.decode_query data with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage accepted as query")
    [ Bytes.empty; Bytes.of_string "x"; Bytes.make 40 '\255' ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let peer_gen =
  QCheck.map
    (fun (id, addr) -> Peer.make ~id ~addr)
    QCheck.(pair (int_bound ((1 lsl 40) - 1)) (int_bound 4095))

let prop_peer_codec_roundtrip =
  QCheck.Test.make ~name:"peer codec roundtrip" ~count:300 peer_gen (fun p ->
      let module W = Octo_crypto.Codec.Writer in
      let module R = Octo_crypto.Codec.Reader in
      let w = W.create () in
      Wire_codec.encode_peer w p;
      let r = R.create (W.contents w) in
      Peer.equal p (Wire_codec.decode_peer r))

let prop_query_codec_roundtrip =
  let query_gen =
    QCheck.oneof
      [
        QCheck.map (fun key -> Types.Q_get { key }) QCheck.(int_bound max_int);
        QCheck.map
          (fun (key, v) -> Types.Q_put { key; value = Bytes.of_string v })
          QCheck.(pair (int_bound max_int) string);
        QCheck.map (fun s -> Types.Q_echo (Bytes.of_string s)) QCheck.string;
        QCheck.map
          (fun (seed, length) -> Types.Q_phase2 { seed; length })
          QCheck.(pair (int_bound 1_000_000) (int_bound 100));
      ]
  in
  QCheck.Test.make ~name:"query codec roundtrip" ~count:300 query_gen (fun q ->
      match Wire_codec.decode_query (Wire_codec.encode_query q) with
      | Ok q' -> q = q'
      | Error _ -> false)

let prop_f64_roundtrip =
  QCheck.Test.make ~name:"f64 codec roundtrip" ~count:300 QCheck.float (fun v ->
      let module W = Octo_crypto.Codec.Writer in
      let module R = Octo_crypto.Codec.Reader in
      let w = W.create () in
      W.f64 w v;
      let got = R.f64 (R.create (W.contents w)) in
      (Float.is_nan v && Float.is_nan got) || got = v)

(* ------------------------------------------------------------------ *)
(* Entropy metrics *)

let test_entropy_metrics () =
  let module E = Octo_anonymity.Entropy in
  Alcotest.(check (float 1e-9)) "uniform 8" 3.0 (E.shannon (E.uniform 8));
  Alcotest.(check (float 1e-9)) "certainty" 0.0 (E.shannon [ 1.0 ]);
  Alcotest.(check (float 1e-9)) "degree uniform" 1.0 (E.degree (E.uniform 16));
  Alcotest.(check bool) "degree skewed < 1" true (E.degree [ 0.9; 0.05; 0.05 ] < 1.0);
  Alcotest.(check (float 1e-9)) "min entropy" 1.0 (E.min_entropy [ 0.5; 0.25; 0.25 ]);
  Alcotest.(check (float 1e-6)) "effective size" 8.0 (E.effective_set_size (E.uniform 8));
  Alcotest.(check bool) "normalization ignores scale" true
    (Float.abs (E.shannon [ 2.0; 2.0 ] -. 1.0) < 1e-9);
  let mixed = E.mix 0.5 [ 1.0; 0.0 ] [ 0.0; 1.0 ] in
  Alcotest.(check (float 1e-9)) "mix is uniform" 1.0 (E.shannon mixed)

let () =
  Alcotest.run "octopus-store-circuits-codec"
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
      ( "codec",
        [
          Alcotest.test_case "primitives roundtrip" `Quick test_codec_primitives_roundtrip;
          Alcotest.test_case "truncation raises" `Quick test_codec_truncation_raises;
          Alcotest.test_case "signed list roundtrip" `Quick test_signed_list_codec_roundtrip;
          Alcotest.test_case "signed table roundtrip" `Quick test_signed_table_codec_roundtrip;
          Alcotest.test_case "query roundtrip" `Quick test_query_codec_roundtrip;
          Alcotest.test_case "report roundtrip" `Quick test_report_codec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        ]
        @ qsuite [ prop_peer_codec_roundtrip; prop_query_codec_roundtrip; prop_f64_roundtrip ] );
      ("entropy", [ Alcotest.test_case "metrics" `Quick test_entropy_metrics ]);
    ]
