(* Tests for the Halo / NISAN / Torsk baseline lookups. *)

open Octo_baselines
module Peer = Octo_chord.Peer
module Id = Octo_chord.Id
module Network = Octo_chord.Network
module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Latency = Octo_sim.Latency

let make_network ?(n = 250) ?(seed = 42) () =
  let engine = Engine.create ~seed () in
  let latency = Latency.create (Rng.split (Engine.rng engine)) ~n in
  (engine, Network.create engine latency ~n)

(* A ring with a fifth of its slots killed and never repaired, plus a
   fixed initiator and key: lookups through it hit dead hops, so their
   results depend on every RPC timeout along the way. *)
let damaged_case ?(install = fun _ -> ()) () =
  let engine, net = make_network ~n:120 ~seed:110 () in
  install net;
  let kill_rng = Rng.create ~seed:210 in
  for _ = 1 to 24 do
    Network.kill net (Rng.int kill_rng 120)
  done;
  let from = Network.random_alive net (Rng.create ~seed:310) in
  let key = Id.random (Network.space net) (Rng.create ~seed:410) in
  (engine, net, from, key)

let addr_of = function Some p -> p.Peer.addr | None -> -1
let hex = Printf.sprintf "%h"

(* ------------------------------------------------------------------ *)
(* Halo *)

let test_halo_correct () =
  let engine, net = make_network () in
  let rng = Rng.create ~seed:7 in
  let ok = ref 0 and total = 20 in
  for _ = 1 to total do
    let from = Network.random_alive net rng in
    let key = Id.random (Network.space net) rng in
    let expected = Network.find_owner net ~key in
    Halo.lookup net ~from ~key (fun result ->
        match (result.Halo.owner, expected) with
        | Some got, Some want when Peer.equal got want -> incr ok
        | _ -> ())
  done;
  Engine.run_until_idle engine ();
  Alcotest.(check int) "all halo lookups correct" total !ok

let test_halo_issues_redundant_searches () =
  let engine, net = make_network () in
  let rng = Rng.create ~seed:8 in
  let key = Id.random (Network.space net) rng in
  let flat = ref None and deep = ref None in
  Halo.lookup net ~from:0 ~key ~knuckles:8 ~redundancy:4 ~depth:1 (fun r -> flat := Some r);
  Halo.lookup net ~from:1 ~key ~knuckles:8 ~redundancy:4 ~depth:2 (fun r -> deep := Some r);
  Engine.run_until_idle engine ();
  match (!flat, !deep) with
  | Some f, Some d ->
    Alcotest.(check int) "8x4 flat sub-lookups" 32 f.Halo.sub_lookups;
    Alcotest.(check bool) "degree-2 fans out further" true (d.Halo.sub_lookups > 32)
  | _ -> Alcotest.fail "no result"

let test_halo_slower_than_chord () =
  (* Halo waits for all redundant searches: its completion time dominates
     a single chord lookup from the same node for the same key. *)
  let engine, net = make_network ~seed:9 () in
  let rng = Rng.create ~seed:10 in
  let slower = ref 0 and total = 12 in
  for i = 1 to total do
    let key = Id.random (Network.space net) rng in
    let from = Network.random_alive net rng in
    let chord_t = ref 0.0 and halo_t = ref 0.0 in
    Octo_chord.Lookup.run net ~from ~key (fun r -> chord_t := r.Octo_chord.Lookup.elapsed);
    Halo.lookup net ~from ~key (fun r -> halo_t := r.Halo.elapsed);
    Engine.run_until_idle engine ();
    ignore i;
    if !halo_t >= !chord_t then incr slower
  done;
  Alcotest.(check bool)
    (Printf.sprintf "halo slower in %d/%d" !slower total)
    true
    (!slower >= total - 1)

let test_castro_correct () =
  let engine, net = make_network ~seed:21 () in
  let rng = Rng.create ~seed:22 in
  let ok = ref 0 and total = 20 in
  for _ = 1 to total do
    let from = Network.random_alive net rng in
    let key = Id.random (Network.space net) rng in
    let expected = Network.find_owner net ~key in
    Castro.lookup net ~from ~key (fun result ->
        match (result.Castro.owner, expected) with
        | Some got, Some want when Peer.equal got want -> incr ok
        | _ -> ())
  done;
  Engine.run_until_idle engine ();
  Alcotest.(check int) "all castro lookups correct" total !ok

let test_castro_agreement () =
  let engine, net = make_network ~seed:23 () in
  let rng = Rng.create ~seed:24 in
  let strong = ref 0 and total = 15 in
  for _ = 1 to total do
    let from = Network.random_alive net rng in
    let key = Id.random (Network.space net) rng in
    Castro.lookup net ~from ~key ~redundancy:4 (fun result ->
        if result.Castro.agreement >= 3 then incr strong)
  done;
  Engine.run_until_idle engine ();
  Alcotest.(check bool)
    (Printf.sprintf "redundant answers agree (%d/%d strong)" !strong total)
    true
    (!strong >= total - 1)

let test_castro_pinned () =
  let engine, net, from, key = damaged_case () in
  let got = ref None in
  Castro.lookup net ~from ~key (fun r -> got := Some r);
  Engine.run_until_idle engine ();
  match !got with
  | Some r ->
    Alcotest.(check int) "owner" 98 (addr_of r.Castro.owner);
    Alcotest.(check int) "agreement" 4 r.Castro.agreement;
    Alcotest.(check string) "elapsed" "0x1.ef0ea24bf9c22p+1" (hex r.Castro.elapsed)
  | None -> Alcotest.fail "no result"

(* ------------------------------------------------------------------ *)
(* NISAN *)

let test_nisan_correct () =
  let engine, net = make_network ~seed:11 () in
  let rng = Rng.create ~seed:12 in
  let ok = ref 0 and total = 25 in
  for _ = 1 to total do
    let from = Network.random_alive net rng in
    let key = Id.random (Network.space net) rng in
    let expected = Network.find_owner net ~key in
    Nisan.lookup net ~from ~key (fun result ->
        match (result.Nisan.owner, expected) with
        | Some got, Some want when Peer.equal got want -> incr ok
        | _ -> ())
  done;
  Engine.run_until_idle engine ();
  Alcotest.(check int) "all nisan lookups correct" total !ok

let test_nisan_rejects_wild_tables () =
  (* With a very tight tolerance every honest table looks implausible and
     gets rejected — exercising the rejection path end-to-end. *)
  let engine, net = make_network ~seed:13 () in
  let rng = Rng.create ~seed:14 in
  let key = Id.random (Network.space net) rng in
  let got = ref None in
  Nisan.lookup net ~from:0 ~key ~tolerance:0.0001 (fun r -> got := Some r);
  Engine.run_until_idle engine ();
  match !got with
  | Some r ->
    Alcotest.(check bool) "rejections counted" true (r.Nisan.rejected > 0)
  | None -> Alcotest.fail "no result"

let test_nisan_pinned () =
  let engine, net, from, key = damaged_case () in
  let got = ref None in
  Nisan.lookup net ~from ~key (fun r -> got := Some r);
  Engine.run_until_idle engine ();
  match !got with
  | Some r ->
    Alcotest.(check int) "initiator" 35 from;
    Alcotest.(check int) "owner" 98 (addr_of r.Nisan.owner);
    Alcotest.(check int) "hops" 3 r.Nisan.hops;
    Alcotest.(check int) "rejected" 0 r.Nisan.rejected;
    Alcotest.(check string) "elapsed" "0x1.146423a674854p+1" (hex r.Nisan.elapsed)
  | None -> Alcotest.fail "no result"

(* ------------------------------------------------------------------ *)
(* Torsk *)

let test_torsk_correct () =
  let engine, net = make_network ~seed:15 () in
  Torsk.install net;
  let rng = Rng.create ~seed:16 in
  let ok = ref 0 and buddies = ref [] and total = 20 in
  for _ = 1 to total do
    let from = Network.random_alive net rng in
    let key = Id.random (Network.space net) rng in
    let expected = Network.find_owner net ~key in
    Torsk.lookup net ~from ~key (fun result ->
        Option.iter (fun b -> buddies := b :: !buddies) result.Torsk.buddy;
        match (result.Torsk.owner, expected) with
        | Some got, Some want when Peer.equal got want -> incr ok
        | _ -> ())
  done;
  Engine.run_until_idle engine ();
  Alcotest.(check int) "all torsk lookups correct" total !ok;
  Alcotest.(check int) "every lookup used a buddy" total (List.length !buddies)

let test_torsk_walk_length () =
  let engine, net = make_network ~seed:17 () in
  Torsk.install net;
  let rng = Rng.create ~seed:18 in
  let key = Id.random (Network.space net) rng in
  let got = ref None in
  Torsk.lookup net ~from:3 ~key ~walk_length:5 (fun r -> got := Some r);
  Engine.run_until_idle engine ();
  match !got with
  | Some r -> Alcotest.(check int) "walk hops" 5 r.Torsk.walk_hops
  | None -> Alcotest.fail "no result"

let test_torsk_buddy_differs_from_initiator () =
  let engine, net = make_network ~seed:19 () in
  Torsk.install net;
  let rng = Rng.create ~seed:20 in
  let ok = ref true in
  for _ = 1 to 15 do
    let from = Network.random_alive net rng in
    let key = Id.random (Network.space net) rng in
    Torsk.lookup net ~from ~key (fun result ->
        match result.Torsk.buddy with
        | Some b when b.Peer.addr = from -> ok := false
        | Some _ | None -> ())
  done;
  Engine.run_until_idle engine ();
  Alcotest.(check bool) "buddies are other nodes" true !ok

let test_torsk_pinned () =
  let engine, net, from, key = damaged_case ~install:Torsk.install () in
  let got = ref None in
  Torsk.lookup net ~from ~key (fun r -> got := Some r);
  Engine.run_until_idle engine ();
  match !got with
  | Some r ->
    Alcotest.(check int) "owner" 98 (addr_of r.Torsk.owner);
    Alcotest.(check int) "buddy" 2 (addr_of r.Torsk.buddy);
    Alcotest.(check int) "walk hops" 3 r.Torsk.walk_hops;
    Alcotest.(check string) "elapsed" "0x1.564487a876a0ap+1" (hex r.Torsk.elapsed)
  | None -> Alcotest.fail "no result"

let () =
  Alcotest.run "octo_baselines"
    [
      ( "halo",
        [
          Alcotest.test_case "correct" `Quick test_halo_correct;
          Alcotest.test_case "8x4 redundancy" `Quick test_halo_issues_redundant_searches;
          Alcotest.test_case "slower than chord" `Quick test_halo_slower_than_chord;
        ] );
      ( "castro",
        [
          Alcotest.test_case "correct" `Quick test_castro_correct;
          Alcotest.test_case "agreement" `Quick test_castro_agreement;
          Alcotest.test_case "pinned lookup" `Quick test_castro_pinned;
        ] );
      ( "nisan",
        [
          Alcotest.test_case "correct" `Quick test_nisan_correct;
          Alcotest.test_case "rejects wild tables" `Quick test_nisan_rejects_wild_tables;
          Alcotest.test_case "pinned lookup" `Quick test_nisan_pinned;
        ] );
      ( "torsk",
        [
          Alcotest.test_case "correct" `Quick test_torsk_correct;
          Alcotest.test_case "walk length" `Quick test_torsk_walk_length;
          Alcotest.test_case "buddy differs" `Quick test_torsk_buddy_differs_from_initiator;
          Alcotest.test_case "pinned lookup" `Quick test_torsk_pinned;
        ] );
    ]
