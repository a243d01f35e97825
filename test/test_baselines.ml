(* Tests for the Halo baseline lookup. *)

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
let damaged_case () =
  let engine, net = make_network ~n:120 ~seed:110 () in
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

(* Halo over the damaged ring, then a plain Chord lookup over a fresh copy
   of it: both results are pinned to the bit, so any change to the RPC
   timeout path shows. *)
let test_halo_pinned () =
  let engine, net, from, key = damaged_case () in
  let halo = ref None in
  Halo.lookup net ~from ~key (fun r -> halo := Some r);
  Engine.run_until_idle engine ();
  (match !halo with
  | Some r ->
    Alcotest.(check int) "initiator" 35 from;
    Alcotest.(check int) "halo owner" 98 (addr_of r.Halo.owner);
    Alcotest.(check int) "sub-lookups" 128 r.Halo.sub_lookups;
    Alcotest.(check string) "halo elapsed" "0x1.c2c5cce1f31efp+2" (hex r.Halo.elapsed)
  | None -> Alcotest.fail "no halo result");
  let engine, net, from, key = damaged_case () in
  let chord = ref None in
  Octo_chord.Lookup.run net ~from ~key (fun r -> chord := Some r);
  Engine.run_until_idle engine ();
  match !chord with
  | Some r ->
    Alcotest.(check int) "chord owner" 98 (addr_of r.Octo_chord.Lookup.owner);
    Alcotest.(check int) "chord hops" 3 r.Octo_chord.Lookup.hops;
    Alcotest.(check string) "chord elapsed" "0x1.146423a674854p+1"
      (hex r.Octo_chord.Lookup.elapsed)
  | None -> Alcotest.fail "no chord result"

let () =
  Alcotest.run "octo_baselines"
    [
      ( "halo",
        [
          Alcotest.test_case "correct" `Quick test_halo_correct;
          Alcotest.test_case "8x4 redundancy" `Quick test_halo_issues_redundant_searches;
          Alcotest.test_case "slower than chord" `Quick test_halo_slower_than_chord;
          Alcotest.test_case "pinned lookup" `Quick test_halo_pinned;
        ] );
    ]
