(* Tests for the Chord substrate: id arithmetic, routing tables, network
   bootstrap invariants, iterative lookup correctness (including under
   failures and churn), stabilization, and bound checking. *)

open Octo_chord
module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Latency = Octo_sim.Latency

let space16 = Id.space ~bits:16

(* ------------------------------------------------------------------ *)
(* Id *)

let test_id_add_sub () =
  let s = space16 in
  Alcotest.(check int) "wrap add" 1 (Id.add s 65534 3);
  Alcotest.(check int) "wrap sub" 65534 (Id.sub s 1 3);
  Alcotest.(check int) "distance wrap" 5 (Id.distance_cw s 65534 3)

let test_id_between () =
  let s = space16 in
  Alcotest.(check bool) "inside" true (Id.between s 5 ~lo:1 ~hi:10);
  Alcotest.(check bool) "hi inclusive" true (Id.between s 10 ~lo:1 ~hi:10);
  Alcotest.(check bool) "lo exclusive" false (Id.between s 1 ~lo:1 ~hi:10);
  Alcotest.(check bool) "outside" false (Id.between s 11 ~lo:1 ~hi:10);
  Alcotest.(check bool) "wrapping inside" true (Id.between s 2 ~lo:65000 ~hi:10);
  Alcotest.(check bool) "wrapping outside" false (Id.between s 30000 ~lo:65000 ~hi:10);
  Alcotest.(check bool) "full ring" true (Id.between s 42 ~lo:7 ~hi:7)

let test_id_between_open () =
  let s = space16 in
  Alcotest.(check bool) "hi exclusive" false (Id.between_open s 10 ~lo:1 ~hi:10);
  Alcotest.(check bool) "inside" true (Id.between_open s 9 ~lo:1 ~hi:10);
  Alcotest.(check bool) "degenerate excludes lo" false (Id.between_open s 7 ~lo:7 ~hi:7);
  Alcotest.(check bool) "degenerate includes others" true (Id.between_open s 8 ~lo:7 ~hi:7)

let test_id_ideal_fingers () =
  let s = space16 in
  let nf = 12 in
  let fingers = List.init nf (fun i -> Id.ideal_finger s 0 ~num_fingers:nf i) in
  (* Spans double per index; top finger is half the ring. *)
  Alcotest.(check int) "top finger" (65536 / 2) (List.nth fingers (nf - 1));
  Alcotest.(check int) "bottom finger" (1 lsl (16 - nf)) (List.nth fingers 0);
  let rec doubling = function
    | a :: b :: rest -> b = 2 * a && doubling (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "doubling spans" true (doubling fingers)

let prop_id_distance_roundtrip =
  QCheck.Test.make ~name:"add a (distance_cw a b) = b" ~count:500
    QCheck.(pair (int_bound 65535) (int_bound 65535))
    (fun (a, b) -> Id.add space16 a (Id.distance_cw space16 a b) = b)

let prop_id_between_split =
  QCheck.Test.make ~name:"x in (lo,hi] xor x in (hi,lo] (x<>lo,hi)" ~count:500
    QCheck.(triple (int_bound 65535) (int_bound 65535) (int_bound 65535))
    (fun (x, lo, hi) ->
      QCheck.assume (x <> lo && x <> hi && lo <> hi);
      Bool.not (Id.between space16 x ~lo ~hi = Id.between space16 x ~lo:hi ~hi:lo))

(* ------------------------------------------------------------------ *)
(* Peer / Rtable *)

let peer id addr = Peer.make ~id ~addr

let test_peer_sort_cw () =
  let peers = [ peer 100 0; peer 50 1; peer 200 2; peer 50 3 ] in
  let sorted = Peer.sort_cw space16 ~from:60 peers in
  Alcotest.(check (list int)) "cw order, deduped by id" [ 100; 200; 50 ]
    (List.map (fun p -> p.Peer.id) sorted)

let test_peer_sort_ccw () =
  let peers = [ peer 100 0; peer 50 1; peer 200 2 ] in
  let sorted = Peer.sort_ccw space16 ~from:60 peers in
  Alcotest.(check (list int)) "ccw order" [ 50; 200; 100 ]
    (List.map (fun p -> p.Peer.id) sorted)

(* Reference for [sort_cw]/[sort_ccw]: the same stable sort, then a
   hash-table pass that keeps the first peer seen with each id. *)
let ref_sorted_dedupe dist peers =
  let seen = Hashtbl.create 16 in
  List.sort (fun a b -> Int.compare (dist a) (dist b)) peers
  |> List.filter (fun p ->
         if Hashtbl.mem seen p.Peer.id then false
         else begin
           Hashtbl.add seen p.Peer.id ();
           true
         end)

(* Ids from a 64-id window so duplicates are common; [from] anywhere on
   the ring, the window included. *)
let prop_peer_sort_dedupe =
  QCheck.Test.make ~name:"sort_cw/sort_ccw dedupe = hash-table dedupe" ~count:500
    QCheck.(
      pair (int_bound 65535)
        (pair (int_bound 65535) (small_list (pair (int_bound 63) (int_bound 5)))))
    (fun (from, (base, ids)) ->
      let peers = List.map (fun (d, addr) -> peer (Id.add space16 base d) addr) ids in
      let same = List.equal Peer.equal in
      same (Peer.sort_cw space16 ~from peers)
        (ref_sorted_dedupe (fun p -> Id.distance_cw space16 from p.Peer.id) peers)
      && same (Peer.sort_ccw space16 ~from peers)
           (ref_sorted_dedupe (fun p -> Id.distance_cw space16 p.Peer.id from) peers))

let make_rt ?(list_size = 3) owner_id =
  Rtable.create space16 ~owner:(peer owner_id 99) ~num_fingers:8 ~list_size

let test_rtable_set_succs () =
  let rt = make_rt 0 in
  Rtable.set_succs rt [ peer 300 3; peer 100 1; peer 0 99; peer 200 2; peer 400 4 ];
  Alcotest.(check (list int)) "sorted, truncated, no self" [ 100; 200; 300 ]
    (List.map (fun p -> p.Peer.id) (Rtable.succs rt));
  Alcotest.(check (option int)) "successor" (Some 100)
    (Option.map (fun p -> p.Peer.id) (Rtable.successor rt))

let test_rtable_set_preds () =
  let rt = make_rt 0 in
  Rtable.set_preds rt [ peer 65000 1; peer 64000 2; peer 100 3; peer 63000 4 ];
  Alcotest.(check (list int)) "ccw sorted" [ 65000; 64000; 63000 ]
    (List.map (fun p -> p.Peer.id) (Rtable.preds rt))

let test_rtable_merge_remove () =
  let rt = make_rt 0 in
  Rtable.set_succs rt [ peer 100 1; peer 200 2 ];
  Rtable.merge_succs rt [ peer 50 5; peer 300 3 ];
  Alcotest.(check (list int)) "merged keeps closest" [ 50; 100; 200 ]
    (List.map (fun p -> p.Peer.id) (Rtable.succs rt));
  Rtable.remove rt ~addr:5;
  Alcotest.(check (list int)) "removed" [ 100; 200 ]
    (List.map (fun p -> p.Peer.id) (Rtable.succs rt))

(* A member set equal to the stored one keeps the stored list itself,
   whether the candidates come reordered, with duplicates or with the
   owner among them; a new member replaces it. *)
let test_rtable_keeps_unchanged_lists () =
  let ids l = List.map (fun p -> p.Peer.id) l in
  let rt = make_rt 0 in
  Rtable.set_succs rt [ peer 100 1; peer 200 2; peer 300 3 ];
  let before = Rtable.succs rt in
  Rtable.set_succs rt [ peer 300 3; peer 100 1; peer 0 99; peer 200 2; peer 100 1 ];
  Alcotest.(check bool) "set_succs: same members keep the list" true (Rtable.succs rt == before);
  Rtable.merge_succs rt [ peer 200 2; peer 400 4 ];
  Alcotest.(check bool) "merge_succs: nothing closer keeps the list" true
    (Rtable.succs rt == before);
  Rtable.remove rt ~addr:42;
  Alcotest.(check bool) "remove: absent peer keeps the list" true (Rtable.succs rt == before);
  Rtable.set_succs rt [ peer 50 5; peer 100 1; peer 200 2 ];
  Alcotest.(check bool) "set_succs: a new member replaces the list" false
    (Rtable.succs rt == before);
  Alcotest.(check (list int)) "new successors" [ 50; 100; 200 ] (ids (Rtable.succs rt));
  Rtable.set_preds rt [ peer 65000 1; peer 64000 2; peer 63000 4 ];
  let before = Rtable.preds rt in
  Rtable.set_preds rt [ peer 63000 4; peer 65000 1; peer 0 99; peer 64000 2; peer 64000 2 ];
  Alcotest.(check bool) "set_preds: same members keep the list" true (Rtable.preds rt == before);
  Rtable.merge_preds rt [ peer 62000 6 ];
  Alcotest.(check bool) "merge_preds: nothing closer keeps the list" true
    (Rtable.preds rt == before);
  Rtable.merge_preds rt [ peer 65500 7 ];
  Alcotest.(check bool) "merge_preds: a new member replaces the list" false
    (Rtable.preds rt == before);
  Alcotest.(check (list int)) "new predecessors" [ 65500; 65000; 64000 ] (ids (Rtable.preds rt))

(* Minor words allocated by [n] calls of [f] after one warm-up call.
   Meaningful only under the native-code compiler. *)
let minor_words_of n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. before

(* Distance from the owner, clockwise for successors and
   counter-clockwise for predecessors. *)
let owner_dist ~cw (owner : Peer.t) (p : Peer.t) =
  if cw then Id.distance_cw space16 owner.Peer.id p.Peer.id
  else Id.distance_cw space16 p.Peer.id owner.Peer.id

(* The list normalization [set_succs] and [set_preds] performed before
   they learnt to check first, kept as the reference: filter the owner
   out, stable-sort by distance from it, keep the first of each id,
   truncate to the list size. *)
let reference_list ~cw ~(owner : Peer.t) ~list_size peers =
  let dist = owner_dist ~cw owner in
  let rec dedupe = function
    | a :: (b :: _ as rest) when a.Peer.id = b.Peer.id -> dedupe (a :: List.tl rest)
    | a :: rest -> a :: dedupe rest
    | [] -> []
  in
  List.filter (fun p -> p.Peer.id <> owner.Peer.id) peers
  |> List.stable_sort (fun a b -> Int.compare (dist a) (dist b))
  |> dedupe
  |> List.filteri (fun i _ -> i < list_size)

(* Random candidate lists around an owner: ids from a 64-id window that
   holds the owner's id, so the owner and repeated ids under other
   addresses are common, often more than [list_size] of them, in any
   order. Each case sets a list from scratch, then from a second list,
   then from the stored list itself reversed with the owner, other
   addresses of its ids and farther peers added, which must keep it. *)
let prop_routing_lists_match_reference =
  let entries = QCheck.(small_list (pair (int_bound 63) (int_bound 7))) in
  QCheck.Test.make ~name:"set_succs/set_preds = reference, unchanged lists kept" ~count:500
    QCheck.(quad (int_bound 65535) (pair (int_bound 63) (int_range 1 6)) entries entries)
    (fun (base, (owner_d, list_size), first, second) ->
      let at (d, addr) = peer (Id.add space16 base d) addr in
      let owner = at (owner_d, 99) in
      let side ~cw set get =
        let rt = Rtable.create space16 ~owner ~num_fingers:8 ~list_size in
        let expect peers = reference_list ~cw ~owner ~list_size peers in
        let same = List.equal Peer.equal in
        let apply peers =
          let before = get rt in
          let want = expect peers in
          if same want before then begin
            let words = minor_words_of 1 (fun () -> set rt peers) in
            get rt == before
            && (Sys.backend_type <> Sys.Native || words = 0.0)
          end
          else begin
            set rt peers;
            same (get rt) want
          end
        in
        let first = List.map at first and second = List.map at second in
        apply first
        && apply (List.rev first @ second)
        &&
        let stored = get rt in
        let dist = owner_dist ~cw owner in
        (* The ring's farthest ids from the owner, past a full list's end. *)
        let beyond =
          match List.rev stored with
          | last :: _ when List.length stored = list_size ->
            List.filter
              (fun p -> dist p > dist last)
              (List.map
                 (fun k ->
                   let id = if cw then Id.sub space16 owner.Peer.id k else Id.add space16 owner.Peer.id k in
                   peer id (50 + k))
                 [ 1; 2 ])
          | _ -> []
        in
        let kept =
          (owner :: List.rev stored)
          @ List.map (fun p -> Peer.make ~id:p.Peer.id ~addr:(p.Peer.addr + 100)) stored
          @ beyond
        in
        apply kept && get rt == stored
      in
      side ~cw:true Rtable.set_succs Rtable.succs && side ~cw:false Rtable.set_preds Rtable.preds)

let test_rtable_covers () =
  let rt = make_rt 0 in
  Rtable.set_succs rt [ peer 100 1; peer 200 2; peer 300 3 ];
  let covers key = Option.map (fun p -> p.Peer.id) (Rtable.covers rt ~key) in
  Alcotest.(check (option int)) "first span" (Some 100) (covers 50);
  Alcotest.(check (option int)) "exact" (Some 100) (covers 100);
  Alcotest.(check (option int)) "second span" (Some 200) (covers 150);
  Alcotest.(check (option int)) "third span" (Some 300) (covers 250);
  Alcotest.(check (option int)) "beyond list" None (covers 350)

(* ------------------------------------------------------------------ *)
(* Network bootstrap + Lookup *)

let make_network ?(n = 200) ?(seed = 42) () =
  let engine = Engine.create ~seed () in
  let lat_rng = Rng.split (Engine.rng engine) in
  let latency = Latency.create lat_rng ~n in
  let net = Network.create engine latency ~n in
  (engine, net)

let test_bootstrap_successors () =
  let _, net = make_network () in
  (* Every node's first successor must be the globally next id. *)
  let peers =
    List.init (Network.size net) (fun a -> (Network.node net a).Network.peer)
    |> List.sort (fun a b -> compare a.Peer.id b.Peer.id)
    |> Array.of_list
  in
  let n = Array.length peers in
  Array.iteri
    (fun i p ->
      let node = Network.node net p.Peer.addr in
      let succ = Option.get (Rtable.successor node.Network.rt) in
      Alcotest.(check int) "ring successor" peers.((i + 1) mod n).Peer.id succ.Peer.id)
    peers

let test_bootstrap_fingers () =
  let _, net = make_network () in
  let space = Network.space net in
  (* Spot-check: every finger is the true successor of its ideal id. *)
  for addr = 0 to 20 do
    let node = Network.node net addr in
    for i = 0 to Network.num_fingers - 1 do
      let ideal =
        Id.ideal_finger space node.Network.peer.Peer.id ~num_fingers:Network.num_fingers i
      in
      let expected = Option.get (Network.find_owner net ~key:ideal) in
      match Rtable.finger node.Network.rt i with
      | Some f -> Alcotest.(check int) "finger is ideal successor" expected.Peer.id f.Peer.id
      | None -> Alcotest.fail "missing finger"
    done
  done

let test_find_owner_ground_truth () =
  let _, net = make_network ~n:50 () in
  let space = Network.space net in
  let owner = Option.get (Network.find_owner net ~key:12345) in
  (* No alive node lies strictly between the key and its owner. *)
  for addr = 0 to 49 do
    let p = (Network.node net addr).Network.peer in
    Alcotest.(check bool) "no closer node" false
      (Id.between_open space p.Peer.id ~lo:12345 ~hi:owner.Peer.id
      && p.Peer.id <> owner.Peer.id)
  done

let run_lookups net engine ~count ~seed =
  let rng = Rng.create ~seed in
  let space = Network.space net in
  let ok = ref 0 and total = ref 0 and max_hops = ref 0 in
  for _ = 1 to count do
    let from = Network.random_alive net rng in
    let key = Id.random space rng in
    let expected = Network.find_owner net ~key in
    incr total;
    Lookup.run net ~from ~key (fun result ->
        max_hops := max !max_hops result.Lookup.hops;
        match (result.Lookup.owner, expected) with
        | Some got, Some want when got.Peer.id = want.Peer.id -> incr ok
        | _ -> ())
  done;
  Engine.run_until_idle engine ();
  (!ok, !total, !max_hops)

let test_lookup_correct_static () =
  let engine, net = make_network ~n:300 () in
  let ok, total, max_hops = run_lookups net engine ~count:200 ~seed:7 in
  Alcotest.(check int) "all lookups correct" total ok;
  Alcotest.(check bool) "hop count reasonable" true (max_hops <= 20)

let test_lookup_own_key () =
  let engine, net = make_network ~n:100 () in
  let results = ref [] in
  for addr = 0 to 20 do
    let me = (Network.node net addr).Network.peer in
    Lookup.run net ~from:addr ~key:me.Peer.id (fun r ->
        results := (me, r.Lookup.owner) :: !results)
  done;
  Engine.run_until_idle engine ();
  List.iter
    (fun (me, owner) ->
      Alcotest.(check (option int)) "own key owned by self" (Some me.Peer.id)
        (Option.map (fun p -> p.Peer.id) owner))
    !results

let test_lookup_with_failures () =
  let engine, net = make_network ~n:300 ~seed:3 () in
  let rng = Rng.create ~seed:8 in
  (* Kill 10% of nodes without telling anyone; lookups must route around
     them via timeouts and retries. *)
  let killed = Octo_sim.Rng.sample rng ~k:30 (Array.init 300 (fun i -> i)) in
  Array.iter (fun addr -> Network.kill net addr) killed;
  let ok = ref 0 and total = ref 0 in
  for _ = 1 to 60 do
    let from = Network.random_alive net rng in
    let key = Id.random (Network.space net) rng in
    let expected = Network.find_owner net ~key in
    incr total;
    Lookup.run net ~from ~key (fun result ->
        match (result.Lookup.owner, expected) with
        | Some got, Some want when got.Peer.id = want.Peer.id -> incr ok
        | _ -> ())
  done;
  Engine.run_until_idle engine ();
  (* Dead nodes can still be *returned* as owners (stale successor lists),
     so demand a high success rate rather than perfection. *)
  Alcotest.(check bool)
    (Printf.sprintf "most lookups correct (%d/%d)" !ok !total)
    true
    (float_of_int !ok /. float_of_int !total >= 0.85)

let test_lookup_hops_scale () =
  let engine, net = make_network ~n:500 ~seed:11 () in
  let rng = Rng.create ~seed:12 in
  let hops = ref 0 and total = ref 0 in
  for _ = 1 to 100 do
    let from = Network.random_alive net rng in
    let key = Id.random (Network.space net) rng in
    Lookup.run net ~from ~key (fun r ->
        hops := !hops + r.Lookup.hops;
        incr total)
  done;
  Engine.run_until_idle engine ();
  let avg = float_of_int !hops /. float_of_int !total in
  (* ~0.5 log2 500 ~ 4.5; the successor-list tail shortens it further. *)
  Alcotest.(check bool) (Printf.sprintf "avg hops %.2f sane" avg) true
    (avg > 1.0 && avg < 10.0)

(* ------------------------------------------------------------------ *)
(* Stabilization *)

let test_stabilize_evicts_dead_successor () =
  let engine, net = make_network ~n:100 ~seed:21 () in
  Stabilize.start net ~stabilize_every:2.0 ~fingers_every:1000.0 ();
  (* Kill node 5's successor. *)
  let node5 = Network.node net 5 in
  let succ = Option.get (Rtable.successor node5.Network.rt) in
  Network.kill net succ.Peer.addr;
  Engine.run engine ~until:30.0;
  let succs_now = Rtable.succs node5.Network.rt in
  Alcotest.(check bool) "dead successor evicted" false
    (List.exists (fun p -> p.Peer.addr = succ.Peer.addr) succs_now);
  Alcotest.(check bool) "list refilled" true (List.length succs_now >= 3)

let test_stabilize_repairs_ring () =
  let engine, net = make_network ~n:150 ~seed:22 () in
  Stabilize.start net ();
  let rng = Rng.create ~seed:23 in
  let victims = Octo_sim.Rng.sample rng ~k:15 (Array.init 150 (fun i -> i)) in
  Array.iter (Network.kill net) victims;
  Engine.run engine ~until:60.0;
  (* After stabilization, every alive node's successor is the next alive id. *)
  let alive =
    List.filter_map
      (fun a ->
        let n = Network.node net a in
        if n.Network.alive then Some n.Network.peer else None)
      (List.init 150 (fun i -> i))
    |> List.sort (fun a b -> compare a.Peer.id b.Peer.id)
    |> Array.of_list
  in
  let n = Array.length alive in
  let errors = ref 0 in
  Array.iteri
    (fun i p ->
      let node = Network.node net p.Peer.addr in
      match Rtable.successor node.Network.rt with
      | Some s when s.Peer.id = alive.((i + 1) mod n).Peer.id -> ()
      | _ -> incr errors)
    alive;
  Alcotest.(check int) "ring fully repaired" 0 !errors

(* ------------------------------------------------------------------ *)
(* Bounds *)

let test_bounds_honest_table_passes () =
  let _, net = make_network ~n:300 ~seed:31 () in
  let node = Network.node net 0 in
  let gap = Bounds.estimated_gap node.Network.rt in
  Alcotest.(check bool) "gap positive" true (gap > 0.0);
  let failures = ref 0 in
  for addr = 0 to 99 do
    let table = Network.snapshot net addr in
    if
      not
        (Bounds.check_table (Network.space net)
           ~num_fingers:Network.num_fingers ~gap table)
    then incr failures
  done;
  Alcotest.(check int) "honest tables pass" 0 !failures

let test_bounds_manipulated_finger_fails () =
  let _, net = make_network ~n:300 ~seed:32 () in
  let space = Network.space net in
  let node = Network.node net 0 in
  let gap = Bounds.estimated_gap node.Network.rt in
  let table = Network.snapshot net 1 in
  (* Deflect the smallest finger far past its ideal position. *)
  let bad_id = Id.add space (Network.snapshot net 1).Proto.owner.Peer.id 77777 in
  let fingers =
    match table.Proto.fingers with
    | _ :: rest -> Some (Peer.make ~id:bad_id ~addr:250) :: rest
    | [] -> []
  in
  let manipulated = { table with Proto.fingers } in
  Alcotest.(check bool) "manipulated finger detected" false
    (Bounds.check_table space ~num_fingers:Network.num_fingers ~gap
       manipulated)

let test_bounds_estimated_gap_accuracy () =
  let _, net = make_network ~n:400 ~seed:33 () in
  let space = Network.space net in
  let true_gap = float_of_int (Id.size space) /. 400.0 in
  (* Average the estimate over many nodes: should be within 2x. *)
  let total = ref 0.0 in
  for addr = 0 to 99 do
    total := !total +. Bounds.estimated_gap (Network.node net addr).Network.rt
  done;
  let avg = !total /. 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "gap estimate %.0f vs true %.0f" avg true_gap)
    true
    (avg > 0.5 *. true_gap && avg < 2.0 *. true_gap)

let prop_covers_agrees_with_ownership =
  QCheck.Test.make ~name:"covers returns the first successor of the key" ~count:300
    QCheck.(pair (int_bound 65535) (small_list (int_bound 65535)))
    (fun (key, ids) ->
      QCheck.assume (ids <> []);
      let rt = make_rt ~list_size:10 0 in
      Rtable.set_succs rt (List.mapi (fun i id -> peer id (i + 1)) ids);
      match Rtable.covers rt ~key with
      | None -> true
      | Some owner ->
        (* A successor whose id is exactly the key owns it outright; the
           strictly-between check below cannot express that case because
           (n, n) means "the whole ring minus n" by ring convention. *)
        owner.Peer.id = key
        || (* No retained successor lies strictly between the key and the
              returned owner. *)
        List.for_all
          (fun p ->
            not (Id.between_open space16 p.Peer.id ~lo:key ~hi:owner.Peer.id))
          (Rtable.succs rt)
        && Id.between space16 owner.Peer.id ~lo:key ~hi:owner.Peer.id)

let test_proto_sizes () =
  let table = { Proto.owner = peer 1 1; fingers = [ Some (peer 2 2); None ]; succs = [ peer 3 3 ]; sent_at = 0.0 } in
  Alcotest.(check bool) "resp > req" true
    (Proto.size (Proto.Table_resp { rid = 1; table }) > Proto.size (Proto.Table_req { rid = 1 }));
  Alcotest.(check bool) "sizes positive" true
    (List.for_all
       (fun m -> Proto.size m > 0)
       [
         Proto.Table_req { rid = 1 };
         Proto.Succs_req { rid = 1; from = peer 1 1 };
         Proto.Succs_resp { rid = 1; succs = [ peer 2 2 ] };
         Proto.Preds_req { rid = 1; from = peer 1 1 };
       ])

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "octo_chord"
    [
      ( "id",
        [
          Alcotest.test_case "add/sub wrap" `Quick test_id_add_sub;
          Alcotest.test_case "between" `Quick test_id_between;
          Alcotest.test_case "between_open" `Quick test_id_between_open;
          Alcotest.test_case "ideal fingers" `Quick test_id_ideal_fingers;
        ]
        @ qsuite [ prop_id_distance_roundtrip; prop_id_between_split ] );
      ( "rtable",
        [
          Alcotest.test_case "peer sort cw" `Quick test_peer_sort_cw;
          Alcotest.test_case "peer sort ccw" `Quick test_peer_sort_ccw;
          Alcotest.test_case "set_succs" `Quick test_rtable_set_succs;
          Alcotest.test_case "set_preds" `Quick test_rtable_set_preds;
          Alcotest.test_case "merge/remove" `Quick test_rtable_merge_remove;
          Alcotest.test_case "unchanged lists kept" `Quick test_rtable_keeps_unchanged_lists;
          Alcotest.test_case "covers" `Quick test_rtable_covers;
        ]
        @ qsuite
            [
              prop_peer_sort_dedupe;
              prop_routing_lists_match_reference;
              prop_covers_agrees_with_ownership;
            ]
        @ [ Alcotest.test_case "proto sizes" `Quick test_proto_sizes ] );
      ( "network",
        [
          Alcotest.test_case "bootstrap successors" `Quick test_bootstrap_successors;
          Alcotest.test_case "bootstrap fingers" `Quick test_bootstrap_fingers;
          Alcotest.test_case "find_owner ground truth" `Quick test_find_owner_ground_truth;
        ] );
      ( "lookup",
        [
          Alcotest.test_case "correct on static ring" `Quick test_lookup_correct_static;
          Alcotest.test_case "own key" `Quick test_lookup_own_key;
          Alcotest.test_case "routes around failures" `Quick test_lookup_with_failures;
          Alcotest.test_case "hop count scales" `Quick test_lookup_hops_scale;
        ] );
      ( "stabilize",
        [
          Alcotest.test_case "evicts dead successor" `Quick test_stabilize_evicts_dead_successor;
          Alcotest.test_case "repairs ring" `Quick test_stabilize_repairs_ring;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "honest passes" `Quick test_bounds_honest_table_passes;
          Alcotest.test_case "manipulated fails" `Quick test_bounds_manipulated_finger_fails;
          Alcotest.test_case "gap accuracy" `Quick test_bounds_estimated_gap_accuracy;
        ] );
    ]
