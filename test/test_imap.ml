(* Model-based equivalence for Imap, the sorted-parallel-array map that
   replaced per-node Hashtbls in the population-scale refactor. Random
   operation sequences are applied to an Imap and to a Hashtbl model;
   every observation the call sites rely on must agree — including
   iteration order, which for the Hashtbl model means the sorted order
   the old code obtained through Tbl.iter_sorted. *)

module Imap = Octo_sim.Imap

(* Small key domain so sequences revisit keys: replace-on-set, remove of
   present keys, and shrinking back to empty all get exercised. *)
let key_bound = 32

type op = Set of int * int | Remove of int | Clear

let op_gen =
  QCheck.map
    (fun (tag, key, v) ->
      if tag < 7 then Set (key, v) else if tag < 9 then Remove key else Clear)
    QCheck.(triple (int_bound 9) (int_bound (key_bound - 1)) (int_bound 999))

let apply_imap m = function
  | Set (k, v) -> Imap.set m k v
  | Remove k -> Imap.remove m k
  | Clear -> Imap.clear m

let apply_model tbl = function
  | Set (k, v) -> Hashtbl.replace tbl k v
  | Remove k -> Hashtbl.remove tbl k
  | Clear -> Hashtbl.reset tbl

let model_sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let build ops =
  let m = Imap.create () in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun op ->
      apply_imap m op;
      apply_model tbl op)
    ops;
  (m, tbl)

let test_lookup_equivalence =
  QCheck.Test.make ~name:"find_opt/mem/length match the Hashtbl model" ~count:500
    QCheck.(list op_gen)
    (fun ops ->
      let m, tbl = build ops in
      if Imap.length m <> Hashtbl.length tbl then false
      else if Imap.is_empty m <> (Hashtbl.length tbl = 0) then false
      else begin
        let ok = ref true in
        for k = 0 to key_bound - 1 do
          if Imap.find_opt m k <> Hashtbl.find_opt tbl k then ok := false;
          if Imap.mem m k <> Hashtbl.mem tbl k then ok := false
        done;
        !ok
      end)

let test_iteration_order =
  QCheck.Test.make ~name:"iter/fold visit ascending key order (= iter_sorted)" ~count:500
    QCheck.(list op_gen)
    (fun ops ->
      let m, tbl = build ops in
      let expected = model_sorted tbl in
      let via_iter = ref [] in
      Imap.iter (fun k v -> via_iter := (k, v) :: !via_iter) m;
      let via_fold = Imap.fold (fun k v acc -> (k, v) :: acc) m [] in
      List.rev !via_iter = expected && List.rev via_fold = expected)

let test_first_and_ceil =
  QCheck.Test.make ~name:"first/find_ceil = brute force over the model" ~count:500
    QCheck.(list op_gen)
    (fun ops ->
      let m, tbl = build ops in
      let sorted = model_sorted tbl in
      let first_ok =
        Imap.first m = (match sorted with [] -> None | kv :: _ -> Some kv)
      in
      first_ok
      && List.for_all
           (fun probe ->
             let expected = List.find_opt (fun (k, _) -> k >= probe) sorted in
             Imap.find_ceil m probe = expected)
           (List.init (key_bound + 2) (fun i -> i - 1)))

let test_min_by =
  QCheck.Test.make ~name:"min_by = first minimum in ascending key order" ~count:500
    QCheck.(list op_gen)
    (fun ops ->
      let m, tbl = build ops in
      let skip k _ = k mod 3 = 0 in
      let score _ v = v mod 7 in
      let expected =
        List.fold_left
          (fun acc (k, v) ->
            if skip k v then acc
            else
              let s = score k v in
              match acc with
              | Some (_, _, best) when best <= s -> acc
              | _ -> Some (k, v, s))
          None (model_sorted tbl)
      in
      Imap.min_by ~skip ~score m = expected)

let test_remove_releases_then_reusable =
  QCheck.Test.make ~name:"emptied maps accept fresh inserts" ~count:200
    QCheck.(list op_gen)
    (fun ops ->
      let m, tbl = build ops in
      (* Drain everything through remove (not clear), then reuse. *)
      List.iter (fun (k, _) -> Imap.remove m k) (model_sorted tbl);
      if not (Imap.is_empty m) then false
      else begin
        Imap.set m 7 42;
        Imap.find_opt m 7 = Some 42 && Imap.length m = 1
      end)

let test_of_sorted =
  QCheck.Test.make ~name:"of_sorted = inserts" ~count:200
    QCheck.(list op_gen)
    (fun ops ->
      let m, tbl = build ops in
      let sorted = model_sorted tbl in
      let built = Imap.of_sorted (Array.of_list sorted) in
      Imap.fold (fun k v acc -> (k, v) :: acc) built []
      = Imap.fold (fun k v acc -> (k, v) :: acc) m []
      && Imap.length built = Imap.length m)

let test_of_sorted_rejects () =
  List.iter
    (fun keys ->
      Alcotest.check_raises
        (String.concat "," (List.map string_of_int keys))
        (Invalid_argument "Imap.of_sorted: keys are not strictly ascending")
        (fun () -> ignore (Imap.of_sorted (Array.of_list (List.map (fun k -> (k, ())) keys)))))
    [ [ 2; 1 ]; [ 1; 1 ]; [ 0; 5; 3; 9 ] ]

(* A map of 256 bindings whose values were allocated before the test
   ran: its next insert doubles the arrays to 512 slots. *)
let full_map () =
  let m = Imap.create () in
  for k = 0 to 255 do
    Imap.set m k (ref k)
  done;
  m

(* The insert that grows the map past 256 slots carries a value
   allocated just before it, so the value is young. [caml_make_vect]
   empties the minor heap before it fills an array over 256 words with a
   young value, so growth must not use the value as [Array.make]'s
   fill. Meaningful only under the native-code compiler. *)
let test_growth_no_minor () =
  match Sys.backend_type with
  | Sys.Native ->
    let m = full_map () in
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.minor_collections in
    Imap.set m 256 (ref 256);
    Alcotest.(check int) "minor collections" 0
      ((Gc.quick_stat ()).Gc.minor_collections - before);
    Alcotest.(check int) "length" 257 (Imap.length m)
  | Sys.Bytecode | Sys.Other _ -> ()

(* Spare capacity holds only what was live: the value whose insert grew
   the map is collectable once its binding is removed. *)
let test_growth_releases_removed () =
  let m = full_map () in
  let weak = Weak.create 1 in
  let grow_then_remove () =
    let v = ref 256 in
    Weak.set weak 0 (Some v);
    Imap.set m 256 v;
    Imap.remove m 256
  in
  grow_then_remove ();
  Gc.full_major ();
  Alcotest.(check bool) "removed value collected" false (Weak.check weak 0);
  Alcotest.(check (option int)) "others kept" (Some 255) (Option.map ( ! ) (Imap.find_opt m 255))

let () =
  Alcotest.run "imap"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            test_lookup_equivalence;
            test_iteration_order;
            test_first_and_ceil;
            test_min_by;
            test_remove_releases_then_reusable;
            test_of_sorted;
          ]
        @ [ Alcotest.test_case "of_sorted rejects unsorted keys" `Quick test_of_sorted_rejects ] );
      ( "growth",
        [
          Alcotest.test_case "growth runs no minor collection" `Quick test_growth_no_minor;
          Alcotest.test_case "removed value not kept by spare slots" `Quick
            test_growth_releases_removed;
        ] );
    ]
