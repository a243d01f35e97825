(* Tests for the simulation substrate: RNG, heap, engine, latency model,
   metrics, network layer, churn. *)

open Octo_sim

let float_eps = 1e-9
let check_float msg expected actual = Alcotest.(check (float float_eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let a = Rng.create ~seed:3 in
  let b = Rng.split a in
  (* Drawing from b must not change a's continuation: [a2] replays [a]'s
     draws without ever drawing from [b]. *)
  let a2 = Rng.create ~seed:3 in
  ignore (Rng.split a2);
  for _ = 1 to 50 do
    ignore (Rng.bits64 b)
  done;
  for _ = 1 to 50 do
    Alcotest.(check int64) "a unaffected by b" (Rng.bits64 a2) (Rng.bits64 a)
  done

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create ~seed:12 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 3 7 in
    Alcotest.(check bool) "in [3,7]" true (v >= 3 && v <= 7);
    seen.(v - 3) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all (fun x -> x) seen)

let test_rng_unit_float () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let v = Rng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:14 in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential rng ~mean:3.0 in
    Alcotest.(check bool) "non-negative" true (v >= 0.0);
    total := !total +. v
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean ~ 3.0" true (Float.abs (mean -. 3.0) < 0.1)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:15 in
  let n = 50_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.gaussian rng ~mu:2.0 ~sigma:0.5 in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 2.0" true (Float.abs (mean -. 2.0) < 0.02);
  Alcotest.(check bool) "sigma ~ 0.5" true (Float.abs (sqrt var -. 0.5) < 0.02)

let test_rng_coin () =
  let rng = Rng.create ~seed:16 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.coin rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p ~ 0.3" true (Float.abs (p -. 0.3) < 0.01)

let test_rng_sample_distinct () =
  let rng = Rng.create ~seed:17 in
  let arr = Array.init 100 (fun i -> i) in
  for _ = 1 to 100 do
    let s = Rng.sample rng ~k:10 arr in
    Alcotest.(check int) "sample size" 10 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    for i = 1 to 9 do
      Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
    done
  done

let test_rng_sample_small_pool () =
  let rng = Rng.create ~seed:18 in
  let s = Rng.sample rng ~k:10 [| 1; 2; 3 |] in
  Alcotest.(check int) "clamped" 3 (Array.length s)

(* [Rng.bytes] must expand each 64-bit draw least-significant byte first —
   the layout the key/nonce loops always used — so ciphertexts and traces
   stay stable across the refactor that centralized them. *)
let test_rng_bytes_layout () =
  List.iter
    (fun n ->
      let a = Rng.create ~seed:19 and b = Rng.create ~seed:19 in
      let got = Rng.bytes a n in
      Alcotest.(check int) "length" n (Bytes.length got);
      let expected = Bytes.create n in
      let i = ref 0 in
      while !i < n do
        let word = Rng.bits64 b in
        let chunk = min 8 (n - !i) in
        for j = 0 to chunk - 1 do
          Bytes.set expected (!i + j)
            (Char.chr (Int64.to_int (Int64.shift_right_logical word (8 * j)) land 0xFF))
        done;
        i := !i + chunk
      done;
      Alcotest.(check bytes) "LSB-first expansion" expected got;
      (* Both generators consumed the same number of draws. *)
      Alcotest.(check int64) "stream position" (Rng.bits64 b) (Rng.bits64 a))
    [ 0; 1; 7; 8; 9; 16; 31; 32 ]

let test_rng_bytes_uniformish () =
  let rng = Rng.create ~seed:20 in
  let counts = Array.make 256 0 in
  let sample = Rng.bytes rng 65_536 in
  Bytes.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) sample;
  Array.iteri
    (fun v c ->
      if c = 0 then Alcotest.failf "byte value %d never appeared in 64 KiB" v)
    counts

(* Streams recorded before the state moved from boxed int64 fields to
   32 raw bytes: the layout change must not move a single draw. *)
let test_rng_golden () =
  List.iter
    (fun (seed, bits, ints, floats, bytes_hex, split_draw, parent_draw, next_draw, last_draw) ->
      let r = Rng.create ~seed in
      let b1 = Rng.bits64 r in
      let b2 = Rng.bits64 r in
      let b3 = Rng.bits64 r in
      Alcotest.(check (list int64)) "bits64" bits [ b1; b2; b3 ];
      let i1 = Rng.int r 1000 in
      let i2 = Rng.int r max_int in
      let i3 = Rng.int r 7 in
      Alcotest.(check (list int)) "int" ints [ i1; i2; i3 ];
      let f1 = Rng.unit_float r in
      let f2 = Rng.unit_float r in
      Alcotest.(check (list (float 0.0))) "unit_float" floats [ f1; f2 ];
      Alcotest.(check string) "bytes 13" bytes_hex
        (String.concat ""
           (List.map (Printf.sprintf "%02x")
              (List.map Char.code (List.of_seq (Bytes.to_seq (Rng.bytes r 13))))));
      let s = Rng.split r in
      Alcotest.(check int64) "draw after split" split_draw (Rng.bits64 s);
      Alcotest.(check int64) "parent after split" parent_draw (Rng.bits64 r);
      Alcotest.(check int64) "parent continues" next_draw (Rng.bits64 r);
      Alcotest.(check int64) "and continues" last_draw (Rng.bits64 r))
    [
      ( 7,
        [ -5523389002881075622L; 5142052590334782674L; -2958351167216911978L ],
        [ 928; 4527386969791660428; 5 ],
        [ 0x1.f1ae5852bd8bp-5; 0x1.abc4dcb546f6p-4 ],
        "2085c8ca964f596763018e01a0",
        -7850778563968868693L,
        -4946343030095175720L,
        -1125885980185359919L,
        -2197915503848293865L );
      ( 42,
        [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L ],
        [ 192; 4536090470605270834; 0 ],
        [ 0x1.7042a90ab4cbbp-1; 0x1.b3344e87d7ccp-1 ],
        "7e64976e726ee9c23dbc5f775f",
        4487050317521921653L,
        5362058279183681893L,
        -3670453860372658506L,
        5928998142081247042L );
    ]

(* Minor words allocated by [n] calls of [f] after one warm-up call.
   Meaningful only under the native-code compiler. *)
let minor_words_of n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. before

let test_rng_int_no_alloc () =
  match Sys.backend_type with
  | Sys.Native ->
    let r = Rng.create ~seed:5 in
    Alcotest.(check (float 0.0)) "10k Rng.int" 0.0
      (minor_words_of 10_000 (fun () -> ignore (Rng.int r 1000)))
  | Sys.Bytecode | Sys.Other _ -> ()

(* [fill] writes what [bytes] returns from a twin stream, only inside
   its range, and a range outside the buffer raises before a draw. *)
let prop_fill_is_bytes =
  QCheck.Test.make ~name:"fill = bytes, in place" ~count:300
    QCheck.(triple small_int (int_bound 40) (int_bound 8))
    (fun (seed, n, off) ->
      let r = Rng.create ~seed and twin = Rng.create ~seed in
      let buf = Bytes.make (off + n + 3) '.' in
      Rng.fill r buf off n;
      let bad = [ (-1, 1); (0, -1); (1, Bytes.length buf); (max_int, 1) ] in
      List.for_all
        (fun (off, n) -> match Rng.fill r buf off n with () -> false | exception Invalid_argument _ -> true)
        bad
      && Bytes.equal buf (Bytes.concat Bytes.empty [ Bytes.make off '.'; Rng.bytes twin n; Bytes.make 3 '.' ])
      && Rng.bits64 r = Rng.bits64 twin)

(* [sample_two] and [choose] pick what [sample ~k:2] and [~k:1] pick from
   a twin stream, and leave both streams in step. *)
let prop_sample_two_is_sample =
  QCheck.Test.make ~name:"sample_two and choose = sample" ~count:300
    QCheck.(pair small_int (int_bound 20))
    (fun (seed, n) ->
      let arr = Array.init n (fun i -> 10 * i) in
      let r = Rng.create ~seed and twin = Rng.create ~seed in
      let two =
        match (Rng.sample_two r arr, Rng.sample twin ~k:2 arr) with
        | Some (a, b), [| c; d |] -> a = c && b = d
        | None, ([||] | [| _ |]) -> true
        | _ -> false
      in
      let one = n = 0 || Rng.choose r arr = (Rng.sample twin ~k:1 arr).(0) in
      two && one && Rng.bits64 r = Rng.bits64 twin)

let prop_permutation_valid =
  QCheck.Test.make ~name:"permutation is a bijection" ~count:100
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let p = Rng.permutation rng n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      Array.to_list sorted = List.init n (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Heap *)

(* The engine's calls with a one-cell clock: push at a priority, read
   the minimum's priority (the cell raised to it from [neg_infinity]),
   and pop the minimum with its priority. *)
let heap_push h ~priority v =
  let cell = [| priority |] in
  Heap.push h cell 0 v

let heap_min_prio h =
  let cell = [| neg_infinity |] in
  Heap.advance_to_min h cell 0;
  cell.(0)

let heap_pop h =
  if Heap.is_empty h then None
  else begin
    let prio = heap_min_prio h in
    Some (prio, Heap.pop_exn h)
  end

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> ignore (heap_push h ~priority:p v)) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  check_float "min_prio" 1.0 (heap_min_prio h);
  Alcotest.(check (option (pair (float float_eps) string))) "pop a" (Some (1.0, "a")) (heap_pop h);
  Alcotest.(check (option (pair (float float_eps) string))) "pop b" (Some (2.0, "b")) (heap_pop h);
  Alcotest.(check (option (pair (float float_eps) string))) "pop c" (Some (3.0, "c")) (heap_pop h);
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> ignore (heap_push h ~priority:5.0 v)) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list int)) "FIFO among equal priorities" [ 1; 2; 3; 4 ] order

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun l ->
      let h = Heap.create () in
      List.iter (fun p -> ignore (heap_push h ~priority:p p)) l;
      let rec drain acc =
        match heap_pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
      in
      drain [] = List.stable_sort Float.compare l)

(* Interleaved push and pop against a list reference ordered by
   (priority, insertion sequence), with five priorities so ties abound. *)
type heap_op = Push of int | Pop

let prop_heap_matches_reference =
  let op =
    QCheck.Gen.(frequency [ (6, map (fun p -> Push p) (int_bound 4)); (4, return Pop) ])
  in
  let print = function Push p -> Printf.sprintf "Push %d" p | Pop -> "Pop" in
  QCheck.Test.make ~name:"heap = sorted reference" ~count:500
    QCheck.(make ~print:(Print.list print) Gen.(list_size (0 -- 300) op))
    (fun ops ->
      let h = Heap.create () in
      let cmp (p1, s1) (p2, s2) = if p1 <> p2 then Int.compare p1 p2 else Int.compare s1 s2 in
      let reference = ref [] and seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Push p ->
            let pushed = heap_push h ~priority:(float_of_int p) !seq in
            reference := List.merge cmp !reference [ (p, !seq) ];
            incr seq;
            pushed = !seq - 1 && not (Heap.is_empty h)
          | Pop -> (
            let min_seq = if Heap.is_empty h then -1 else Heap.min_seq h in
            match (heap_pop h, !reference) with
            | None, [] -> true
            | Some (prio, v), (p, s) :: rest ->
              reference := rest;
              Float.equal prio (float_of_int p) && v = s && min_seq = s
            | _ -> false))
        ops)

let test_heap_no_alloc () =
  match Sys.backend_type with
  | Sys.Native ->
    let h = Heap.create () in
    let prios = List.init 64 (fun i -> float_of_int (i * 7 mod 13)) in
    List.iter (fun p -> ignore (heap_push h ~priority:p 0)) prios;
    let cell = [| 0.0 |] in
    let step p =
      cell.(0) <- p;
      ignore (Heap.push h cell 0 1);
      ignore (Heap.pop_exn h)
    in
    Alcotest.(check (float 0.0)) "push + pop_exn at steady capacity" 0.0
      (minor_words_of 157 (fun () -> List.iter step prios))
  | Sys.Bytecode | Sys.Other _ -> ()

(* A popped value is overwritten by the sift, so the heap no longer keeps
   it alive. The first push sizes the arrays and fills their spare slots
   with its value, so it is a throwaway filler. *)
let test_heap_pop_releases () =
  let h = Heap.create () in
  ignore (heap_push h ~priority:0.0 (Bytes.make 64 'f'));
  ignore (Heap.pop_exn h);
  let weak = Weak.create 1 in
  let popped () =
    let a = Bytes.make 64 'a' in
    Weak.set weak 0 (Some a);
    ignore (heap_push h ~priority:1.0 a);
    ignore (heap_push h ~priority:2.0 (Bytes.make 64 'b'));
    ignore (Heap.pop_exn h)
  in
  popped ();
  Gc.full_major ();
  Alcotest.(check bool) "popped value collected" false (Weak.check weak 0);
  ignore (Heap.pop_exn h);
  Alcotest.(check bool) "exactly one left" true (Heap.is_empty h)

(* Minor collections run by [f ()], started on an empty minor heap so
   that none falls due on its own. Meaningful only under the native-code
   compiler. *)
let minor_collections_of f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  f ();
  (Gc.quick_stat ()).Gc.minor_collections - before

(* The push that doubles a full 256-slot heap carries a value allocated
   just before it, so the value is young. [caml_make_vect] empties the
   minor heap before it fills an array over 256 words with a young
   value, so growth must not use the value as [Array.make]'s fill. *)
let test_heap_growth_no_minor () =
  match Sys.backend_type with
  | Sys.Native ->
    let h = Heap.create () in
    for i = 1 to 256 do
      ignore (heap_push h ~priority:(float_of_int i) (ref i))
    done;
    Alcotest.(check int) "minor collections" 0
      (minor_collections_of (fun () -> ignore (heap_push h ~priority:0.5 (ref 0))))
  | Sys.Bytecode | Sys.Other _ -> ()

let heap_drain h =
  let rec go acc =
    match heap_pop h with None -> List.rev acc | Some (p, v) -> go ((p, v) :: acc)
  in
  go []

(* Pop priorities never decrease, under a coarse priority range that forces
   many ties interleaved with pops. *)
let prop_heap_pop_nondecreasing =
  QCheck.Test.make ~name:"heap pop priorities are nondecreasing" ~count:200
    QCheck.(list (int_bound 8))
    (fun l ->
      let h = Heap.create () in
      List.iter (fun p -> ignore (heap_push h ~priority:(float_of_int p) ())) l;
      let pops = heap_drain h in
      let rec nondecreasing = function
        | (a, ()) :: ((b, ()) :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing pops)

(* FIFO among ties even when equal priorities arrive far apart: tag each
   push with its global insertion index and require that, within every
   priority class, indices come back in increasing order. *)
let prop_heap_ties_fifo =
  QCheck.Test.make ~name:"heap ties pop FIFO by insertion order" ~count:200
    QCheck.(list (int_bound 4))
    (fun l ->
      let h = Heap.create () in
      List.iteri (fun i p -> ignore (heap_push h ~priority:(float_of_int p) i)) l;
      let pops = heap_drain h in
      let last = Hashtbl.create 8 in
      List.for_all
        (fun (p, i) ->
          let ok = match Hashtbl.find_opt last p with None -> true | Some j -> j < i in
          Hashtbl.replace last p i;
          ok)
        pops)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log));
  Engine.run e ~until:10.0;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at until" 10.0 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e ~until:5.0;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         times := Engine.now e :: !times;
         ignore (Engine.schedule e ~delay:0.5 (fun () -> times := Engine.now e :: !times))));
  Engine.run e ~until:10.0;
  Alcotest.(check (list (float float_eps))) "nested times" [ 1.0; 1.5 ] (List.rev !times)

(* A periodic task fires first at its phase, then once per period, and
   stops at the run's horizon; a later run picks the schedule back up. *)
let test_engine_every () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.every e ~phase:0.25 ~period:1.0 (fun () -> times := Engine.now e :: !times);
  Engine.run e ~until:3.5;
  Alcotest.(check (list (float float_eps)))
    "phase, then each period" [ 0.25; 1.25; 2.25; 3.25 ] (List.rev !times);
  Engine.run e ~until:5.0;
  Alcotest.(check (list (float float_eps)))
    "resumes on the next run" [ 0.25; 1.25; 2.25; 3.25; 4.25 ] (List.rev !times);
  let e = Engine.create () in
  let times = ref [] in
  Engine.every e ~period:2.0 (fun () -> times := Engine.now e :: !times);
  Engine.run e ~until:7.0;
  Alcotest.(check (list (float float_eps)))
    "default phase is one period" [ 2.0; 4.0; 6.0 ] (List.rev !times)

let test_engine_run_until_boundary () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:5.1 (fun () -> incr fired));
  Engine.run e ~until:5.0;
  Alcotest.(check int) "inclusive boundary" 1 !fired;
  Engine.run e ~until:6.0;
  Alcotest.(check int) "rest delivered" 2 !fired

let test_engine_past_delay_clamped () =
  let e = Engine.create () in
  Engine.run e ~until:10.0;
  let at = ref 0.0 in
  ignore (Engine.schedule e ~delay:(-5.0) (fun () -> at := Engine.now e));
  Engine.run_until_idle e ();
  check_float "clamped to now" 10.0 !at

let test_engine_run_until_idle_budget () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~period:1.0 (fun () -> incr count);
  Engine.run_until_idle e ~max_events:10 ();
  Alcotest.(check int) "bounded" 10 !count

(* A timer re-armed before it fires runs once, at its last arming; the
   entry the first arming left behind is skipped. *)
let test_timer_rearm () =
  let e = Engine.create () in
  let times = ref [] in
  let h = Engine.timer (fun () -> times := Engine.now e :: !times) in
  Engine.arm e h ~delay:1.0;
  Engine.arm e h ~delay:3.0;
  Engine.run e ~until:2.0;
  Alcotest.(check (list (float float_eps))) "not at the superseded time" [] !times;
  Engine.run e ~until:10.0;
  Alcotest.(check (list (float float_eps))) "once, at the last arming" [ 3.0 ] !times;
  (* Re-armed to an earlier time, the later entry is the stale one. *)
  Engine.arm e h ~delay:5.0;
  Engine.arm e h ~delay:1.0;
  Engine.run e ~until:20.0;
  Alcotest.(check (list (float float_eps))) "earlier re-arm" [ 3.0; 11.0 ] (List.rev !times)

(* Cancelling disarms; arming again afterwards runs the action once. *)
let test_timer_cancel_rearm () =
  let e = Engine.create () in
  let times = ref [] in
  let h = Engine.timer (fun () -> times := Engine.now e :: !times) in
  Engine.arm e h ~delay:1.0;
  Engine.cancel h;
  Engine.arm e h ~delay:2.0;
  Engine.run e ~until:10.0;
  Alcotest.(check (list (float float_eps))) "once, after the cancel" [ 2.0 ] !times;
  let h = Engine.schedule e ~delay:1.0 (fun () -> times := Engine.now e :: !times) in
  Engine.cancel h;
  Engine.arm e h ~delay:0.5;
  Engine.run e ~until:20.0;
  Alcotest.(check (list (float float_eps))) "a cancelled schedule re-armed" [ 2.0; 10.5 ]
    (List.rev !times)

(* Skipped entries are neither counted as processed nor charged to the
   idle budget. *)
let test_timer_superseded_not_counted () =
  let e = Engine.create () in
  let fired = ref 0 in
  let h = Engine.timer (fun () -> incr fired) in
  for i = 1 to 5 do
    Engine.arm e h ~delay:(float_of_int i)
  done;
  let other = ref 0 in
  ignore (Engine.schedule e ~delay:6.0 (fun () -> incr other));
  ignore (Engine.schedule e ~delay:7.0 (fun () -> incr other));
  Engine.run_until_idle e ~max_events:2 ();
  Alcotest.(check int) "timer once" 1 !fired;
  Alcotest.(check int) "budget spent on live events only" 1 !other;
  Alcotest.(check int) "processed" 2 (Engine.events_processed e);
  Engine.run_until_idle e ();
  Alcotest.(check int) "rest" 2 !other;
  Alcotest.(check int) "processed after idle" 3 (Engine.events_processed e)

(* Events due at one time fire in the order they were armed: a re-armed
   timer takes its place behind what was scheduled before the re-arm. *)
let test_timer_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  let h = Engine.timer (note "timer") in
  Engine.arm e h ~delay:1.0;
  ignore (Engine.schedule e ~delay:1.0 (note "a"));
  Engine.arm e h ~delay:1.0;
  ignore (Engine.schedule e ~delay:1.0 (note "b"));
  Engine.every e ~phase:1.0 ~period:1.0 (note "every");
  Engine.run e ~until:1.0;
  Alcotest.(check (list string)) "arming order" [ "a"; "timer"; "b"; "every" ] (List.rev !log)

(* Times stay unboxed from arming to firing: a periodic task's firing
   and re-arming allocate nothing, and a chain of one-shot schedules only
   its event records, 3 words each. [now] boxes the time once per clock
   value, however often it is read. *)
let test_engine_time_words () =
  match Sys.backend_type with
  | Sys.Native ->
    let e = Engine.create () in
    Engine.every e ~period:1.0 ignore;
    Engine.run e ~until:10.0;
    let before = Gc.minor_words () in
    Engine.run e ~until:1010.0;
    let words = Gc.minor_words () -. before in
    Alcotest.(check (float 0.0)) "1000 periodic firings" 0.0 words;
    let e = Engine.create () in
    let links = ref 0 in
    let rec link () =
      incr links;
      if !links < 1_000 then ignore (Engine.schedule e ~delay:0.5 link)
    in
    ignore (Engine.schedule e ~delay:0.5 ignore);
    Engine.run_until_idle e ();
    let before = Gc.minor_words () in
    ignore (Engine.schedule e ~delay:0.5 link);
    Engine.run_until_idle e ();
    let words = Gc.minor_words () -. before in
    Alcotest.(check (float 0.0)) "a 1000-link schedule chain: its event records" 3000.0 words;
    ignore (Engine.now e);
    let words = minor_words_of 100 (fun () -> ignore (Engine.now e)) in
    Alcotest.(check (float 0.0)) "now, same clock" 0.0 words
  | Sys.Bytecode | Sys.Other _ -> ()

(* ------------------------------------------------------------------ *)
(* Latency *)

let make_latency ?(n = 120) () =
  let rng = Rng.create ~seed:99 in
  Latency.create rng ~n

let test_latency_self_zero () =
  let l = make_latency () in
  check_float "rtt self" 0.0 (Latency.rtt l 5 5)

let test_latency_symmetric_positive () =
  let l = make_latency () in
  for _ = 1 to 200 do
    let rng = Rng.create ~seed:5 in
    let i = Rng.int rng 120 and j = Rng.int rng 120 in
    if i <> j then begin
      check_float "symmetric" (Latency.rtt l i j) (Latency.rtt l j i);
      Alcotest.(check bool) "positive" true (Latency.rtt l i j > 0.0)
    end
  done

let test_latency_calibrated_mean () =
  let l = make_latency ~n:300 () in
  let rng = Rng.create ~seed:123 in
  let total = ref 0.0 and count = 10_000 in
  let drawn = ref 0 in
  while !drawn < count do
    let i = Rng.int rng 300 and j = Rng.int rng 300 in
    if i <> j then begin
      total := !total +. Latency.rtt l i j;
      incr drawn
    end
  done;
  let mean = !total /. float_of_int count in
  Alcotest.(check bool) "mean rtt ~ 0.182" true (Float.abs (mean -. 0.182) < 0.02)

let test_latency_jitter_bound () =
  let l = make_latency () in
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 500 do
    let i = Rng.int rng 120 and j = Rng.int rng 120 in
    if i <> j then begin
      let bound = Latency.jitter_bound l i j in
      Alcotest.(check bool) "bound <= 10ms" true (bound <= 0.010 +. float_eps);
      Alcotest.(check bool) "bound <= 10% lat" true
        (bound <= (0.1 *. Latency.one_way l i j) +. float_eps);
      let d = Latency.sample_one_way l rng i j in
      Alcotest.(check bool) "sample within jitter" true
        (d >= Latency.one_way l i j -. float_eps
        && d <= Latency.one_way l i j +. bound +. float_eps)
    end
  done

(* The delivery delay as it was written before [sample_one_way] shared
   one RTT between the delay and its jitter window. *)
let reference_one_way l rng i j = Latency.one_way l i j +. Rng.float rng (Latency.jitter_bound l i j)

let prop_sample_one_way_reference =
  let l = make_latency () in
  QCheck.Test.make ~name:"sample_one_way = reference, bit for bit" ~count:1000
    QCheck.(triple (int_bound 119) (int_bound 119) int)
    (fun (i, j, seed) ->
      let a = Rng.create ~seed and b = Rng.create ~seed in
      Int64.equal
        (Int64.bits_of_float (Latency.sample_one_way l a i j))
        (Int64.bits_of_float (reference_one_way l b i j))
      && Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let test_latency_heterogeneous () =
  let l = make_latency ~n:300 () in
  (* A heavy-tailed model should have median well under the mean. *)
  Alcotest.(check bool) "median < mean" true (Latency.median_rtt l < Latency.mean_rtt l)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_dist_stats () =
  let d = Metrics.Dist.create () in
  List.iter (Metrics.Dist.add d) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  Alcotest.(check int) "count" 5 (Metrics.Dist.count d);
  check_float "mean" 3.0 (Metrics.Dist.mean d);
  check_float "median" 3.0 (Metrics.Dist.median d);
  check_float "min" 1.0 (Metrics.Dist.min d);
  check_float "max" 5.0 (Metrics.Dist.max d);
  check_float "p0" 1.0 (Metrics.Dist.percentile d 0.0);
  check_float "p100" 5.0 (Metrics.Dist.percentile d 1.0)

let test_dist_add_after_sort () =
  let d = Metrics.Dist.create () in
  List.iter (Metrics.Dist.add d) [ 2.0; 1.0 ];
  ignore (Metrics.Dist.median d);
  Metrics.Dist.add d 0.5;
  check_float "median after re-add" 1.0 (Metrics.Dist.median d)

let test_dist_cdf () =
  let d = Metrics.Dist.create () in
  for i = 1 to 100 do
    Metrics.Dist.add d (float_of_int i)
  done;
  let cdf = Metrics.Dist.cdf d ~points:5 in
  Alcotest.(check int) "points" 5 (List.length cdf);
  let values = List.map fst cdf in
  Alcotest.(check bool) "monotone" true (List.sort compare values = values);
  check_float "last is max" 100.0 (fst (List.nth cdf 4))

let test_series_sum () =
  let s = Metrics.Series.create ~bucket:10.0 in
  Metrics.Series.add s ~time:1.0 1.0;
  Metrics.Series.add s ~time:5.0 2.0;
  Metrics.Series.add s ~time:15.0 4.0;
  Metrics.Series.add s ~time:35.0 8.0;
  Alcotest.(check (list (pair (float float_eps) (float float_eps))))
    "bucketed with gap" [ (0.0, 3.0); (10.0, 4.0); (20.0, 0.0); (30.0, 8.0) ]
    (Metrics.Series.rows s)

let test_series_gauge_carry () =
  let s = Metrics.Series.create ~bucket:1.0 in
  Metrics.Series.set s ~time:0.0 5.0;
  Metrics.Series.set s ~time:3.0 7.0;
  Alcotest.(check (list (pair (float float_eps) (float float_eps))))
    "carried gauge" [ (0.0, 5.0); (1.0, 5.0); (2.0, 5.0); (3.0, 7.0) ]
    (Metrics.Series.rows s)

let test_series_cumulative () =
  let s = Metrics.Series.create ~bucket:1.0 in
  Metrics.Series.add s ~time:0.5 1.0;
  Metrics.Series.add s ~time:1.5 2.0;
  Metrics.Series.add s ~time:2.5 3.0;
  Alcotest.(check (list (pair (float float_eps) (float float_eps))))
    "running sum" [ (0.0, 1.0); (1.0, 3.0); (2.0, 6.0) ]
    (Metrics.Series.cumulative s)

let test_table_render () =
  let s = Metrics.Table.render ~header:[ "a"; "long header" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "has rows" true (String.length s > 0);
  (* header + separator + 2 rows + trailing newline *)
  Alcotest.(check int) "line count" 5 (List.length (String.split_on_char '\n' s))

(* ------------------------------------------------------------------ *)
(* Net *)

let make_net () =
  let e = Engine.create ~seed:5 () in
  let rng = Rng.create ~seed:50 in
  let l = Latency.create rng ~n:10 in
  (e, Net.create e l)

let test_net_delivery () =
  let e, net = make_net () in
  let got = ref None in
  Net.register net 1 (fun env -> got := Some env.Net.payload);
  Net.register net 0 (fun _ -> ());
  Net.send net ~src:0 ~dst:1 ~size:100 "hello";
  Engine.run_until_idle e ();
  Alcotest.(check (option string)) "delivered" (Some "hello") !got;
  Alcotest.(check bool) "delivery delayed" true (Engine.now e > 0.0)

let test_net_dead_drop () =
  let e, net = make_net () in
  let got = ref 0 in
  Net.register net 1 (fun _ -> incr got);
  Net.set_alive net 1 false;
  Net.send net ~src:0 ~dst:1 ~size:10 "x";
  Engine.run_until_idle e ();
  Alcotest.(check int) "dropped" 0 !got;
  Net.set_alive net 1 true;
  Net.send net ~src:0 ~dst:1 ~size:10 "y";
  Engine.run_until_idle e ();
  Alcotest.(check int) "revived" 1 !got

(* Run [f] with a fresh trace sink installed; return its result and the
   events it emitted. *)
let traced f =
  let t = Trace.create () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let r = f () in
      (r, List.map (fun ev -> ev.Trace.data) (Trace.events t)))

let test_net_drop_hook () =
  (* The fault hook is the network's one interposition point: its drop
     reason reaches the trace, and the sender still pays for the bytes. *)
  let e, net = make_net () in
  let got = ref 0 in
  Net.register net 1 (fun _ -> incr got);
  Net.set_fault_hook net
    (Some (fun env -> if env.Net.src = 0 then Net.Fault_drop "test" else Net.Fault_pass));
  let (), evs =
    traced (fun () ->
        Net.send net ~src:0 ~dst:1 ~size:10 "dropped";
        Net.send net ~src:2 ~dst:1 ~size:10 "kept";
        Engine.run_until_idle e ())
  in
  Alcotest.(check int) "hook filtered" 1 !got;
  Alcotest.(check bool) "drop reason traced" true
    (List.exists
       (function
         | Trace.Net_drop { src = 0; dst = 1; size = 10; reason = "test" } -> true
         | _ -> false)
       evs);
  Alcotest.(check int) "tx counted for the dropped send" 10 (Net.tx_bytes net 0)

let test_net_byte_accounting () =
  let e, net = make_net () in
  Net.register net 1 (fun _ -> ());
  Net.send net ~src:0 ~dst:1 ~size:111 "a";
  Net.send net ~src:0 ~dst:1 ~size:222 "b";
  Engine.run_until_idle e ();
  Alcotest.(check int) "tx" 333 (Net.tx_bytes net 0);
  Alcotest.(check int) "rx" 333 (Net.rx_bytes net 1);
  Alcotest.(check int) "sent" 2 (Net.messages_sent net);
  Alcotest.(check int) "delivered" 2 (Net.messages_delivered net)

let test_net_tx_counted_even_when_dropped () =
  let e, net = make_net () in
  Net.register net 1 (fun _ -> ());
  Net.set_alive net 1 false;
  Net.send net ~src:0 ~dst:1 ~size:50 "x";
  Engine.run_until_idle e ();
  Alcotest.(check int) "tx counted" 50 (Net.tx_bytes net 0);
  Alcotest.(check int) "rx not counted" 0 (Net.rx_bytes net 1)

(* A pooled envelope carries its delivery timer, built once with the
   record and re-armed for each message, so a warm send and its delivery
   allocate neither an engine event nor a closure, only the delay
   arithmetic: 18 words here. An event per send would add 3, a delivery
   closure per send 8, a boxed due time 2. *)
let test_net_send_words () =
  match Sys.backend_type with
  | Sys.Native ->
    let e, net = make_net () in
    Net.register net 0 (fun _ -> ());
    Net.register net 1 (fun _ -> ());
    let words =
      minor_words_of 1_000 (fun () ->
          Net.send net ~src:0 ~dst:1 ~size:36 ();
          Engine.run_until_idle e ())
    in
    Alcotest.(check bool)
      (Printf.sprintf "warm send + delivery: %g words" (words /. 1_000.))
      true
      (words <= 19.0 *. 1_000.)
  | Sys.Bytecode | Sys.Other _ -> ()

(* A call from node 0 to node 1 whose request goes nowhere unless [send]
   puts it on a network. Returns the call's rid. *)
let rpc_call ?(send = ignore) rpc ~timeout ~on_give_up k =
  Rpc.rid (Rpc.call rpc ~src:0 ~dst:1 ~policy:(Rpc.policy ~timeout ()) ~send ~on_give_up k)

let test_pending_resolve () =
  let e = Engine.create () in
  let rpc = Rpc.create e ~rng:(Rng.create ~seed:3) () in
  let got = ref None and timed_out = ref false in
  let rid =
    rpc_call rpc ~timeout:5.0 ~on_give_up:(fun () -> timed_out := true) (fun v -> got := Some v)
  in
  Alcotest.(check bool) "resolve ok" true (Rpc.resolve rpc rid "resp");
  Alcotest.(check bool) "duplicate rejected" false (Rpc.resolve rpc rid "resp2");
  Engine.run e ~until:10.0;
  Alcotest.(check (option string)) "value" (Some "resp") !got;
  Alcotest.(check bool) "no timeout after resolve" false !timed_out

let test_pending_timeout () =
  let e = Engine.create () in
  let rpc = Rpc.create e ~rng:(Rng.create ~seed:3) () in
  let timed_out = ref false in
  let rid = rpc_call rpc ~timeout:2.0 ~on_give_up:(fun () -> timed_out := true) ignore in
  Engine.run e ~until:10.0;
  Alcotest.(check bool) "timed out" true !timed_out;
  Alcotest.(check bool) "late resolve rejected" false (Rpc.resolve rpc rid "late")

let test_pending_timeout_exactly_once () =
  let e = Engine.create () in
  let rpc = Rpc.create e ~rng:(Rng.create ~seed:3) () in
  let fired = ref 0 and delivered = ref 0 in
  let rid =
    rpc_call rpc ~timeout:2.0 ~on_give_up:(fun () -> incr fired) (fun _ -> incr delivered)
  in
  Engine.run e ~until:50.0;
  Alcotest.(check int) "timeout fired exactly once" 1 !fired;
  Alcotest.(check int) "handler never ran" 0 !delivered;
  Alcotest.(check bool) "resolve after timeout rejected" false (Rpc.resolve rpc rid "late");
  Alcotest.(check int) "late resolve does not re-fire" 1 !fired;
  Alcotest.(check int) "late resolve does not deliver" 0 !delivered;
  Alcotest.(check int) "outstanding drained" 0 (Rpc.outstanding rpc)

(* Node 1 echoes every request back to node 0 after [reply_delay]; node 0
   hands each reply to [rpc]. Requests carry their rid as the payload.
   Returns the [send] closure for {!rpc_call}. *)
let echo ?(reply_delay = 0.0) e net rpc =
  Net.register net 1 (fun env ->
      let rid = env.Net.payload in
      ignore
        (Engine.schedule e ~delay:reply_delay (fun () -> Net.send net ~src:1 ~dst:0 ~size:10 rid)));
  Net.register net 0 (fun env ->
      ignore (Rpc.resolve rpc (int_of_string env.Net.payload) env.Net.payload));
  fun rid -> Net.send net ~src:0 ~dst:1 ~size:20 (string_of_int rid)

let test_pending_drop_hook_timeout_interplay () =
  (* A dropped request's only failure signal is the RPC timeout: node 1
     would answer instantly, but the fault hook eats everything node 0
     sends, so on_give_up must fire — exactly once — and nothing is
     delivered. *)
  let e, net = make_net () in
  let rpc = Rpc.create e ~rng:(Rng.create ~seed:3) () in
  let send = echo e net rpc in
  Net.set_fault_hook net
    (Some (fun env -> if env.Net.src = 0 then Net.Fault_drop "test" else Net.Fault_pass));
  let fired = ref 0 and delivered = ref 0 in
  ignore
    (rpc_call rpc ~send ~timeout:2.0 ~on_give_up:(fun () -> incr fired) (fun _ -> incr delivered));
  Engine.run e ~until:30.0;
  Alcotest.(check int) "timeout fired once" 1 !fired;
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  Alcotest.(check int) "no pending left" 0 (Rpc.outstanding rpc)

let test_pending_late_response_ignored () =
  (* The response exists but arrives after the timeout: the timeout wins,
     and the late resolve must be a silent no-op (no double completion). *)
  let e, net = make_net () in
  let rpc = Rpc.create e ~rng:(Rng.create ~seed:3) () in
  (* Hold the reply well past the requester's timeout. *)
  let send = echo ~reply_delay:5.0 e net rpc in
  let fired = ref 0 and delivered = ref 0 in
  let (), evs =
    traced (fun () ->
        ignore
          (rpc_call rpc ~send ~timeout:2.0
             ~on_give_up:(fun () -> incr fired)
             (fun _ -> incr delivered));
        Engine.run e ~until:30.0)
  in
  Alcotest.(check int) "timeout fired once" 1 !fired;
  Alcotest.(check int) "late reply not delivered" 0 !delivered;
  Alcotest.(check bool) "late reply reached the requester" true
    (List.exists (function Trace.Rpc_late _ -> true | _ -> false) evs);
  Alcotest.(check int) "no pending left" 0 (Rpc.outstanding rpc)

(* ------------------------------------------------------------------ *)
(* Churn *)

let test_churn_cycle () =
  let e = Engine.create ~seed:1 () in
  let rng = Rng.create ~seed:2 in
  let leaves = ref [] and joins = ref [] in
  let c =
    Churn.start e rng ~mean_lifetime:10.0 ~rejoin_delay:1.0 ~addrs:[ 0; 1; 2 ]
      ~on_leave:(fun a -> leaves := a :: !leaves)
      ~on_join:(fun a -> joins := a :: !joins)
      ()
  in
  Engine.run e ~until:200.0;
  Alcotest.(check bool) "several departures" true (Churn.departures c > 10);
  Alcotest.(check bool) "joins track leaves" true
    (List.length !joins >= List.length !leaves - 3)

let test_churn_stop () =
  let e = Engine.create ~seed:1 () in
  let rng = Rng.create ~seed:2 in
  let c =
    Churn.start e rng ~mean_lifetime:5.0 ~rejoin_delay:1.0 ~addrs:[ 0 ] ~on_leave:(fun _ -> ())
      ~on_join:(fun _ -> ()) ()
  in
  Engine.run e ~until:20.0;
  Churn.stop c;
  let before = Churn.departures c in
  Engine.run e ~until:500.0;
  Alcotest.(check int) "no departures after stop" before (Churn.departures c)

(* ------------------------------------------------------------------ *)
(* Rpc *)

let test_rpc_call_resolve () =
  let e = Engine.create () in
  let rpc = Rpc.create e ~rng:(Rng.create ~seed:3) () in
  let got = ref None and gave_up = ref false and sends = ref 0 in
  let tok =
    Rpc.call rpc ~src:0 ~dst:1
      ~policy:(Rpc.policy ~timeout:2.0 ())
      ~send:(fun _ -> incr sends)
      ~on_give_up:(fun () -> gave_up := true)
      (fun v -> got := Some v)
  in
  Alcotest.(check bool) "resolve ok" true (Rpc.resolve rpc (Rpc.rid tok) "resp");
  Alcotest.(check bool) "duplicate rejected" false (Rpc.resolve rpc (Rpc.rid tok) "again");
  Engine.run e ~until:10.0;
  Alcotest.(check (option string)) "value" (Some "resp") !got;
  Alcotest.(check bool) "no give-up after resolve" false !gave_up;
  Alcotest.(check int) "one send" 1 !sends;
  Alcotest.(check int) "no outstanding" 0 (Rpc.outstanding rpc)

let test_rpc_giveup_after_attempts () =
  (* [Rpc_giveup.attempts] counts sends: 1 for a call that timed out, 0
     for a call failed by [fail_queued] before it ever flew. *)
  let e = Engine.create () in
  let rpc = Rpc.create e ~rng:(Rng.create ~seed:3) ~in_flight_cap:1 () in
  let sends = ref 0 and gave_up = ref 0 in
  let call () =
    rpc_call rpc ~timeout:1.0
      ~send:(fun _ -> incr sends)
      ~on_give_up:(fun () -> incr gave_up)
      (fun (_ : unit) -> Alcotest.fail "no response was ever sent")
  in
  let (flying, queued), evs =
    traced (fun () ->
        let flying = call () in
        let queued = call () in
        Rpc.fail_queued rpc ~dst:1;
        Engine.run e ~until:60.0;
        (flying, queued))
  in
  Alcotest.(check (list (pair int int)))
    "queued call: 0 attempts; timed-out call: 1"
    [ (queued, 0); (flying, 1) ]
    (List.filter_map
       (function Trace.Rpc_giveup { rid; attempts } -> Some (rid, attempts) | _ -> None)
       evs);
  Alcotest.(check int) "one send" 1 !sends;
  Alcotest.(check int) "each call gave up once" 2 !gave_up

let test_rpc_cap_queues_and_drains () =
  let e = Engine.create () in
  let rpc = Rpc.create e ~rng:(Rng.create ~seed:3) ~in_flight_cap:1 () in
  let sends = ref [] in
  let call tag =
    Rpc.call rpc ~src:0 ~dst:1
      ~policy:(Rpc.policy ~timeout:5.0 ())
      ~send:(fun _ -> sends := tag :: !sends)
      ~on_give_up:(fun () -> ())
      (fun (_ : string) -> ())
  in
  let t1 = call "a" in
  let _t2 = call "b" in
  Alcotest.(check (list string)) "second call queued" [ "a" ] (List.rev !sends);
  Alcotest.(check int) "queued count" 1 (Rpc.queued rpc ~dst:1);
  Alcotest.(check int) "in-flight count" 1 (Rpc.in_flight rpc ~dst:1);
  ignore (Rpc.resolve rpc (Rpc.rid t1) "done");
  Alcotest.(check (list string)) "resolving drains the queue" [ "a"; "b" ]
    (List.rev !sends);
  Alcotest.(check int) "queue empty" 0 (Rpc.queued rpc ~dst:1)

(* A pooled entry carries its timeout timer, built once with the record
   and re-armed for each call, so a warm call and its resolve allocate
   neither an engine event nor a closure of their own: 17 words here. An
   event per call would add 3 and the option holding it 2, a timeout
   closure per call 6, boxed times 4. The engine is drained each time so
   the disarmed timer's entry leaves the heap. *)
let test_rpc_call_resolve_words () =
  match Sys.backend_type with
  | Sys.Native ->
    let e = Engine.create ~seed:6 () in
    let rpc = Rpc.create e ~rng:(Rng.create ~seed:7) () in
    let k (_ : unit) = () in
    let policy = Rpc.policy ~timeout:1.0 () in
    let words =
      minor_words_of 1_000 (fun () ->
          let tok = Rpc.call rpc ~src:0 ~dst:1 ~policy ~send:ignore ~on_give_up:ignore k in
          assert (Rpc.resolve rpc (Rpc.rid tok) ());
          Engine.run_until_idle e ())
    in
    Alcotest.(check bool)
      (Printf.sprintf "warm call + resolve: %g words" (words /. 1_000.))
      true
      (words <= 18.0 *. 1_000.)
  | Sys.Bytecode | Sys.Other _ -> ()

let test_rpc_dead_node_retry_giveup () =
  (* An in-flight call to a node that died gives up on its timeout rather
     than hanging. *)
  let e, net = make_net () in
  let rpc = Rpc.create e ~rng:(Rng.create ~seed:3) () in
  Net.register net 1 (fun _ -> ());
  Net.set_alive net 1 false;
  let sends = ref 0 and gave_up = ref 0 in
  ignore
    (rpc_call rpc ~timeout:1.0
       ~send:(fun rid ->
         incr sends;
         Net.send net ~src:0 ~dst:1 ~size:16 (string_of_int rid))
       ~on_give_up:(fun () -> incr gave_up)
       (fun (_ : string) -> Alcotest.fail "resolved against a dead node"));
  Engine.run e ~until:60.0;
  Alcotest.(check int) "one attempt" 1 !sends;
  Alcotest.(check int) "one give-up" 1 !gave_up;
  Alcotest.(check int) "no outstanding" 0 (Rpc.outstanding rpc)

let prop_rpc_cap_never_exceeded =
  QCheck.Test.make ~name:"rpc in-flight cap never exceeded" ~count:50
    QCheck.(pair (int_range 1 4) (int_range 1 20))
    (fun (cap, ncalls) ->
      let e = Engine.create ~seed:7 () in
      let rpc = Rpc.create e ~rng:(Rng.create ~seed:8) ~in_flight_cap:cap () in
      let ok = ref true and live = ref 0 in
      for i = 1 to ncalls do
        ignore
          (Engine.schedule e ~delay:(0.1 *. float_of_int i) (fun () ->
               ignore
                 (Rpc.call rpc ~src:0 ~dst:1
                    ~policy:(Rpc.policy ~timeout:1.0 ())
                    ~send:(fun _ ->
                      incr live;
                      if !live > cap || Rpc.in_flight rpc ~dst:1 > cap then ok := false)
                    ~on_give_up:(fun () -> decr live)
                    (fun (_ : unit) -> ()))))
      done;
      Engine.run e ~until:100.0;
      !ok && Rpc.outstanding rpc = 0)

let test_churn_stop_no_stray_rejoin () =
  (* Stopping churn while a slot is mid-downtime must suppress the
     pending rejoin, not just future departures. *)
  let e = Engine.create ~seed:1 () in
  let rng = Rng.create ~seed:2 in
  let joins = ref 0 in
  let c =
    Churn.start e rng ~mean_lifetime:5.0 ~rejoin_delay:2.0 ~addrs:[ 0; 1; 2 ]
      ~on_leave:(fun _ -> ())
      ~on_join:(fun _ -> incr joins)
      ()
  in
  Engine.run e ~until:20.0;
  Churn.stop c;
  let before = !joins in
  Engine.run e ~until:500.0;
  Alcotest.(check int) "no rejoins after stop" before !joins

let prop_dist_sorted =
  QCheck.Test.make ~name:"dist sorted array is sorted & complete" ~count:200
    QCheck.(list (float_bound_exclusive 100.0))
    (fun l ->
      let d = Metrics.Dist.create () in
      List.iter (Metrics.Dist.add d) l;
      let arr = Metrics.Dist.to_sorted_array d in
      Array.length arr = List.length l
      && List.sort compare l = Array.to_list arr)

let prop_series_cumulative_monotone =
  QCheck.Test.make ~name:"series cumulative is monotone for positive adds" ~count:100
    QCheck.(list (pair (float_bound_exclusive 100.0) (float_bound_exclusive 10.0)))
    (fun samples ->
      let s = Metrics.Series.create ~bucket:5.0 in
      List.iter (fun (t, v) -> Metrics.Series.add s ~time:t v) samples;
      let rec monotone = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && monotone rest
        | _ -> true
      in
      monotone (Metrics.Series.cumulative s))

(* ------------------------------------------------------------------ *)
(* Sketch: bounded-memory streaming quantiles *)

let sketch_of_list l =
  let s = Metrics.Sketch.create () in
  List.iter (Metrics.Sketch.record s) l;
  s

let dist_of_list l =
  let d = Metrics.Dist.create () in
  List.iter (Metrics.Dist.add d) l;
  d

let sketch_quantile_points = [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ]

let sketch_within_bound ~exact ~est =
  Float.abs (est -. exact) <= (Metrics.Sketch.relative_error *. Float.abs exact) +. 1e-9

let check_sketch_error ~what l =
  let s = sketch_of_list l and d = dist_of_list l in
  List.iter
    (fun q ->
      let exact = Metrics.Dist.percentile d q in
      let est = Metrics.Sketch.quantile s q in
      if not (sketch_within_bound ~exact ~est) then
        Alcotest.failf "%s q=%g: sketch %g vs exact %g exceeds %.2f%% relative error" what q
          est exact
          (Metrics.Sketch.relative_error *. 100.0))
    sketch_quantile_points

let prop_sketch_bounded_error =
  QCheck.Test.make ~name:"sketch quantiles within relative error of exact" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 400) (float_bound_exclusive 1000.0))
    (fun l ->
      let s = sketch_of_list l and d = dist_of_list l in
      List.for_all
        (fun q ->
          sketch_within_bound
            ~exact:(Metrics.Dist.percentile d q)
            ~est:(Metrics.Sketch.quantile s q))
        sketch_quantile_points)

let test_sketch_lognormal () =
  (* Heavy-tailed input spanning ~7 decades of magnitude. *)
  let rng = Rng.create ~seed:17 in
  let l = List.init 10_000 (fun _ -> exp (Rng.gaussian rng ~mu:0.0 ~sigma:2.0)) in
  check_sketch_error ~what:"lognormal" l

let test_sketch_adversarial_sorted () =
  (* Monotone streams are the classic worst case for streaming quantile
     estimators that assume shuffled input; the log-bucketed sketch's
     bound is order-independent. *)
  let asc = List.init 5_000 (fun i -> float_of_int (i + 1) *. 0.25) in
  check_sketch_error ~what:"ascending" asc;
  check_sketch_error ~what:"descending" (List.rev asc)

let test_sketch_zeros_and_stats () =
  let s = sketch_of_list [ 0.0; 0.0; 1.0; 4.0 ] in
  Alcotest.(check int) "count" 4 (Metrics.Sketch.count s);
  check_float "sum" 5.0 (Metrics.Sketch.sum s);
  check_float "min" 0.0 (Metrics.Sketch.min s);
  check_float "max tracked exactly" 4.0 (Metrics.Sketch.max s);
  check_float "q0 hits the zero bucket" 0.0 (Metrics.Sketch.quantile s 0.0);
  check_float "q under zero mass" 0.0 (Metrics.Sketch.quantile s 0.3)

let test_sketch_record_no_alloc () =
  (* [record] must not allocate: it runs once per query in million-query
     open-loop runs. Counting probe over the minor heap; floats arrive
     already boxed (list elements), so any delta is record's own.
     Meaningful only under the native-code compiler. *)
  match Sys.backend_type with
  | Sys.Native ->
    let s = Metrics.Sketch.create () in
    let values = List.init 5_000 (fun i -> float_of_int ((i mod 1000) - 2) *. 0.37) in
    let record v = Metrics.Sketch.record s v in
    List.iter record values;
    let before = Gc.minor_words () in
    List.iter record values;
    let delta = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "5k records allocated %g minor words" delta)
      true (delta < 64.0)
  | Sys.Bytecode | Sys.Other _ -> ()

(* ------------------------------------------------------------------ *)
(* Tbl: deterministic hash-table traversal *)

let test_tbl_iter_sorted_order () =
  let tbl = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.replace tbl k (k * 10)) [ 42; 3; 17; 99; 0; 8 ];
  let seen = ref [] in
  Tbl.iter_sorted ~cmp:Int.compare (fun k v -> seen := (k, v) :: !seen) tbl;
  Alcotest.(check (list (pair int int)))
    "ascending key order"
    [ (0, 0); (3, 30); (8, 80); (17, 170); (42, 420); (99, 990) ]
    (List.rev !seen)

let sorted_keys tbl = List.rev (Tbl.fold_sorted ~cmp:Int.compare (fun k _ acc -> k :: acc) tbl [])

let test_tbl_fold_matches_reference () =
  let tbl = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.replace tbl k (string_of_int k)) [ 5; 1; 9; 2 ];
  let folded = Tbl.fold_sorted ~cmp:Int.compare (fun _ v acc -> acc ^ v) tbl "" in
  Alcotest.(check string) "fold visits keys ascending" "1259" folded;
  Alcotest.(check (list int)) "keys ascending" [ 1; 2; 5; 9 ] (sorted_keys tbl)

let test_tbl_remove_during_iter () =
  let tbl = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.replace tbl k ()) [ 1; 2; 3; 4; 5 ];
  (* The snapshot makes removal during traversal safe — the PR4 sweep
     relies on this at the node_state pred_since site. *)
  Tbl.iter_sorted ~cmp:Int.compare (fun k () -> if k mod 2 = 0 then Hashtbl.remove tbl k) tbl;
  Alcotest.(check (list int)) "odd keys survive" [ 1; 3; 5 ] (sorted_keys tbl)

let test_tbl_min_by () =
  let tbl = Hashtbl.create 4 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) [ (1, 30); (2, 10); (3, 20); (4, 10) ];
  let never _ _ = false in
  (match Tbl.min_by ~cmp:Int.compare ~skip:never ~score:(fun _ v -> v) tbl with
  | Some (k, v, s) ->
    (* Ties on score (keys 2 and 4 both score 10) go to the smaller key. *)
    Alcotest.(check (triple int int int)) "tie -> smallest key" (2, 10, 10) (k, v, s)
  | None -> Alcotest.fail "expected a minimum");
  (match
     Tbl.min_by ~cmp:Int.compare ~skip:(fun _ v -> v <= 10) ~score:(fun _ v -> v) tbl
   with
  | Some (k, _, _) -> Alcotest.(check int) "filtered minimum" 3 k
  | None -> Alcotest.fail "expected a minimum");
  Alcotest.(check bool) "all skipped -> none" true
    (Tbl.min_by ~cmp:Int.compare ~skip:(fun _ _ -> true) ~score:(fun _ v -> v) tbl = None)

(* The determinism contract: traversal order depends only on the key set,
   never on insertion order or resize history. *)
let prop_tbl_order_insertion_independent =
  QCheck.Test.make ~name:"tbl traversal independent of insertion order" ~count:200
    QCheck.(list small_nat)
    (fun keys ->
      let build ks =
        let tbl = Hashtbl.create 1 in
        List.iter (fun k -> Hashtbl.replace tbl k k) ks;
        Tbl.fold_sorted ~cmp:Int.compare (fun k _ acc -> k :: acc) tbl []
      in
      build keys = build (List.rev keys)
      && build keys = List.rev (List.sort_uniq Int.compare keys))

let test_latency_deterministic () =
  let l1 = make_latency () and l2 = make_latency () in
  for i = 0 to 50 do
    for j = 0 to 50 do
      check_float "same seeds, same space" (Latency.rtt l1 i j) (Latency.rtt l2 i j)
    done
  done

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "octo_sim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "coin bias" `Quick test_rng_coin;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "sample small pool" `Quick test_rng_sample_small_pool;
          Alcotest.test_case "bytes layout" `Quick test_rng_bytes_layout;
          Alcotest.test_case "bytes uniformish" `Quick test_rng_bytes_uniformish;
          Alcotest.test_case "golden streams" `Quick test_rng_golden;
          Alcotest.test_case "int allocates nothing" `Quick test_rng_int_no_alloc;
        ]
        @ qsuite [ prop_permutation_valid; prop_fill_is_bytes; prop_sample_two_is_sample ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "push/pop allocate nothing" `Quick test_heap_no_alloc;
          Alcotest.test_case "pop releases the value" `Quick test_heap_pop_releases;
          Alcotest.test_case "growth runs no minor collection" `Quick test_heap_growth_no_minor;
        ]
        @ qsuite
            [
              prop_heap_sorts;
              prop_heap_pop_nondecreasing;
              prop_heap_ties_fifo;
              prop_heap_matches_reference;
            ] );
      ( "engine",
        [
          Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "every stops" `Quick test_engine_every;
          Alcotest.test_case "run boundary" `Quick test_engine_run_until_boundary;
          Alcotest.test_case "past delay clamped" `Quick test_engine_past_delay_clamped;
          Alcotest.test_case "idle budget" `Quick test_engine_run_until_idle_budget;
          Alcotest.test_case "timer re-armed fires once" `Quick test_timer_rearm;
          Alcotest.test_case "timer cancelled then re-armed" `Quick test_timer_cancel_rearm;
          Alcotest.test_case "superseded entries not counted" `Quick
            test_timer_superseded_not_counted;
          Alcotest.test_case "timer fifo ties" `Quick test_timer_fifo_ties;
          Alcotest.test_case "times stay unboxed" `Quick test_engine_time_words;
        ] );
      ( "latency",
        [
          Alcotest.test_case "self zero" `Quick test_latency_self_zero;
          Alcotest.test_case "symmetric positive" `Quick test_latency_symmetric_positive;
          Alcotest.test_case "calibrated mean" `Quick test_latency_calibrated_mean;
          Alcotest.test_case "jitter bound" `Quick test_latency_jitter_bound;
          Alcotest.test_case "heterogeneous" `Quick test_latency_heterogeneous;
          Alcotest.test_case "deterministic" `Quick test_latency_deterministic;
        ]
        @ qsuite [ prop_sample_one_way_reference ] );
      ( "metrics",
        [
          Alcotest.test_case "dist stats" `Quick test_dist_stats;
          Alcotest.test_case "dist add after sort" `Quick test_dist_add_after_sort;
          Alcotest.test_case "dist cdf" `Quick test_dist_cdf;
          Alcotest.test_case "series sum" `Quick test_series_sum;
          Alcotest.test_case "series gauge carry" `Quick test_series_gauge_carry;
          Alcotest.test_case "series cumulative" `Quick test_series_cumulative;
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "sketch lognormal" `Quick test_sketch_lognormal;
          Alcotest.test_case "sketch adversarial sorted" `Quick test_sketch_adversarial_sorted;
          Alcotest.test_case "sketch zeros & stats" `Quick test_sketch_zeros_and_stats;
          Alcotest.test_case "sketch record no alloc" `Quick test_sketch_record_no_alloc;
        ]
        @ qsuite
            [
              prop_dist_sorted;
              prop_series_cumulative_monotone;
              prop_sketch_bounded_error;
            ] );
      ( "tbl",
        [
          Alcotest.test_case "iter_sorted ascending" `Quick test_tbl_iter_sorted_order;
          Alcotest.test_case "fold/keys reference" `Quick test_tbl_fold_matches_reference;
          Alcotest.test_case "remove during iter" `Quick test_tbl_remove_during_iter;
          Alcotest.test_case "min_by selection" `Quick test_tbl_min_by;
        ]
        @ qsuite [ prop_tbl_order_insertion_independent ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "dead drop" `Quick test_net_dead_drop;
          Alcotest.test_case "drop hook" `Quick test_net_drop_hook;
          Alcotest.test_case "byte accounting" `Quick test_net_byte_accounting;
          Alcotest.test_case "tx counted when dropped" `Quick test_net_tx_counted_even_when_dropped;
          Alcotest.test_case "send + delivery words" `Quick test_net_send_words;
          Alcotest.test_case "pending resolve" `Quick test_pending_resolve;
          Alcotest.test_case "pending timeout" `Quick test_pending_timeout;
          Alcotest.test_case "timeout exactly once" `Quick test_pending_timeout_exactly_once;
          Alcotest.test_case "drop hook + timeout" `Quick test_pending_drop_hook_timeout_interplay;
          Alcotest.test_case "late response ignored" `Quick test_pending_late_response_ignored;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "call and resolve" `Quick test_rpc_call_resolve;
          Alcotest.test_case "give-up after attempts" `Quick test_rpc_giveup_after_attempts;
          Alcotest.test_case "cap queues and drains" `Quick test_rpc_cap_queues_and_drains;
          Alcotest.test_case "dead node retry give-up" `Quick test_rpc_dead_node_retry_giveup;
          Alcotest.test_case "call + resolve words" `Quick test_rpc_call_resolve_words;
        ]
        @ qsuite [ prop_rpc_cap_never_exceeded ] );
      ( "churn",
        [
          Alcotest.test_case "cycle" `Quick test_churn_cycle;
          Alcotest.test_case "stop" `Quick test_churn_stop;
          Alcotest.test_case "stop suppresses rejoin" `Quick test_churn_stop_no_stray_rejoin;
        ] );
    ]
