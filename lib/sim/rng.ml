(* The xoshiro256** state s0..s3 lives unboxed in 32 bytes. As a record
   of [mutable int64] fields, every draw stored four freshly boxed words
   behind four write barriers; here a draw reads and writes raw 64-bit
   slots, and [bits64] inlined into a caller in this module allocates
   nothing. *)
type t = Bytes.t

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64: used only to expand seeds into xoshiro state. *)
let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed64 seed64 =
  let state = ref seed64 in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64u t (8 * i) (splitmix64 state)
  done;
  t

let create ~seed = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** next *)
let[@inline] bits64 t =
  let s0 = get64u t 0 and s1 = get64u t 8 and s2 = get64u t 16 and s3 = get64u t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64u t 0 s0;
  set64u t 8 s1;
  set64u t 16 (Int64.logxor s2 tmp);
  set64u t 24 (rotl s3 45);
  result

(* Byte order matches the historical per-call loops (Keys.generate,
   Onion's keys and nonces): each 64-bit draw is consumed least-significant
   byte first, so existing seeds reproduce byte-identical streams. *)
let fill t out off n =
  if off < 0 || n < 0 || off > Bytes.length out - n then invalid_arg "Rng.fill";
  let i = ref 0 in
  while !i < n do
    let word = bits64 t in
    let chunk = min 8 (n - !i) in
    for j = 0 to chunk - 1 do
      Bytes.unsafe_set out (off + !i + j)
        (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical word (8 * j)) land 0xFF))
    done;
    i := !i + chunk
  done

let bytes t n =
  let out = Bytes.create n in
  fill t out 0 n;
  out

let split t = of_seed64 (bits64 t)

let int t bound =
  assert (bound > 0);
  (* [land max_int] keeps the value non-negative after the 64->63 bit
     truncation of [Int64.to_int]. *)
  let mask = Int64.to_int (Int64.shift_right_logical (bits64 t) 1) land max_int in
  mask mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 random bits into [0, 1). *)
  let x = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. 0x1.0p-53

let float t bound = unit_float t *. bound
let coin t p = unit_float t < p

let exponential t ~mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. unit_float t and u2 = unit_float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let sample t ~k arr =
  let n = Array.length arr in
  let k = Int.min k n in
  let copy = Array.copy arr in
  (* Partial Fisher-Yates: first [k] slots are the sample. *)
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  if k = n then copy else Array.sub copy 0 k

(* [sample ~k:2] without the copy: the first step swaps slots 0 and
   [j0], so slot [j0] then holds [arr.(0)]. *)
let sample_two t arr =
  let n = Array.length arr in
  if n = 0 then None
  else begin
    let j0 = int_in t 0 (n - 1) in
    if n = 1 then None
    else
      let j1 = int_in t 1 (n - 1) in
      Some (arr.(j0), if j1 = j0 then arr.(0) else arr.(j1))
  end

(* Fisher-Yates over the identity. *)
let permutation t n =
  let arr = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  arr
