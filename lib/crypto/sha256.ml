(* SHA-256 (FIPS 180-4). The compression kernel works on unboxed local
   [Int32] values: ocamlopt keeps let-bound and ref-eliminated int32s in
   registers, so additions wrap natively at 32 bits with no tagging and no
   masking. The chain state between blocks stays in native ints in
   [0, 2^32), which is what marks and the digest encoding read. *)

let mask32 = 0xFFFFFFFF

(* Native-endian 32-bit access without bounds checks, for the
   compressor's own fixed-size tables and scratch. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external kget32u : string -> int -> int32 = "%caml_string_get32u"

(* SHA-256 round constants as native-endian words in an immutable
   string. *)
let k =
  let b = Bytes.create 256 in
  List.iteri
    (fun i c -> set32u b (4 * i) (Int32.of_int c))
    [
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
      0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
      0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
      0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
      0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
      0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
      0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
      0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
      0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
      0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
    ];
  Bytes.unsafe_to_string b

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes *)
  w : Bytes.t; (* message schedule scratch: 64 native-endian words *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Bytes.create 256;
  }

let reset ctx =
  ctx.h.(0) <- 0x6a09e667;
  ctx.h.(1) <- 0xbb67ae85;
  ctx.h.(2) <- 0x3c6ef372;
  ctx.h.(3) <- 0xa54ff53a;
  ctx.h.(4) <- 0x510e527f;
  ctx.h.(5) <- 0x9b05688c;
  ctx.h.(6) <- 0x1f83d9ab;
  ctx.h.(7) <- 0x5be0cd19;
  ctx.buf_len <- 0;
  ctx.total <- 0

external ( +% ) : int32 -> int32 -> int32 = "%int32_add"
external ( ^% ) : int32 -> int32 -> int32 = "%int32_xor"
external ( &% ) : int32 -> int32 -> int32 = "%int32_and"
external ( |% ) : int32 -> int32 -> int32 = "%int32_or"

let[@inline always] rotr x n =
  Int32.shift_right_logical x n |% Int32.shift_left x (32 - n)

let[@inline always] big_sigma0 a = rotr a 2 ^% rotr a 13 ^% rotr a 22
let[@inline always] big_sigma1 e = rotr e 6 ^% rotr e 11 ^% rotr e 25
let[@inline always] ch e f g = g ^% (e &% (f ^% g))
let[@inline always] maj a b c = (a &% b) |% (c &% (a |% b))

let[@inline always] small_sigma0 x =
  rotr x 7 ^% rotr x 18 ^% Int32.shift_right_logical x 3

let[@inline always] small_sigma1 x =
  rotr x 17 ^% rotr x 19 ^% Int32.shift_right_logical x 10

(* One round's schedule-and-constant term, [k.(i) + w.(i)]. *)
let[@inline always] kw w i = kget32u k (4 * i) +% get32u w (4 * i)

(* octolint: allow no-shared-mutable — process-wide compression counter,
   only ever incremented and read; multicore: one counter per domain via
   Domain.DLS, summed when read. *)
let count = ref 0

let compressions () = !count

(* Eight rounds at [i..i+7]. Round r writes only the new [e] (into the
   variable that held [d]) and the new [a] (into the one that held [h]);
   the other six words keep their variables, and the next round reads them
   under shifted names. After eight rounds every name is back in place. *)
let compress ctx block off =
  incr count;
  let w = ctx.w in
  for i = 0 to 15 do
    set32u w (4 * i) (Bytes.get_int32_be block (off + (4 * i)))
  done;
  for i = 16 to 63 do
    set32u w (4 * i)
      (get32u w (4 * (i - 16))
      +% small_sigma0 (get32u w (4 * (i - 15)))
      +% get32u w (4 * (i - 7))
      +% small_sigma1 (get32u w (4 * (i - 2))))
  done;
  let st = ctx.h in
  let ra = ref (Int32.of_int st.(0))
  and rb = ref (Int32.of_int st.(1))
  and rc = ref (Int32.of_int st.(2))
  and rd = ref (Int32.of_int st.(3))
  and re = ref (Int32.of_int st.(4))
  and rf = ref (Int32.of_int st.(5))
  and rg = ref (Int32.of_int st.(6))
  and rh = ref (Int32.of_int st.(7)) in
  for j = 0 to 7 do
    let i = 8 * j in
    let a = !ra and b = !rb and c = !rc and d = !rd in
    let e = !re and f = !rf and g = !rg and h = !rh in
    let t = h +% big_sigma1 e +% ch e f g +% kw w i in
    let d = d +% t and h = t +% big_sigma0 a +% maj a b c in
    let t = g +% big_sigma1 d +% ch d e f +% kw w (i + 1) in
    let c = c +% t and g = t +% big_sigma0 h +% maj h a b in
    let t = f +% big_sigma1 c +% ch c d e +% kw w (i + 2) in
    let b = b +% t and f = t +% big_sigma0 g +% maj g h a in
    let t = e +% big_sigma1 b +% ch b c d +% kw w (i + 3) in
    let a = a +% t and e = t +% big_sigma0 f +% maj f g h in
    let t = d +% big_sigma1 a +% ch a b c +% kw w (i + 4) in
    let h = h +% t and d = t +% big_sigma0 e +% maj e f g in
    let t = c +% big_sigma1 h +% ch h a b +% kw w (i + 5) in
    let g = g +% t and c = t +% big_sigma0 d +% maj d e f in
    let t = b +% big_sigma1 g +% ch g h a +% kw w (i + 6) in
    let f = f +% t and b = t +% big_sigma0 c +% maj c d e in
    let t = a +% big_sigma1 f +% ch f g h +% kw w (i + 7) in
    let e = e +% t and a = t +% big_sigma0 b +% maj b c d in
    ra := a;
    rb := b;
    rc := c;
    rd := d;
    re := e;
    rf := f;
    rg := g;
    rh := h
  done;
  st.(0) <- (st.(0) + Int32.to_int !ra) land mask32;
  st.(1) <- (st.(1) + Int32.to_int !rb) land mask32;
  st.(2) <- (st.(2) + Int32.to_int !rc) land mask32;
  st.(3) <- (st.(3) + Int32.to_int !rd) land mask32;
  st.(4) <- (st.(4) + Int32.to_int !re) land mask32;
  st.(5) <- (st.(5) + Int32.to_int !rf) land mask32;
  st.(6) <- (st.(6) + Int32.to_int !rg) land mask32;
  st.(7) <- (st.(7) + Int32.to_int !rh) land mask32

let update_sub ctx data off len =
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + len;
  let stop = off + len in
  let pos = ref off in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = Int.min need len in
    Bytes.blit data off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while stop - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit data !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let update ctx data = update_sub ctx data 0 (Bytes.length data)
let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

(* Padding (0x80, zeros, 64-bit big-endian bit length) happens inside
   [ctx.buf]: at most two compressions and no intermediate allocation.
   The digest is then the chain state [ctx.h]. *)
let pad ctx =
  let bit_len = ctx.total * 8 in
  let bl = ctx.buf_len in
  Bytes.set ctx.buf bl '\x80';
  if bl + 1 + 8 <= 64 then Bytes.fill ctx.buf (bl + 1) (56 - (bl + 1)) '\000'
  else begin
    Bytes.fill ctx.buf (bl + 1) (64 - (bl + 1)) '\000';
    compress ctx ctx.buf 0;
    Bytes.fill ctx.buf 0 56 '\000'
  end;
  for i = 0 to 7 do
    Bytes.set ctx.buf (56 + i) (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  compress ctx ctx.buf 0;
  ctx.buf_len <- 0

(* The chain state as 32 big-endian bytes. *)
let put_chain h out off =
  for i = 0 to 7 do
    Bytes.set_int32_be out (off + (4 * i)) (Int32.of_int (Array.unsafe_get h i))
  done

let get_chain h src off =
  for i = 0 to 7 do
    Array.unsafe_set h i (Int32.to_int (Bytes.get_int32_be src (off + (4 * i))) land mask32)
  done

let finalize_into ctx out off =
  pad ctx;
  put_chain ctx.h out off

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out 0;
  out

(* A mark is one byte string, opaque to the GC: the chain state (32
   bytes), the length so far (8 bytes), then the partial block. *)
type mark = bytes

let mark ctx =
  let m = Bytes.create (40 + ctx.buf_len) in
  put_chain ctx.h m 0;
  Bytes.set_int64_be m 32 (Int64.of_int ctx.total);
  Bytes.blit ctx.buf 0 m 40 ctx.buf_len;
  m

let resume ctx m =
  get_chain ctx.h m 0;
  ctx.total <- Int64.to_int (Bytes.get_int64_be m 32);
  ctx.buf_len <- Bytes.length m - 40;
  Bytes.blit m 40 ctx.buf 0 ctx.buf_len

(* One-shot digest through a module-level scratch context: no per-call ctx
   allocation. The simulator is single-threaded; [update]/[finalize_into]
   never call back into this module, so reuse is safe. *)
let oneshot = init ()

let digest_into data out off =
  reset oneshot;
  update oneshot data;
  finalize_into oneshot out off

let digest_bytes data =
  let out = Bytes.create 32 in
  digest_into data out 0;
  out

let digest_string s =
  let out = Bytes.create 32 in
  reset oneshot;
  update_string oneshot s;
  finalize_into oneshot out 0;
  out

(* Keyed digests: [key_chain] is the chain state after one key block, and
   resuming from it at length 64 hashes [block ‖ msg] without the block.
   A 32-byte [msg] fits the final block with its padding: one
   compression. *)
let key_chain block =
  if Bytes.length block <> 64 then invalid_arg "Sha256.key_chain: the block is not 64 bytes";
  reset oneshot;
  update oneshot block;
  let chain = Bytes.create 32 in
  put_chain oneshot.h chain 0;
  chain

let keyed ctx ~chain msg =
  get_chain ctx.h chain 0;
  ctx.buf_len <- 0;
  ctx.total <- 64;
  update ctx msg;
  pad ctx

let keyed_digest ~chain msg =
  keyed oneshot ~chain msg;
  let out = Bytes.create 32 in
  put_chain oneshot.h out 0;
  out

(* Word by word, accumulating differences instead of exiting early. *)
let keyed_digest_equal ~chain msg tag =
  Bytes.length tag = 32
  && begin
       keyed oneshot ~chain msg;
       let diff = ref 0 in
       for i = 0 to 7 do
         diff :=
           !diff
           lor (Array.unsafe_get oneshot.h i
               lxor (Int32.to_int (Bytes.get_int32_be tag (4 * i)) land mask32))
       done;
       !diff = 0
     end

let hex_digits = "0123456789abcdef"

let hex digest =
  let n = Bytes.length digest in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get digest i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string out
