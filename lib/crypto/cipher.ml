(* AES-128 (FIPS-197), encryption direction only, in counter mode (SP
   800-38A): the 16-byte nonce is the first counter block, incremented
   as a 128-bit big-endian integer, and each encrypted counter block is
   16 keystream bytes. CTR decrypts by encrypting again, so the inverse
   cipher is never needed.

   T-table form. A state column is a big-endian word. Through the full
   rounds it is an unboxed [int64], which ocamlopt keeps in a register
   with no tagging; a full round is sixteen table lookups and XORs. The
   last round reads the S-box on native ints. Only the low 32 bits of a
   word mean anything: round keys come back sign-extended, so every
   byte is taken with a mask and every stored word is truncated by
   [Int32.of_int]. *)

let key_size = 16
let nonce_size = 16
let mask32 = 0xFFFFFFFF

(* Unchecked access: [xor_at] checks its ranges once, up front,
   and the tables are indexed by masked bytes. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external sget64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Native-endian to big-endian and back. *)
let[@inline always] swap_be w = if Sys.big_endian then w else bswap32 w
let[@inline always] get_be b i = Int32.to_int (swap_be (get32u b i)) land mask32

(* FIPS-197 Fig. 7. *)
let sbox =
  let b = Bytes.create 256 in
  List.iteri
    (fun i c -> Bytes.set b i (Char.chr c))
    [
      0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b; 0xfe; 0xd7; 0xab; 0x76;
      0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0; 0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0;
      0xb7; 0xfd; 0x93; 0x26; 0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
      0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2; 0xeb; 0x27; 0xb2; 0x75;
      0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0; 0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84;
      0x53; 0xd1; 0x00; 0xed; 0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
      0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f; 0x50; 0x3c; 0x9f; 0xa8;
      0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5; 0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2;
      0xcd; 0x0c; 0x13; 0xec; 0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
      0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14; 0xde; 0x5e; 0x0b; 0xdb;
      0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c; 0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79;
      0xe7; 0xc8; 0x37; 0x6d; 0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
      0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f; 0x4b; 0xbd; 0x8b; 0x8a;
      0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e; 0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e;
      0xe1; 0xf8; 0x98; 0x11; 0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
      0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f; 0xb0; 0x54; 0xbb; 0x16;
    ];
  Bytes.unsafe_to_string b

(* Key-schedule round constants, x^(i-1) in GF(2^8). *)
let rcon = "\x01\x02\x04\x08\x10\x20\x40\x80\x1b\x36"

(* Te0.(x) is the MixColumns column of S(x), bytes [2·S, S, S, 3·S];
   Te1..Te3 are its byte rotations, so one lookup per state byte does
   SubBytes, ShiftRows and MixColumns at once. The four tables share one
   immutable string, like [Sha256.k]: entry x of Te_i is the native-endian
   64-bit word at 2048·i + 8·x, so a lookup loads an [int64] as is. *)
let te =
  let b = Bytes.create 8192 in
  for x = 0 to 255 do
    let s = Char.code sbox.[x] in
    let s2 = ((s lsl 1) lxor (if s land 0x80 <> 0 then 0x11b else 0)) land 0xff in
    let w = (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s) in
    for i = 0 to 3 do
      let rot = 8 * i in
      let w = ((w lsr rot) lor (w lsl (32 - rot))) land mask32 in
      set64u b ((2048 * i) + (8 * x)) (Int64.of_int w)
    done
  done;
  Bytes.unsafe_to_string b

external ( ^^ ) : int64 -> int64 -> int64 = "%int64_xor"

(* [ti x] is Te_i at byte i of [x], counting from the top; the shifts
   leave the byte scaled by 8. *)
let[@inline always] t0 x = sget64u te (Int64.to_int (Int64.shift_right_logical x 21) land 0x7f8)
let[@inline always] t1 x = sget64u te (2048 + (Int64.to_int (Int64.shift_right_logical x 13) land 0x7f8))
let[@inline always] t2 x = sget64u te (4096 + (Int64.to_int (Int64.shift_right_logical x 5) land 0x7f8))
let[@inline always] t3 x = sget64u te (6144 + (Int64.to_int (Int64.shift_left x 3) land 0x7f8))
let[@inline always] s x = Char.code (String.unsafe_get sbox (x land 0xff))

(* The 44 round-key words, native-endian, rewritten on every call. *)
(* octolint: allow no-shared-mutable — single-domain round-key scratch;
   multicore: Domain.DLS, nothing escapes a call. *)
let rk = Bytes.create 176

let[@inline always] rkw i = Int32.to_int (get32u rk (4 * i))
let[@inline always] rk64 i = Int64.of_int32 (get32u rk (4 * i))
let[@inline always] set_rk i w = set32u rk (4 * i) (Int32.of_int w)

let expand key key_off =
  let w0 = ref (get_be key key_off)
  and w1 = ref (get_be key (key_off + 4))
  and w2 = ref (get_be key (key_off + 8))
  and w3 = ref (get_be key (key_off + 12)) in
  set_rk 0 !w0;
  set_rk 1 !w1;
  set_rk 2 !w2;
  set_rk 3 !w3;
  for r = 1 to 10 do
    let x = !w3 in
    (* SubWord (RotWord x) xor Rcon *)
    w0 :=
      !w0
      lxor ((s (x lsr 16) lxor Char.code (String.unsafe_get rcon (r - 1))) lsl 24)
      lxor (s (x lsr 8) lsl 16)
      lxor (s x lsl 8)
      lxor s (x lsr 24);
    w1 := !w1 lxor !w0;
    w2 := !w2 lxor !w1;
    w3 := !w3 lxor !w2;
    set_rk (4 * r) !w0;
    set_rk ((4 * r) + 1) !w1;
    set_rk ((4 * r) + 2) !w2;
    set_rk ((4 * r) + 3) !w3
  done

(* [buf.(p..p+3)] xor the big-endian word [w]. *)
let[@inline always] xor_word buf p w =
  set32u buf p (Int32.logxor (get32u buf p) (swap_be (Int32.of_int w)))

let xor_at ~key ~key_off ~nonce_src ~nonce_off buf ~off ~len =
  if key_off < 0 || key_off > Bytes.length key - key_size then invalid_arg "Cipher.xor_at: key range";
  if nonce_off < 0 || nonce_off > Bytes.length nonce_src - nonce_size then
    invalid_arg "Cipher.xor_at: nonce range";
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Cipher.xor_at: buffer range";
  expand key key_off;
  (* The counter block, read before any byte of [buf] is written. *)
  let c0 = ref (get_be nonce_src nonce_off)
  and c1 = ref (get_be nonce_src (nonce_off + 4))
  and c2 = ref (get_be nonce_src (nonce_off + 8))
  and c3 = ref (get_be nonce_src (nonce_off + 12)) in
  let stop = off + len in
  let pos = ref off in
  while !pos < stop do
    let s0 = ref (Int64.of_int !c0 ^^ rk64 0)
    and s1 = ref (Int64.of_int !c1 ^^ rk64 1)
    and s2 = ref (Int64.of_int !c2 ^^ rk64 2)
    and s3 = ref (Int64.of_int !c3 ^^ rk64 3) in
    for r = 1 to 9 do
      let a = !s0 and b = !s1 and c = !s2 and d = !s3 and k = 4 * r in
      s0 := t0 a ^^ t1 b ^^ t2 c ^^ t3 d ^^ rk64 k;
      s1 := t0 b ^^ t1 c ^^ t2 d ^^ t3 a ^^ rk64 (k + 1);
      s2 := t0 c ^^ t1 d ^^ t2 a ^^ t3 b ^^ rk64 (k + 2);
      s3 := t0 d ^^ t1 a ^^ t2 b ^^ t3 c ^^ rk64 (k + 3)
    done;
    let a = Int64.to_int !s0 and b = Int64.to_int !s1 in
    let c = Int64.to_int !s2 and d = Int64.to_int !s3 in
    let o0 = (s (a lsr 24) lsl 24) lor (s (b lsr 16) lsl 16) lor (s (c lsr 8) lsl 8) lor s d lxor rkw 40
    and o1 = (s (b lsr 24) lsl 24) lor (s (c lsr 16) lsl 16) lor (s (d lsr 8) lsl 8) lor s a lxor rkw 41
    and o2 = (s (c lsr 24) lsl 24) lor (s (d lsr 16) lsl 16) lor (s (a lsr 8) lsl 8) lor s b lxor rkw 42
    and o3 = (s (d lsr 24) lsl 24) lor (s (a lsr 16) lsl 16) lor (s (b lsr 8) lsl 8) lor s c lxor rkw 43 in
    let p = !pos in
    if stop - p >= 16 then begin
      xor_word buf p o0;
      xor_word buf (p + 4) o1;
      xor_word buf (p + 8) o2;
      xor_word buf (p + 12) o3;
      pos := p + 16
    end
    else begin
      (* The tail: byte j of the block is byte (j mod 4) of word j/4. *)
      for j = 0 to stop - p - 1 do
        let w = if j < 4 then o0 else if j < 8 then o1 else if j < 12 then o2 else o3 in
        let k = (w lsr (24 - (8 * (j land 3)))) land 0xff in
        Bytes.unsafe_set buf (p + j)
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf (p + j)) lxor k))
      done;
      pos := stop
    end;
    c3 := (!c3 + 1) land mask32;
    if !c3 = 0 then begin
      c2 := (!c2 + 1) land mask32;
      if !c2 = 0 then begin
        c1 := (!c1 + 1) land mask32;
        if !c1 = 0 then c0 := (!c0 + 1) land mask32
      end
    end
  done

let xor_in_place ~key ~nonce_src ~nonce_off buf ~off ~len =
  if Bytes.length key <> key_size then invalid_arg "Cipher.xor_in_place: key size";
  xor_at ~key ~key_off:0 ~nonce_src ~nonce_off buf ~off ~len

let encrypt ~key ~nonce plaintext =
  if Bytes.length nonce <> nonce_size then invalid_arg "Cipher.encrypt: nonce size";
  let out = Bytes.copy plaintext in
  xor_in_place ~key ~nonce_src:nonce ~nonce_off:0 out ~off:0 ~len:(Bytes.length out);
  out

let decrypt = encrypt
