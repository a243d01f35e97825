(* Tests for the crypto substrate: SHA-256 against published vectors, cipher and onion round-trips, simulated signatures and
   certificates, wire-size accounting. *)

open Octo_crypto
module Rng = Octo_sim.Rng

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4 vectors) *)

let check_digest msg input expected =
  Alcotest.(check string) msg expected (Sha256.hex (Sha256.digest_string input))

let test_sha256_empty () =
  check_digest "empty" "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

let test_sha256_abc () =
  check_digest "abc" "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

let test_sha256_448bits () =
  check_digest "two-block" "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"

let test_sha256_million_a () =
  check_digest "million a" (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let test_sha256_55_56_bytes () =
  (* Around the padding boundary. *)
  check_digest "55 bytes" (String.make 55 'x')
    (Sha256.hex (Sha256.digest_bytes (Bytes.make 55 'x')));
  let d55 = Sha256.hex (Sha256.digest_string (String.make 55 'a')) in
  let d56 = Sha256.hex (Sha256.digest_string (String.make 56 'a')) in
  let d64 = Sha256.hex (Sha256.digest_string (String.make 64 'a')) in
  Alcotest.(check bool) "distinct digests" true (d55 <> d56 && d56 <> d64)

let prop_sha256_incremental =
  QCheck.Test.make ~name:"incremental update = one-shot" ~count:200
    QCheck.(pair string (int_range 1 64))
    (fun (s, chunk) ->
      let ctx = Sha256.init () in
      let len = String.length s in
      let pos = ref 0 in
      while !pos < len do
        let take = min chunk (len - !pos) in
        Sha256.update_string ctx (String.sub s !pos take);
        pos := !pos + take
      done;
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest_string s))

(* Reference SHA-256: the plain native-int compression the library used
   before its unboxed kernel, with textbook padding. The differential
   property below holds the fast kernel to it. *)
module Ref_sha256 = struct
  let mask32 = 0xFFFFFFFF

  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
      0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
      0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
      0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
      0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
      0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
      0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
      0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
      0xc67178f2;
    |]

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

  let compress h block off =
    let w = Array.make 64 0 in
    for i = 0 to 15 do
      let b j = Char.code (Bytes.get block (off + (4 * i) + j)) in
      w.(i) <- (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
    done;
    for i = 16 to 63 do
      let w15 = w.(i - 15) and w2 = w.(i - 2) in
      let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
      let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g land mask32) in
      let temp1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask32 in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let temp2 = (s0 + maj) land mask32 in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + temp1) land mask32;
      d := !c;
      c := !b;
      b := !a;
      a := (temp1 + temp2) land mask32
    done;
    List.iteri
      (fun i v -> h.(i) <- (h.(i) + v) land mask32)
      [ !a; !b; !c; !d; !e; !f; !g; !hh ]

  let digest s =
    let len = String.length s in
    let padded_len = (len + 9 + 63) / 64 * 64 in
    let msg = Bytes.make padded_len '\000' in
    Bytes.blit_string s 0 msg 0 len;
    Bytes.set msg len '\x80';
    for i = 0 to 7 do
      Bytes.set msg (padded_len - 1 - i) (Char.chr (((len * 8) lsr (8 * i)) land 0xFF))
    done;
    let h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
        0x5be0cd19;
      |]
    in
    for blk = 0 to (padded_len / 64) - 1 do
      compress h msg (64 * blk)
    done;
    String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") h))
end

(* Random message of length 0-300 and random cut points: every chunking
   must give the reference digest. *)
let prop_sha256_matches_reference =
  QCheck.Test.make ~name:"kernel = reference, any length 0-300 and chunking" ~count:500
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_range 0 300) Gen.char)
        (small_list (int_range 0 300)))
    (fun (s, cuts) ->
      let len = String.length s in
      let cuts = List.sort_uniq Int.compare (List.map (fun c -> c mod (len + 1)) cuts) in
      let ctx = Sha256.init () in
      let last =
        List.fold_left
          (fun pos cut ->
            Sha256.update_string ctx (String.sub s pos (cut - pos));
            cut)
          0 cuts
      in
      Sha256.update_string ctx (String.sub s last (len - last));
      String.equal (Sha256.hex (Sha256.finalize ctx)) (Ref_sha256.digest s))

(* A mark taken anywhere, resumed in a fresh context or in the same one
   after more input, continues the digest of the marked prefix. *)
let prop_sha256_mark_resume =
  QCheck.Test.make ~name:"resume from a mark = one-shot" ~count:300
    QCheck.(pair (string_gen_of_size (Gen.int_range 0 300) Gen.char) small_nat)
    (fun (s, cut) ->
      let len = String.length s in
      let cut = cut mod (len + 1) in
      let ctx = Sha256.init () in
      Sha256.update_string ctx (String.sub s 0 cut);
      let m = Sha256.mark ctx in
      Sha256.update_string ctx (String.make 100 'z');
      let fresh = Sha256.init () in
      Sha256.resume fresh m;
      Sha256.resume ctx m;
      Sha256.update_string fresh (String.sub s cut (len - cut));
      Sha256.update_string ctx (String.sub s cut (len - cut));
      let expected = Sha256.digest_string s in
      Bytes.equal (Sha256.finalize fresh) expected && Bytes.equal (Sha256.finalize ctx) expected)

let prop_sha256_hex =
  QCheck.Test.make ~name:"hex = %02x per byte" ~count:300 QCheck.string (fun s ->
      let b = Bytes.of_string s in
      let expected =
        String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))
      in
      String.equal (Sha256.hex b) expected)

let prop_sha256_distinct =
  QCheck.Test.make ~name:"distinct inputs hash differently" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      not (Bytes.equal (Sha256.digest_string a) (Sha256.digest_string b)))

(* ------------------------------------------------------------------ *)
(* Cipher *)

let bytes_gen = QCheck.map Bytes.of_string QCheck.string

let prop_cipher_roundtrip =
  QCheck.Test.make ~name:"ctr decrypt . encrypt = id" ~count:200 bytes_gen (fun plain ->
      let key = Bytes.make Cipher.key_size 'k' in
      let nonce = Bytes.make Cipher.nonce_size 'n' in
      let ct = Cipher.encrypt ~key ~nonce plain in
      Bytes.equal plain (Cipher.decrypt ~key ~nonce ct))

let test_cipher_length () =
  let key = Bytes.make Cipher.key_size 'k' and nonce = Bytes.make Cipher.nonce_size 'n' in
  for len = 0 to 100 do
    let ct = Cipher.encrypt ~key ~nonce (Bytes.make len 'p') in
    Alcotest.(check int) "length preserved" len (Bytes.length ct)
  done

let test_cipher_nonce_matters () =
  let key = Bytes.make Cipher.key_size 'k' in
  let plain = Bytes.make 64 'p' in
  let c1 = Cipher.encrypt ~key ~nonce:(Bytes.make 16 '1') plain in
  let c2 = Cipher.encrypt ~key ~nonce:(Bytes.make 16 '2') plain in
  Alcotest.(check bool) "different nonces differ" false (Bytes.equal c1 c2)

let test_cipher_key_matters () =
  let nonce = Bytes.make 16 'n' in
  let plain = Bytes.make 64 'p' in
  let c1 = Cipher.encrypt ~key:(Bytes.make 16 'a') ~nonce plain in
  let c2 = Cipher.encrypt ~key:(Bytes.make 16 'b') ~nonce plain in
  Alcotest.(check bool) "different keys differ" false (Bytes.equal c1 c2)

(* Reference AES-128, byte by byte as FIPS-197 §5.1 writes it: the
   S-box computed from the GF(2^8) inverse and the affine map, the state
   a 16-byte column-major array, one function per round step. The
   kernel's T-tables, word layout and counter arithmetic share nothing
   with it. *)
module Ref_aes = struct
  let xtime a = ((a lsl 1) lxor (if a land 0x80 <> 0 then 0x11b else 0)) land 0xff

  let rec gmul a b =
    if b = 0 then 0 else (if b land 1 = 1 then a else 0) lxor gmul (xtime a) (b lsr 1)

  let sbox =
    Array.init 256 (fun x ->
        (* x^254 is x's inverse, and 0 for 0. *)
        let inv = ref 1 in
        for _ = 1 to 254 do
          inv := gmul !inv x
        done;
        let b = !inv in
        let rotl n = ((b lsl n) lor (b lsr (8 - n))) land 0xff in
        b lxor rotl 1 lxor rotl 2 lxor rotl 3 lxor rotl 4 lxor 0x63)

  let get = Bytes.get_uint8
  let set = Bytes.set_uint8

  (* 11 round keys, 176 bytes. *)
  let expand key =
    let w = Bytes.create 176 in
    Bytes.blit key 0 w 0 16;
    let rc = ref 1 in
    for i = 4 to 43 do
      let t = Bytes.sub w (4 * (i - 1)) 4 in
      if i mod 4 = 0 then begin
        let t0 = get t 0 in
        for j = 0 to 2 do
          set t j sbox.(get t (j + 1))
        done;
        set t 3 sbox.(t0);
        set t 0 (get t 0 lxor !rc);
        rc := xtime !rc
      end;
      for j = 0 to 3 do
        set w ((4 * i) + j) (get w ((4 * (i - 4)) + j) lxor get t j)
      done
    done;
    w

  let encrypt_block ~key input =
    let w = expand key in
    let st = Bytes.copy input in
    let add_round_key r =
      for i = 0 to 15 do
        set st i (get st i lxor get w ((16 * r) + i))
      done
    in
    let sub_bytes () =
      for i = 0 to 15 do
        set st i sbox.(get st i)
      done
    in
    (* Row r of column c is byte r + 4c; row r rotates left by r. *)
    let shift_rows () =
      let old = Bytes.copy st in
      for r = 0 to 3 do
        for c = 0 to 3 do
          set st (r + (4 * c)) (get old (r + (4 * ((c + r) mod 4))))
        done
      done
    in
    let mix_columns () =
      for c = 0 to 3 do
        let a i = get st ((4 * c) + i) in
        let a0 = a 0 and a1 = a 1 and a2 = a 2 and a3 = a 3 in
        let mix x y z v = gmul 2 x lxor gmul 3 y lxor z lxor v in
        set st (4 * c) (mix a0 a1 a2 a3);
        set st ((4 * c) + 1) (mix a1 a2 a3 a0);
        set st ((4 * c) + 2) (mix a2 a3 a0 a1);
        set st ((4 * c) + 3) (mix a3 a0 a1 a2)
      done
    in
    add_round_key 0;
    for r = 1 to 9 do
      sub_bytes ();
      shift_rows ();
      mix_columns ();
      add_round_key r
    done;
    sub_bytes ();
    shift_rows ();
    add_round_key 10;
    st

  (* CTR one block at a time: an explicit 16-byte counter, incremented
     from its last byte with carry. *)
  let ctr ~key ~nonce data =
    let counter = Bytes.copy nonce in
    let rec incr j =
      if j >= 0 then begin
        let v = (get counter j + 1) land 0xff in
        set counter j v;
        if v = 0 then incr (j - 1)
      end
    in
    let out = Bytes.copy data in
    let block = ref Bytes.empty in
    for i = 0 to Bytes.length data - 1 do
      if i mod 16 = 0 then begin
        if i > 0 then incr 15;
        block := encrypt_block ~key counter
      end;
      set out i (get out i lxor get !block (i mod 16))
    done;
    out

  (* [Onion.wrap] spelled out: the last key innermost, one fresh nonce
     per layer in the same RNG order. *)
  let wrap ~rng ~keys payload =
    List.fold_right
      (fun key inner ->
        let nonce = Rng.bytes rng 16 in
        Bytes.cat nonce (ctr ~key ~nonce inner))
      keys payload
end

let unhex s = Bytes.init (String.length s / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
let check_hex msg expected b = Alcotest.(check string) msg expected (Sha256.hex b)

(* A zero block encrypted with counter = P is AES_k(P). *)
let aes_via_ctr ~key p = Cipher.encrypt ~key:(unhex key) ~nonce:(unhex p) (Bytes.make 16 '\000')

let test_cipher_known_answers () =
  let fips197 = [
    ("FIPS-197 App. B", "2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32");
    ("FIPS-197 App. C.1", "000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a");
  ] in
  List.iter
    (fun (name, key, p, c) ->
      check_hex name c (aes_via_ctr ~key p);
      check_hex (name ^ " (reference)") c (Ref_aes.encrypt_block ~key:(unhex key) (unhex p)))
    fips197;
  (* SP 800-38A F.5.1: four CTR blocks from counter f0f1...feff; the
     second block's counter carries out of its last byte. *)
  let key = unhex "2b7e151628aed2a6abf7158809cf4f3c" in
  let nonce = unhex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let plain =
    unhex
      ("6bc1bee22e409f96e93d7e117393172a" ^ "ae2d8a571e03ac9c9eb76fac45af8e51"
     ^ "30c81c46a35ce411e5fbc1191a0a52ef" ^ "f69f2445df4f9b17ad2b417be66c3710")
  in
  let expected =
    "874d6191b620e3261bef6864990db6ce" ^ "9806f66b7970fdff8617187bb9fffdff"
    ^ "5ae4df3edbd5d35e5b4f09020db03eab" ^ "1e031dda2fbe03d1792170a0f3009cee"
  in
  check_hex "SP 800-38A F.5.1" expected (Cipher.encrypt ~key ~nonce plain);
  check_hex "SP 800-38A F.5.1 (reference)" expected (Ref_aes.ctr ~key ~nonce plain);
  check_hex "SP 800-38A F.5.1 decrypt" (Sha256.hex plain) (Cipher.decrypt ~key ~nonce (unhex expected))

(* Counters whose increment carries across bytes, words and the whole
   block: the last 1, 4, 8 and 16 bytes all ff (the last wraps to zero).
   Five blocks and a tail per nonce, both call paths. *)
let test_cipher_counter_carries () =
  let rng = Rng.create ~seed:31 in
  let key = Onion.gen_key rng in
  let plain = Bytes.init 83 (fun i -> Char.chr ((i * 13) land 255)) in
  List.iter
    (fun ff ->
      let nonce = Rng.bytes rng Cipher.nonce_size in
      Bytes.fill nonce (Cipher.nonce_size - ff) ff '\xff';
      let expected = Sha256.hex (Ref_aes.ctr ~key ~nonce plain) in
      let name = Printf.sprintf "%d trailing ff" ff in
      check_hex name expected (Cipher.encrypt ~key ~nonce plain);
      let buf = Bytes.cat nonce plain in
      Cipher.xor_in_place ~key ~nonce_src:buf ~nonce_off:0 buf ~off:Cipher.nonce_size
        ~len:(Bytes.length plain);
      check_hex (name ^ ", in place") expected (Bytes.sub buf Cipher.nonce_size (Bytes.length plain)))
    [ 1; 4; 8; 16 ];
  (* All ff: the second block's counter is zero. *)
  let zero = Bytes.make 16 '\000' in
  let ks = Cipher.encrypt ~key ~nonce:(Bytes.make 16 '\xff') (Bytes.make 32 '\000') in
  check_hex "wraps to zero" (Sha256.hex (Ref_aes.encrypt_block ~key zero)) (Bytes.sub ks 16 16)

(* Onion layout: the nonce heads the buffer and the body after it is
   XORed in place. *)
let xor_onion ~key ~nonce data =
  let len = Bytes.length data in
  let buf = Bytes.cat nonce data in
  Cipher.xor_in_place ~key ~nonce_src:buf ~nonce_off:0 buf ~off:Cipher.nonce_size ~len;
  Bytes.sub buf Cipher.nonce_size len

(* Five keys and six nonces per seed; nonces 4 and 5 end in runs of ff,
   so their counters carry within the first few blocks. *)
let cipher_pool seed =
  let rng = Rng.create ~seed in
  let keys = Array.init 5 (fun _ -> Onion.gen_key rng) in
  let nonces = Array.init 6 (fun _ -> Rng.bytes rng Cipher.nonce_size) in
  Bytes.fill nonces.(4) 14 2 '\xff';
  Bytes.fill nonces.(5) 8 8 '\xff';
  Bytes.set nonces.(5) 15 '\xfd';
  (keys, nonces)

(* Each step encrypts fresh text or decrypts the last ciphertext, through
   [encrypt] or the in-place onion path, under any key and nonce: wrong
   keys, a nonce reused under another key and repeated decrypts all come
   up. Lengths span 0-300. *)
let prop_cipher_reference =
  QCheck.Test.make ~name:"ctr keystream = block-at-a-time reference" ~count:300
    QCheck.(
      pair small_nat
        (list_of_size Gen.(1 -- 30)
           (quad (int_bound 4) (int_bound 5) (int_bound 300) (pair bool bool))))
    (fun (seed, steps) ->
      let keys, nonces = cipher_pool seed in
      let last = ref Bytes.empty in
      List.for_all
        (fun (k, n, len, (decrypt_last, in_place)) ->
          let key = keys.(k) and nonce = nonces.(n) in
          let input =
            if decrypt_last then !last else Bytes.init len (fun i -> Char.chr (((i * 31) + len) land 255))
          in
          let out =
            if in_place then xor_onion ~key ~nonce input else Cipher.encrypt ~key ~nonce input
          in
          last := out;
          Bytes.equal out (Ref_aes.ctr ~key ~nonce input))
        steps)

(* Every argument of [xor_in_place] and [xor_at] is range-checked before
   a byte is written; a bad one raises and leaves the buffer alone. *)
let test_cipher_bounds () =
  let key = Bytes.make 16 'k' in
  let raises name f =
    let buf = Bytes.make 8 'b' in
    let nonce = Bytes.make 20 'n' in
    (match f ~key ~nonce buf with
    | () -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument _ -> ());
    Alcotest.(check string) (name ^ ": buffer untouched") "bbbbbbbb" (Bytes.to_string buf)
  in
  raises "len past the end" (fun ~key ~nonce buf ->
      Cipher.xor_in_place ~key ~nonce_src:nonce ~nonce_off:0 buf ~off:0 ~len:60);
  raises "off + len past the end" (fun ~key ~nonce buf ->
      Cipher.xor_in_place ~key ~nonce_src:nonce ~nonce_off:0 buf ~off:5 ~len:4);
  raises "off past the end" (fun ~key ~nonce buf ->
      Cipher.xor_in_place ~key ~nonce_src:nonce ~nonce_off:0 buf ~off:9 ~len:0);
  raises "negative off" (fun ~key ~nonce buf ->
      Cipher.xor_in_place ~key ~nonce_src:nonce ~nonce_off:0 buf ~off:(-1) ~len:2);
  raises "negative len" (fun ~key ~nonce buf ->
      Cipher.xor_in_place ~key ~nonce_src:nonce ~nonce_off:0 buf ~off:2 ~len:(-1));
  raises "max_int len" (fun ~key ~nonce buf ->
      Cipher.xor_in_place ~key ~nonce_src:nonce ~nonce_off:0 buf ~off:1 ~len:max_int);
  raises "negative nonce_off" (fun ~key ~nonce buf ->
      Cipher.xor_in_place ~key ~nonce_src:nonce ~nonce_off:(-1) buf ~off:0 ~len:8);
  raises "nonce past the end" (fun ~key ~nonce buf ->
      Cipher.xor_in_place ~key ~nonce_src:nonce ~nonce_off:5 buf ~off:0 ~len:8);
  raises "short nonce source" (fun ~key ~nonce:_ buf ->
      Cipher.xor_in_place ~key ~nonce_src:(Bytes.make 12 'n') ~nonce_off:0 buf ~off:0 ~len:8);
  List.iter
    (fun n ->
      raises (Printf.sprintf "%d-byte key" n) (fun ~key:_ ~nonce buf ->
          Cipher.xor_in_place ~key:(Bytes.make n 'k') ~nonce_src:nonce ~nonce_off:0 buf ~off:0 ~len:8))
    [ 0; 15; 17; 32 ];
  (* [xor_at] reads the key in place: it needs 16 bytes at [key_off]. *)
  let pair_key = Bytes.init 32 (fun i -> Char.chr (i * 7)) in
  List.iter
    (fun (len, key_off) ->
      raises (Printf.sprintf "key_off %d, %d-byte key" key_off len) (fun ~key:_ ~nonce buf ->
          Cipher.xor_at ~key:(Bytes.sub pair_key 0 len) ~key_off ~nonce_src:nonce ~nonce_off:0 buf
            ~off:0 ~len:8))
    [ (16, -1); (16, 1); (32, 17); (32, max_int); (32, min_int); (15, 0) ];
  (* The edges themselves are in range. *)
  let buf = Bytes.make 8 'b' and nonce = Bytes.make 20 'n' in
  Cipher.xor_in_place ~key ~nonce_src:nonce ~nonce_off:4 buf ~off:8 ~len:0;
  Cipher.xor_in_place ~key ~nonce_src:nonce ~nonce_off:4 buf ~off:0 ~len:8;
  Alcotest.(check string) "edges" (Bytes.to_string (Ref_aes.ctr ~key ~nonce:(Bytes.sub nonce 4 16) (Bytes.make 8 'b')))
    (Bytes.to_string buf);
  let buf = Bytes.make 8 'b' in
  Cipher.xor_at ~key:pair_key ~key_off:16 ~nonce_src:nonce ~nonce_off:4 buf ~off:0 ~len:8;
  Alcotest.(check string) "last key of a block"
    (Bytes.to_string
       (Ref_aes.ctr ~key:(Bytes.sub pair_key 16 16) ~nonce:(Bytes.sub nonce 4 16) (Bytes.make 8 'b')))
    (Bytes.to_string buf)

(* One onion layer of a four-hop path: 80 bytes, five blocks. *)
let test_cipher_no_alloc () =
  match Sys.backend_type with
  | Sys.Native ->
    let key = Bytes.make 16 'k' and buf = Bytes.make 96 'b' in
    let f () = Cipher.xor_in_place ~key ~nonce_src:buf ~nonce_off:0 buf ~off:16 ~len:80 in
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      f ()
    done;
    Alcotest.(check (float 0.0)) "10k 80-byte xor_in_place" 0.0 (Gc.minor_words () -. before)
  | Sys.Bytecode | Sys.Other _ -> ()

(* Golden pins: exact ciphertext and layering bytes at fixed seeds,
   recorded from [Ref_aes]. A change to the cipher, the counter
   encoding, the nonce layout or the RNG draw order fails here before it
   shows up as a trace diff. *)

let test_cipher_golden () =
  let rng = Rng.create ~seed:21 in
  let key = Onion.gen_key rng in
  let nonce = Rng.bytes rng Cipher.nonce_size in
  let plain = Bytes.init 100 (fun i -> Char.chr ((i * 7) land 255)) in
  let expected =
    "542da58433edeaf81edcca1e957e4a3f1f929d8c72cf54b80798d555776b7f1a27348912ec6f8669e8dd2b5182badfdafd08b83d496169c2a28b330a4acf396ebbf534e4569b8aedf277cc99af0b8d1139f910c2d9fdc79947b22ad6ed5ee40b7d443f22"
  in
  check_hex "encrypt, 16-byte nonce (reference)" expected (Ref_aes.ctr ~key ~nonce plain);
  check_hex "encrypt, 16-byte nonce" expected (Cipher.encrypt ~key ~nonce plain);
  match Cipher.encrypt ~key ~nonce:(Bytes.sub nonce 0 12) plain with
  | _ -> Alcotest.fail "12-byte nonce accepted"
  | exception Invalid_argument _ -> ()

let test_onion_golden () =
  let wrapped =
    "e6a4fdcef9b510252409a2bbcfd42613ab49143e58b95cbea77d24d9740d84bc8c7ff49739db68381346c223442e0ceef0031db6ae0b5c246686e394df892196f917b393910df4ab036d14d8d00125bd2867f3a833c119eccf4f7b0f0845"
  in
  let payload = Bytes.of_string "octopus anonymous lookup query" in
  let rng = Rng.create ~seed:22 in
  let keys = List.init 4 (fun _ -> Onion.gen_key rng) in
  check_hex "wrap, 4 layers (reference)" wrapped (Ref_aes.wrap ~rng ~keys payload);
  let rng = Rng.create ~seed:22 in
  let keys = List.init 4 (fun _ -> Onion.gen_key rng) in
  check_hex "wrap, 4 layers" wrapped (Onion.wrap ~rng ~keys payload);
  let layered = "c53bc201a35b933b7ec3844e5dc3ef365559764d398a7df7ba7461156123eb16d521788385" in
  let reply = Bytes.of_string "reply from the target" in
  let rng = Rng.create ~seed:23 in
  let key = Onion.gen_key rng in
  check_hex "add_layer (reference)" layered (Ref_aes.wrap ~rng ~keys:[ key ] reply);
  let rng = Rng.create ~seed:23 in
  let key = Onion.gen_key rng in
  check_hex "add_layer" layered (Onion.add_layer ~rng ~key ~key_off:0 reply)

(* ------------------------------------------------------------------ *)
(* Keys *)

(* Keys sign 32-byte digests only. *)
let digest_of s = Sha256.digest_string s

let test_keys_sign_verify () =
  let reg = Keys.create_registry () in
  let rng = Rng.create ~seed:1 in
  let kp = Keys.generate reg rng in
  let msg = digest_of "routing table" in
  let s = Keys.sign kp.Keys.secret msg in
  Alcotest.(check bool) "verifies" true (Keys.verify reg kp.Keys.public msg s);
  Alcotest.(check bool) "wrong message" false
    (Keys.verify reg kp.Keys.public (digest_of "tampered") s);
  Alcotest.(check bool) "forge fails" false (Keys.verify reg kp.Keys.public msg (Keys.forge ()))

let test_keys_cross_verify_fails () =
  let reg = Keys.create_registry () in
  let rng = Rng.create ~seed:2 in
  let a = Keys.generate reg rng and b = Keys.generate reg rng in
  let msg = digest_of "m" in
  let s = Keys.sign a.Keys.secret msg in
  Alcotest.(check bool) "b cannot claim a's signature" false
    (Keys.verify reg b.Keys.public msg s)

let test_keys_unregistered () =
  let reg1 = Keys.create_registry () and reg2 = Keys.create_registry () in
  let rng = Rng.create ~seed:3 in
  let kp = Keys.generate reg1 rng in
  let msg = digest_of "m" in
  let s = Keys.sign kp.Keys.secret msg in
  Alcotest.(check bool) "unknown in other registry" false
    (Keys.verify reg2 kp.Keys.public msg s)

(* A message that is not a 32-byte digest is refused: [sign] raises and
   [verify] is false, whatever the tag. *)
let test_keys_digest_only () =
  let reg = Keys.create_registry () in
  let kp = Keys.generate reg (Rng.create ~seed:8) in
  let tag = Keys.sign kp.Keys.secret (digest_of "x") in
  List.iter
    (fun len ->
      let msg = Bytes.make len 'm' in
      Alcotest.check_raises
        (Printf.sprintf "sign %d bytes" len)
        (Invalid_argument "Keys.sign: the message is not a 32-byte digest")
        (fun () -> ignore (Keys.sign kp.Keys.secret msg));
      Alcotest.(check bool) (Printf.sprintf "verify %d bytes" len) false
        (Keys.verify reg kp.Keys.public msg tag))
    [ 0; 1; 13; 31; 33; 64 ]

(* Flipping any bit of any byte of the tag or of the digest fails. *)
let test_keys_flips () =
  let reg = Keys.create_registry () in
  let kp = Keys.generate reg (Rng.create ~seed:9) in
  let msg = digest_of "table" in
  let tag = Keys.sign kp.Keys.secret msg in
  let flip b i bit =
    let c = Bytes.copy b in
    Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor (1 lsl bit)));
    c
  in
  for i = 0 to 31 do
    for bit = 0 to 7 do
      let t' = Keys.signature_of_bytes (flip (Keys.signature_bytes tag) i bit) in
      if Keys.verify reg kp.Keys.public msg t' then Alcotest.failf "tag byte %d bit %d" i bit;
      if Keys.verify reg kp.Keys.public (flip msg i bit) tag then
        Alcotest.failf "digest byte %d bit %d" i bit
    done
  done;
  Alcotest.(check bool) "unflipped verifies" true (Keys.verify reg kp.Keys.public msg tag);
  Alcotest.(check bool) "short tag fails" false
    (Keys.verify reg kp.Keys.public msg
       (Keys.signature_of_bytes (Bytes.sub (Keys.signature_bytes tag) 0 16)))

(* The tag is plain SHA-256 over the key block (the key's 32 random
   bytes, zero-padded to 64) and the digest; the key is redrawn from the
   same seed. One signature and one verification cost one compression
   each. *)
let test_keys_construction () =
  let reg = Keys.create_registry () in
  let kp = Keys.generate reg (Rng.create ~seed:10) in
  let key = Bytes.to_string (Rng.bytes (Rng.create ~seed:10) 32) in
  let msg = digest_of "list" in
  let c0 = Sha256.compressions () in
  let tag = Keys.sign kp.Keys.secret msg in
  let c1 = Sha256.compressions () in
  Alcotest.(check bool) "verifies" true (Keys.verify reg kp.Keys.public msg tag);
  let c2 = Sha256.compressions () in
  check_hex "tag"
    (Sha256.hex (digest_of (key ^ String.make 32 '\000' ^ Bytes.to_string msg)))
    (Keys.signature_bytes tag);
  Alcotest.(check (pair int int)) "compressions (sign, verify)" (1, 1) (c1 - c0, c2 - c1)

let test_keys_distinct () =
  let reg = Keys.create_registry () in
  let rng = Rng.create ~seed:4 in
  let a = Keys.generate reg rng and b = Keys.generate reg rng in
  Alcotest.(check bool) "publics distinct" false (Keys.public_equal a.Keys.public b.Keys.public)

(* ------------------------------------------------------------------ *)
(* Certificates *)

let make_authority () =
  let reg = Keys.create_registry () in
  let rng = Rng.create ~seed:5 in
  (reg, rng, Cert.create_authority reg rng)

let test_cert_issue_verify () =
  let reg, rng, auth = make_authority () in
  let kp = Keys.generate reg rng in
  let cert = Cert.issue auth ~node_id:42 ~addr:7 ~public:kp.Keys.public ~now:0.0 ~expires:100.0 in
  Alcotest.(check bool) "valid" true (Cert.verify auth ~now:50.0 cert);
  Alcotest.(check bool) "expired" false (Cert.verify auth ~now:150.0 cert)

let test_cert_tamper () =
  let reg, rng, auth = make_authority () in
  let kp = Keys.generate reg rng in
  let cert = Cert.issue auth ~node_id:42 ~addr:7 ~public:kp.Keys.public ~now:0.0 ~expires:100.0 in
  let forged = { cert with Cert.node_id = 43 } in
  Alcotest.(check bool) "tampered id fails" false (Cert.verify auth ~now:50.0 forged);
  let forged_addr = { cert with Cert.addr = 8 } in
  Alcotest.(check bool) "tampered addr fails" false (Cert.verify auth ~now:50.0 forged_addr)

let test_cert_revocation () =
  let reg, rng, auth = make_authority () in
  let kp = Keys.generate reg rng in
  let cert = Cert.issue auth ~node_id:42 ~addr:7 ~public:kp.Keys.public ~now:0.0 ~expires:100.0 in
  Alcotest.(check bool) "not revoked" false (Cert.is_revoked auth ~node_id:42);
  Cert.revoke auth ~now:10.0 ~node_id:42;
  Alcotest.(check bool) "revoked" true (Cert.is_revoked auth ~node_id:42);
  Alcotest.(check bool) "verify fails after revocation" false (Cert.verify auth ~now:50.0 cert);
  Alcotest.(check bool) "pre-revocation documents still verifiable" true
    (Cert.verify auth ~now:5.0 cert);
  Alcotest.(check (option (float 0.001))) "revocation time recorded" (Some 10.0)
    (Cert.revoked_at auth ~node_id:42);
  Cert.revoke auth ~now:10.0 ~node_id:42;
  Alcotest.(check int) "idempotent" 1 (Cert.revoked_count auth)

(* The verified-tag memo: after one successful check, a certificate that
   reuses the tag must still match every signed field, and the time and
   revocation checks must still apply. *)
let verified_cert () =
  let reg, rng, auth = make_authority () in
  let kp = Keys.generate reg rng in
  let other = Keys.generate reg rng in
  let cert = Cert.issue auth ~node_id:42 ~addr:7 ~public:kp.Keys.public ~now:0.0 ~expires:100.0 in
  Alcotest.(check bool) "first verify" true (Cert.verify auth ~now:50.0 cert);
  Alcotest.(check bool) "memo hit" true (Cert.verify auth ~now:50.0 cert);
  (reg, rng, auth, cert, other)

let test_cert_memo_fields () =
  let _, _, auth, cert, other = verified_cert () in
  let fails msg c = Alcotest.(check bool) msg false (Cert.verify auth ~now:50.0 c) in
  fails "node_id changed" { cert with Cert.node_id = 43 };
  fails "addr changed" { cert with Cert.addr = 8 };
  fails "public changed" { cert with Cert.public = other.Keys.public };
  fails "expires changed" { cert with Cert.expires = 200.0 };
  fails "issued_at changed" { cert with Cert.issued_at = 1.0 };
  (* A fresh copy of every field still hits. *)
  let copy =
    {
      cert with
      Cert.public = Keys.public_of_bytes (Bytes.copy (Keys.public_bytes cert.Cert.public));
      tag = Keys.signature_of_bytes (Bytes.copy (Keys.signature_bytes cert.Cert.tag));
    }
  in
  Alcotest.(check bool) "equal copy verifies" true (Cert.verify auth ~now:50.0 copy)

let test_cert_memo_caller_mutation () =
  let _, _, auth, cert, _ = verified_cert () in
  (* Rewriting the caller's buffers in place must not poison the memo. *)
  let pub = Keys.public_bytes cert.Cert.public in
  let saved = Bytes.copy pub in
  Bytes.fill pub 0 (Bytes.length pub) '\000';
  Alcotest.(check bool) "mutated public fails" false (Cert.verify auth ~now:50.0 cert);
  Bytes.blit saved 0 pub 0 (Bytes.length pub);
  Alcotest.(check bool) "restored public verifies" true (Cert.verify auth ~now:50.0 cert)

let test_cert_memo_time_checks () =
  let _, _, auth, cert, _ = verified_cert () in
  Alcotest.(check bool) "past expiry" false (Cert.verify auth ~now:150.0 cert);
  Alcotest.(check bool) "before issue" false (Cert.verify auth ~now:(-1.0) cert);
  Cert.revoke auth ~now:60.0 ~node_id:42;
  Alcotest.(check bool) "before revocation" true (Cert.verify auth ~now:55.0 cert);
  Alcotest.(check bool) "after revocation" false (Cert.verify auth ~now:70.0 cert);
  Alcotest.(check bool) "still after revocation" false (Cert.verify auth ~now:80.0 cert)

let test_cert_memo_other_authority () =
  let reg, rng, _, cert, _ = verified_cert () in
  let auth2 = Cert.create_authority reg rng in
  Alcotest.(check bool) "second authority rejects" false (Cert.verify auth2 ~now:50.0 cert)

(* ------------------------------------------------------------------ *)
(* Onion *)

let test_onion_wrap_peel () =
  let rng = Rng.create ~seed:6 in
  let keys = List.init 3 (fun _ -> Onion.gen_key rng) in
  let payload = Bytes.of_string "the query" in
  let wrapped = Onion.wrap ~rng ~keys payload in
  Alcotest.(check int) "size grows per layer"
    (Bytes.length payload + (3 * Onion.layer_overhead))
    (Bytes.length wrapped);
  (* Peel in path order: first key outermost. *)
  let step1 = Option.get (Onion.peel ~key:(List.nth keys 0) ~key_off:0 wrapped) in
  let step2 = Option.get (Onion.peel ~key:(List.nth keys 1) ~key_off:0 step1) in
  let step3 = Option.get (Onion.peel ~key:(List.nth keys 2) ~key_off:0 step2) in
  Alcotest.(check bytes) "payload recovered" payload step3

let test_onion_peel_all () =
  let rng = Rng.create ~seed:7 in
  let keys = List.init 5 (fun _ -> Onion.gen_key rng) in
  let payload = Bytes.of_string "reply" in
  let wrapped = Onion.wrap ~rng ~keys payload in
  Alcotest.(check (option bytes)) "peel_all" (Some payload) (Onion.peel_all ~keys wrapped)

let test_onion_wrong_key_garbles () =
  let rng = Rng.create ~seed:8 in
  let k1 = Onion.gen_key rng and k2 = Onion.gen_key rng in
  let payload = Bytes.of_string "a reasonably long payload to compare" in
  let wrapped = Onion.wrap ~rng ~keys:[ k1 ] payload in
  let peeled = Option.get (Onion.peel ~key:k2 ~key_off:0 wrapped) in
  Alcotest.(check bool) "wrong key garbles" false (Bytes.equal payload peeled)

let test_onion_reply_layering () =
  (* Relays add layers on the way back; initiator peels them all. *)
  let rng = Rng.create ~seed:9 in
  let k1 = Onion.gen_key rng and k2 = Onion.gen_key rng in
  let payload = Bytes.of_string "reply body" in
  let after_relay2 = Onion.add_layer ~rng ~key:k2 ~key_off:0 payload in
  let after_relay1 = Onion.add_layer ~rng ~key:k1 ~key_off:0 after_relay2 in
  Alcotest.(check (option bytes)) "initiator peels k1 then k2" (Some payload)
    (Onion.peel_all ~keys:[ k1; k2 ] after_relay1)

let test_onion_too_short () =
  let key = Bytes.make 16 'k' in
  Alcotest.(check (option bytes)) "short ciphertext" None (Onion.peel ~key ~key_off:0 (Bytes.make 3 'x'))

let test_onion_unlinkable () =
  let rng = Rng.create ~seed:10 in
  let key = Onion.gen_key rng in
  let payload = Bytes.of_string "same payload" in
  let w1 = Onion.wrap ~rng ~keys:[ key ] payload in
  let w2 = Onion.wrap ~rng ~keys:[ key ] payload in
  Alcotest.(check bool) "fresh nonces" false (Bytes.equal w1 w2)

let prop_onion_roundtrip =
  QCheck.Test.make ~name:"wrap then peel layer-by-layer = id" ~count:200
    QCheck.(triple small_int (int_range 0 8) bytes_gen)
    (fun (seed, layers, payload) ->
      let rng = Rng.create ~seed in
      let keys = List.init layers (fun _ -> Onion.gen_key rng) in
      let wrapped = Onion.wrap ~rng ~keys payload in
      let peeled =
        List.fold_left
          (fun acc key -> match acc with Some b -> Onion.peel ~key ~key_off:0 b | None -> None)
          (Some wrapped) keys
      in
      peeled = Some payload)

let prop_onion_peel_all_roundtrip =
  QCheck.Test.make ~name:"peel_all inverts wrap for any depth" ~count:200
    QCheck.(triple small_int (int_range 0 8) bytes_gen)
    (fun (seed, layers, payload) ->
      let rng = Rng.create ~seed in
      let keys = List.init layers (fun _ -> Onion.gen_key rng) in
      Onion.peel_all ~keys (Onion.wrap ~rng ~keys payload) = Some payload)

(* Keys read in place from one packed block, as a relay reads its
   session table's, give the bytes that the same keys give as separate
   [bytes]: peeling a wrapped capsule layer by layer, and adding and
   peeling a reply layer (with the same nonce draws). *)
let prop_onion_keys_in_place =
  QCheck.Test.make ~name:"packed keys in place = keys as bytes" ~count:200
    QCheck.(pair small_int bytes_gen)
    (fun (seed, payload) ->
      let rng = Rng.create ~seed in
      let block = Rng.bytes rng 64 in
      let keys = List.init 4 (fun i -> Bytes.sub block (16 * i) 16) in
      let capsule = Onion.wrap ~rng ~keys payload in
      let peeled =
        List.fold_left
          (fun acc i -> Option.bind acc (Onion.peel ~key:block ~key_off:(16 * i)))
          (Some capsule) [ 0; 1; 2; 3 ]
      in
      let r_block = Rng.create ~seed:(seed + 1) and r_keys = Rng.create ~seed:(seed + 1) in
      let layered = Onion.add_layer ~rng:r_block ~key:block ~key_off:48 payload in
      peeled = Some payload
      && Bytes.equal layered (Onion.add_layer ~rng:r_keys ~key:(List.nth keys 3) ~key_off:0 payload)
      && Rng.bits64 r_block = Rng.bits64 r_keys
      && Onion.peel ~key:block ~key_off:48 layered = Some payload)

let prop_onion_size_linear =
  QCheck.Test.make ~name:"wrapped size = payload + layers * overhead" ~count:100
    QCheck.(triple small_int (int_range 0 8) bytes_gen)
    (fun (seed, layers, payload) ->
      let rng = Rng.create ~seed in
      let keys = List.init layers (fun _ -> Onion.gen_key rng) in
      Bytes.length (Onion.wrap ~rng ~keys payload)
      = Bytes.length payload + (layers * Onion.layer_overhead))

(* ------------------------------------------------------------------ *)
(* Wire *)

let test_wire_sizes () =
  Alcotest.(check int) "routing item" 10 Wire.routing_item;
  Alcotest.(check int) "cert" 50 Wire.certificate;
  Alcotest.(check int) "signature" 40 Wire.signature;
  Alcotest.(check int) "entries" 180 (Wire.routing_entries 18);
  Alcotest.(check int) "signed table"
    (180 + 40 + 4 + 50)
    (Wire.signed_routing_table ~fingers:12 ~succs:6);
  Alcotest.(check int) "signed list" (60 + 40 + 4 + 50) (Wire.signed_list ~entries:6);
  Alcotest.(check bool) "onion adds per layer" true
    (Wire.onion_wrapped ~layers:3 100 > Wire.onion_wrapped ~layers:1 100)

let test_wire_digest_injective () =
  let d1 = Wire.digest_parts [ "ab"; "c" ] in
  let d2 = Wire.digest_parts [ "a"; "bc" ] in
  let d3 = Wire.digest_parts [ "abc" ] in
  Alcotest.(check bool) "field boundaries matter" false (Bytes.equal d1 d2);
  Alcotest.(check bool) "arity matters" false (Bytes.equal d2 d3)

(* The digest encoding before the streaming writer: every part rendered
   to a string first, then hashed as [string_of_int len ^ ":" ^ part]. *)
let reference_digest parts =
  let ctx = Sha256.init () in
  List.iter
    (fun part ->
      Sha256.update_string ctx (string_of_int (String.length part));
      Sha256.update_string ctx ":";
      Sha256.update_string ctx part)
    parts;
  Sha256.finalize ctx

let one_part add x =
  let w = Wire.open_digest () in
  add w x;
  Wire.close_part w;
  Wire.finish w

let int_matches n = Bytes.equal (one_part Wire.add_int n) (reference_digest [ string_of_int n ])

let test_wire_decimal () =
  List.iter
    (fun n -> Alcotest.(check bool) (string_of_int n) true (int_matches n))
    ([ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.concat_map (fun k -> let p = int_of_float (10. ** float_of_int k) in [ p - 1; p; -p; 1 - p ])
        (List.init 18 (fun k -> k + 1)))

let prop_wire_decimal =
  QCheck.Test.make ~name:"decimal = string_of_int" ~count:1000
    QCheck.(oneof [ int; small_signed_int ])
    int_matches

let prop_wire_digest_deterministic =
  QCheck.Test.make ~name:"digest deterministic" ~count:100
    QCheck.(small_list string)
    (fun parts -> Bytes.equal (Wire.digest_parts parts) (Wire.digest_parts parts))

(* Parts past the writer's initial 256-byte scratch exercise its growth. *)
let prop_wire_digest_reference =
  QCheck.Test.make ~name:"digest_parts = reference" ~count:300
    QCheck.(list_of_size Gen.(0 -- 6) (string_of_size Gen.(oneof [ 0 -- 40; 200 -- 1200 ])))
    (fun parts -> Bytes.equal (Wire.digest_parts parts) (reference_digest parts))

let time_matches x =
  Bytes.equal (one_part Wire.add_time x) (reference_digest [ Printf.sprintf "%.6f" x ])

let test_wire_time_cases () =
  (* glibc rounds exact ties half to even. *)
  Alcotest.(check string) "printf tie down" "0.007812" (Printf.sprintf "%.6f" 0.0078125);
  Alcotest.(check string) "printf tie up" "0.023438" (Printf.sprintf "%.6f" 0.0234375);
  Alcotest.(check string) "printf -0.0" "-0.000000" (Printf.sprintf "%.6f" (-0.0));
  List.iter
    (fun x -> Alcotest.(check bool) (Printf.sprintf "%h" x) true (time_matches x))
    [
      0.0; -0.0; 0.0078125; -0.0078125; 0.0234375; 0.0000005; 0.0000015; 0.0000025;
      -0.0000005; 9.9999995; 99.9999995; 0.9999995; 1e-7; -1e-7; 1.5e-6; 2.5e-6;
      Float.min_float; Float.epsilon; 4.9e-324; -4.9e-324; 1.0; 123.456789;
      1099511627775.9999; 0x1p40; -0x1p40; Float.pred 0x1p40; Float.succ 0x1p40;
      Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan; Float.max_float;
      0.1; 0.2; 0.3; 1e10 +. 0.5;
    ]

(* Values around the rounding boundary x.xxxxxx5: the nearest doubles to
   k/10^6 + 5/10^7 and their neighbours either side. *)
let gen_near_half =
  QCheck.Gen.(
    map3
      (fun k e step ->
        let x = ((float_of_int k /. 1e6) +. 5e-7) *. (10. ** float_of_int e) in
        match step with 0 -> x | 1 -> Float.succ x | 2 -> Float.pred x | _ -> -.x)
      (0 -- 10_000_000) (0 -- 4) (0 -- 3))

(* k / 2^p: exact binary fractions, ties at six places included. *)
let gen_binary_tie =
  QCheck.Gen.(
    map3
      (fun k p neg -> let x = Float.ldexp (float_of_int k) (-p) in if neg then -.x else x)
      (0 -- 1_000_000) (0 -- 30) bool)

let gen_time =
  QCheck.Gen.(
    frequency
      [
        (3, map3 (fun m e neg -> let x = Float.ldexp m e in if neg then -.x else x)
              (float_range 0.5 1.0) (-40 -- 40) bool);
        (2, map Int64.float_of_bits int64);
        (3, gen_binary_tie);
        (3, gen_near_half);
        (1, map (fun m -> Float.ldexp (float_of_int m) (-1074)) (0 -- 1_000_000));
        (1, oneofl [ 0x1p40; -0x1p40; Float.infinity; Float.neg_infinity; Float.nan; -0.0 ]);
      ])

let prop_wire_time =
  QCheck.Test.make ~name:"%.6f = Printf" ~count:20_000
    (QCheck.make ~print:(fun x -> Printf.sprintf "%h (%.6f)" x x) gen_time)
    time_matches

let test_wire_nested_open () =
  let w = Wire.open_digest () in
  Wire.add_string w "outer";
  Alcotest.check_raises "second open"
    (Invalid_argument "Wire.open_digest: another digest is open") (fun () ->
      ignore (Wire.open_digest ()));
  Wire.close_part w;
  Alcotest.(check bool) "outer stream intact" true
    (Bytes.equal (Wire.finish w) (reference_digest [ "outer" ]));
  Alcotest.(check bool) "writer released" true
    (Bytes.equal (Wire.digest_parts [ "x" ]) (reference_digest [ "x" ]))

let test_wire_unclosed_part () =
  let w = Wire.open_digest () in
  Wire.add_string w "dangling";
  Alcotest.check_raises "finish"
    (Invalid_argument "Wire.finish: the last part was not closed") (fun () ->
      ignore (Wire.finish w));
  Alcotest.(check bool) "writer released" true
    (Bytes.equal (Wire.digest_parts [ "" ]) (reference_digest [ "" ]))

(* A certificate's tag is the authority's signature over the binding
   digest.
   The authority key is reproduced from the same seed, so the tag can be
   checked against the reference encoding of the binding. *)
let prop_cert_binding_reference =
  QCheck.Test.make ~name:"certificate binding = reference" ~count:200
    QCheck.(
      quad (oneof [ int; small_signed_int ]) (oneof [ int; small_signed_int ])
        (make Gen.(map Int64.float_of_bits int64)) (make Gen.(float_range (-1e6) 1e9)))
    (fun (node_id, addr, issued_at, expires) ->
      let auth = Cert.create_authority (Keys.create_registry ()) (Octo_sim.Rng.create ~seed:5) in
      let ca_key = Keys.generate (Keys.create_registry ()) (Octo_sim.Rng.create ~seed:5) in
      let kp = Keys.generate (Keys.create_registry ()) (Octo_sim.Rng.create ~seed:6) in
      let cert =
        Cert.issue auth ~node_id ~addr ~public:kp.Keys.public ~now:issued_at ~expires
      in
      let binding =
        reference_digest
          [
            string_of_int node_id;
            string_of_int addr;
            Keys.public_hex kp.Keys.public;
            Printf.sprintf "%.6f" issued_at;
            Printf.sprintf "%.6f" expires;
          ]
      in
      Bytes.equal
        (Keys.signature_bytes cert.Cert.tag)
        (Keys.signature_bytes (Keys.sign ca_key.Keys.secret binding)))

(* The CA tag of one certificate, pinned. The expected value is plain
   SHA-256 over the CA's key block (its 32 random bytes, redrawn from the
   same seed, zero-padded to 64) and the reference encoding of the
   binding, with no call through [Keys]. *)
let test_cert_tag_golden () =
  let reg, rng, auth = make_authority () in
  let kp = Keys.generate reg rng in
  let cert = Cert.issue auth ~node_id:42 ~addr:7 ~public:kp.Keys.public ~now:0.0 ~expires:100.0 in
  let ca_key = Bytes.to_string (Rng.bytes (Rng.create ~seed:5) 32) in
  let binding =
    reference_digest [ "42"; "7"; Sha256.hex (Keys.public_bytes kp.Keys.public); "0.000000"; "100.000000" ]
  in
  let golden = "cacccc9ff90965c1cd08a579ba51ed7482791903c65c112a5952802042f71102" in
  check_hex "reference" golden
    (Sha256.digest_string (ca_key ^ String.make 32 '\000' ^ Bytes.to_string binding));
  check_hex "CA tag over the binding" golden (Keys.signature_bytes cert.Cert.tag)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "octo_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty" `Quick test_sha256_empty;
          Alcotest.test_case "abc" `Quick test_sha256_abc;
          Alcotest.test_case "two-block" `Quick test_sha256_448bits;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "padding boundary" `Quick test_sha256_55_56_bytes;
        ]
        @ qsuite
            [
              prop_sha256_incremental;
              prop_sha256_distinct;
              prop_sha256_matches_reference;
              prop_sha256_hex;
              prop_sha256_mark_resume;
            ] );
      ( "cipher",
        [
          Alcotest.test_case "length preserved" `Quick test_cipher_length;
          Alcotest.test_case "nonce matters" `Quick test_cipher_nonce_matters;
          Alcotest.test_case "key matters" `Quick test_cipher_key_matters;
          Alcotest.test_case "golden bytes" `Quick test_cipher_golden;
          Alcotest.test_case "known answers" `Quick test_cipher_known_answers;
          Alcotest.test_case "counter carries" `Quick test_cipher_counter_carries;
          Alcotest.test_case "xor_in_place bounds" `Quick test_cipher_bounds;
          Alcotest.test_case "xor_in_place allocates nothing" `Quick test_cipher_no_alloc;
        ]
        @ qsuite [ prop_cipher_roundtrip; prop_cipher_reference ] );
      ( "keys",
        [
          Alcotest.test_case "sign/verify" `Quick test_keys_sign_verify;
          Alcotest.test_case "cross verify fails" `Quick test_keys_cross_verify_fails;
          Alcotest.test_case "unregistered" `Quick test_keys_unregistered;
          Alcotest.test_case "distinct" `Quick test_keys_distinct;
          Alcotest.test_case "digest only" `Quick test_keys_digest_only;
          Alcotest.test_case "flipped bits fail" `Quick test_keys_flips;
          Alcotest.test_case "tag = SHA-256(key block, digest)" `Quick test_keys_construction;
        ] );
      ( "cert",
        [
          Alcotest.test_case "issue/verify" `Quick test_cert_issue_verify;
          Alcotest.test_case "tamper" `Quick test_cert_tamper;
          Alcotest.test_case "revocation" `Quick test_cert_revocation;
          Alcotest.test_case "tag golden" `Quick test_cert_tag_golden;
          Alcotest.test_case "memo field match" `Quick test_cert_memo_fields;
          Alcotest.test_case "memo caller mutation" `Quick test_cert_memo_caller_mutation;
          Alcotest.test_case "memo time checks" `Quick test_cert_memo_time_checks;
          Alcotest.test_case "memo other authority" `Quick test_cert_memo_other_authority;
        ] );
      ( "onion",
        [
          Alcotest.test_case "wrap/peel" `Quick test_onion_wrap_peel;
          Alcotest.test_case "peel_all" `Quick test_onion_peel_all;
          Alcotest.test_case "wrong key garbles" `Quick test_onion_wrong_key_garbles;
          Alcotest.test_case "reply layering" `Quick test_onion_reply_layering;
          Alcotest.test_case "too short" `Quick test_onion_too_short;
          Alcotest.test_case "unlinkable" `Quick test_onion_unlinkable;
          Alcotest.test_case "golden bytes" `Quick test_onion_golden;
        ]
        @ qsuite
            [
              prop_onion_roundtrip;
              prop_onion_peel_all_roundtrip;
              prop_onion_size_linear;
              prop_onion_keys_in_place;
            ] );
      ( "wire",
        [
          Alcotest.test_case "sizes" `Quick test_wire_sizes;
          Alcotest.test_case "digest injective" `Quick test_wire_digest_injective;
          Alcotest.test_case "decimal edge values" `Quick test_wire_decimal;
          Alcotest.test_case "%.6f named values" `Quick test_wire_time_cases;
          Alcotest.test_case "nested open raises" `Quick test_wire_nested_open;
          Alcotest.test_case "unclosed part raises" `Quick test_wire_unclosed_part;
        ]
        @ qsuite
            [
              prop_wire_digest_deterministic;
              prop_wire_decimal;
              prop_wire_digest_reference;
              prop_wire_time;
              prop_cert_binding_reference;
            ] );
    ]
