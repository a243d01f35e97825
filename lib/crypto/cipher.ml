let key_size = 16
let nonce_size = 16

let keystream_block ~key ~nonce counter =
  let msg = Bytes.create (Bytes.length nonce + 8) in
  Bytes.blit nonce 0 msg 0 (Bytes.length nonce);
  for i = 0 to 7 do
    Bytes.set msg
      (Bytes.length nonce + i)
      (Char.chr ((counter lsr (8 * (7 - i))) land 0xFF))
  done;
  Hmac.mac ~key msg

(* Scratch for the allocation-free path: the HMAC input (nonce ‖ counter)
   and one 32-byte keystream block. Single-threaded reuse, same as the
   scratch contexts in Sha256/Hmac. *)
(* octolint: allow no-shared-mutable — single-domain scratch; multicore:
   Domain.DLS pair, nothing escapes a call. *)
let ctr_msg = Bytes.create (nonce_size + 8)

(* octolint: allow no-shared-mutable — paired with [ctr_msg]; same
   Domain.DLS disposition. *)
let ks_block = Bytes.create 32

let xor_in_place ~key ~nonce_src ~nonce_off buf ~off ~len =
  Bytes.blit nonce_src nonce_off ctr_msg 0 nonce_size;
  let keyed = Hmac.keyed_of key in
  let counter = ref 0 in
  let pos = ref 0 in
  while !pos < len do
    for i = 0 to 7 do
      Bytes.unsafe_set ctr_msg (nonce_size + i)
        (Char.unsafe_chr ((!counter lsr (8 * (7 - i))) land 0xFF))
    done;
    Hmac.mac_keyed_into keyed ctr_msg ks_block 0;
    let chunk = min 32 (len - !pos) in
    let base = off + !pos in
    for i = 0 to chunk - 1 do
      Bytes.unsafe_set buf (base + i)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get buf (base + i))
           lxor Char.code (Bytes.unsafe_get ks_block i)))
    done;
    incr counter;
    pos := !pos + chunk
  done

let encrypt ~key ~nonce plaintext =
  let len = Bytes.length plaintext in
  if Bytes.length nonce = nonce_size then begin
    let out = Bytes.create len in
    Bytes.blit plaintext 0 out 0 len;
    xor_in_place ~key ~nonce_src:nonce ~nonce_off:0 out ~off:0 ~len;
    out
  end
  else begin
    (* Nonstandard nonce length: generic per-block path. *)
    let out = Bytes.create len in
    let block = ref (keystream_block ~key ~nonce 0) in
    let counter = ref 0 in
    for i = 0 to len - 1 do
      let off = i mod 32 in
      if off = 0 && i > 0 then begin
        incr counter;
        block := keystream_block ~key ~nonce !counter
      end;
      Bytes.set out i
        (Char.chr (Char.code (Bytes.get plaintext i) lxor Char.code (Bytes.get !block off)))
    done;
    out
  end

let decrypt = encrypt
