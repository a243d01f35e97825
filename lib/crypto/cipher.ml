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

(* Keystream memo. Both ends of an onion layer run the same stream: the
   sender in [Onion.wrap]/[add_layer], the receiver in [peel]. A
   direct-mapped table keeps the last stream made in each slot, so the
   receiver's pass usually reads the sender's stream back instead of
   recomputing it. A slot is key ‖ nonce ‖ stream ‖ stream length (one
   byte, 0 = empty), chosen by the nonce's last two bytes. The stream is
   a function of key, nonce and counter alone, so a slot with the
   caller's key and nonce and a long enough stream holds exactly the
   bytes recomputing would give. Key and nonce are copied in, so a caller
   that later rewrites its buffers only misses. The table is allocated
   once, here: nothing per call, and nothing grows with load. *)
let slots = 4096
let max_stream = 96
let stream_off = key_size + nonce_size
let len_off = stream_off + max_stream
let slot_size = len_off + 1

(* octolint: allow no-shared-mutable — keystream memo; multicore: one
   table per domain via Domain.DLS (a miss only recomputes, so per-domain
   memos stay trace-identical). *)
let memo = Bytes.make (slots * slot_size) '\000'

(* HMAC input scratch: nonce ‖ 8-byte big-endian counter. Single-threaded
   reuse, same as the scratch contexts in Sha256/Hmac. *)
(* octolint: allow no-shared-mutable — single-domain scratch; multicore:
   Domain.DLS, nothing escapes a call. *)
let ctr_msg = Bytes.create (nonce_size + 8)

let same16 a a_off b b_off =
  Int64.equal (Bytes.get_int64_ne a a_off) (Bytes.get_int64_ne b b_off)
  && Int64.equal (Bytes.get_int64_ne a (a_off + 8)) (Bytes.get_int64_ne b (b_off + 8))

(* Writes keystream block [counter] for the nonce in [ctr_msg] at
   [memo.(dst)]. *)
let block keyed counter dst =
  for i = 0 to 7 do
    Bytes.unsafe_set ctr_msg (nonce_size + i)
      (Char.unsafe_chr ((counter lsr (8 * (7 - i))) land 0xFF))
  done;
  Hmac.mac_keyed_into keyed ctr_msg memo dst

let xor_memo src buf off len =
  for i = 0 to len - 1 do
    Bytes.unsafe_set buf (off + i)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get buf (off + i))
         lxor Char.code (Bytes.unsafe_get memo (src + i))))
  done

let xor_in_place ~key ~nonce_src ~nonce_off buf ~off ~len =
  let slot =
    slot_size * (Bytes.get_uint16_le nonce_src (nonce_off + nonce_size - 2) land (slots - 1))
  in
  let stream = slot + stream_off in
  if len <= max_stream && Bytes.length key = key_size then begin
    if
      not
        (Char.code (Bytes.unsafe_get memo (slot + len_off)) >= len
        && same16 memo slot key 0
        && same16 memo (slot + key_size) nonce_src nonce_off)
    then begin
      Bytes.blit nonce_src nonce_off ctr_msg 0 nonce_size;
      let keyed = Hmac.keyed_of key in
      let blocks = (len + 31) / 32 in
      for b = 0 to blocks - 1 do
        block keyed b (stream + (32 * b))
      done;
      Bytes.blit key 0 memo slot key_size;
      Bytes.blit nonce_src nonce_off memo (slot + key_size) nonce_size;
      Bytes.unsafe_set memo (slot + len_off) (Char.unsafe_chr (32 * blocks))
    end;
    xor_memo stream buf off len
  end
  else begin
    (* Too long to keep, or a key size the memo does not hold: the slot's
       stream area is the block buffer, and the slot is left empty. *)
    Bytes.unsafe_set memo (slot + len_off) '\000';
    Bytes.blit nonce_src nonce_off ctr_msg 0 nonce_size;
    let keyed = Hmac.keyed_of key in
    let pos = ref 0 in
    while !pos < len do
      block keyed (!pos / 32) stream;
      let chunk = min 32 (len - !pos) in
      xor_memo stream buf (off + !pos) chunk;
      pos := !pos + chunk
    done
  end

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
