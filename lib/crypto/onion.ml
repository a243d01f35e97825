let layer_overhead = Cipher.nonce_size

let gen_key rng = Octo_sim.Rng.bytes rng Cipher.key_size

(* A fresh nonce, drawn straight into a layer header at [off]. *)
let put_nonce rng buf off = Octo_sim.Rng.fill rng buf off Cipher.nonce_size

let add_layer ~rng ~key ~key_off payload =
  let plen = Bytes.length payload in
  let out = Bytes.create (Cipher.nonce_size + plen) in
  put_nonce rng out 0;
  Bytes.blit payload 0 out Cipher.nonce_size plen;
  Cipher.xor_at ~key ~key_off ~nonce_src:out ~nonce_off:0 out ~off:Cipher.nonce_size ~len:plen;
  out

(* All layers are built in the one output buffer: the payload sits at the
   end, and each pass writes a nonce header and encrypts everything after
   it in place. Iterating innermost-first keeps both the RNG draw order
   and the ciphertext bytes identical to the historical per-layer
   [Bytes.cat] construction. The buffer is fresh per call — capsules are
   retained inside in-flight messages. *)
let wrap ~rng ~keys payload =
  match keys with
  | [] -> Bytes.copy payload
  | keys ->
    let keys = Array.of_list keys in
    let l = Array.length keys in
    let plen = Bytes.length payload in
    let total = (l * layer_overhead) + plen in
    let buf = Bytes.create total in
    Bytes.blit payload 0 buf (l * layer_overhead) plen;
    for i = l - 1 downto 0 do
      let noff = i * layer_overhead in
      put_nonce rng buf noff;
      Cipher.xor_in_place ~key:keys.(i) ~nonce_src:buf ~nonce_off:noff buf
        ~off:(noff + Cipher.nonce_size)
        ~len:(total - noff - Cipher.nonce_size)
    done;
    buf

let peel ~key ~key_off ciphertext =
  let clen = Bytes.length ciphertext in
  if clen < Cipher.nonce_size then None
  else begin
    let blen = clen - Cipher.nonce_size in
    let body = Bytes.sub ciphertext Cipher.nonce_size blen in
    Cipher.xor_at ~key ~key_off ~nonce_src:ciphertext ~nonce_off:0 body ~off:0 ~len:blen;
    Some body
  end

let peel_all ~keys ciphertext =
  List.fold_left
    (fun acc key ->
      match acc with
      | None -> None
      | Some c ->
        if Bytes.length key <> Cipher.key_size then invalid_arg "Onion.peel_all: key size";
        peel ~key ~key_off:0 c)
    (Some ciphertext) keys
