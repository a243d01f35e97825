type secret = bytes
type public = bytes

let public_equal = Bytes.equal
let public_hex = Sha256.hex

type keypair = { secret : secret; public : public }
type registry = (public, secret) Hashtbl.t

let create_registry () : registry = Hashtbl.create 256

(* The secret is the SHA-256 chain state after the key block: the 32
   random bytes padded with zeros to 64. *)
let generate registry rng =
  let key = Octo_sim.Rng.bytes rng 32 in
  let public = Bytes.sub (Sha256.digest_bytes key) 0 20 in
  let block = Bytes.make 64 '\000' in
  Bytes.blit key 0 block 0 32;
  let secret = Sha256.key_chain block in
  Hashtbl.replace registry public secret;
  { secret; public }

type signature = bytes

let sign secret msg =
  if Bytes.length msg <> 32 then invalid_arg "Keys.sign: the message is not a 32-byte digest";
  Sha256.keyed_digest ~chain:secret msg

let verify registry public msg signature =
  Bytes.length msg = 32
  &&
  match Hashtbl.find_opt registry public with
  | None -> false
  | Some secret -> Sha256.keyed_digest_equal ~chain:secret msg signature

let forge () = Bytes.make 32 '\000'
let signature_bytes s = s
let signature_of_bytes b = b
let public_bytes p = p
let public_of_bytes b = b
