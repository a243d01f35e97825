type secret = bytes
type public = bytes

let public_equal = Bytes.equal
let public_hex = Sha256.hex

type keypair = { secret : secret; public : public }
type registry = (public, secret) Hashtbl.t

let create_registry () : registry = Hashtbl.create 256

let generate registry rng =
  let secret = Octo_sim.Rng.bytes rng 32 in
  let public = Bytes.sub (Sha256.digest_bytes secret) 0 20 in
  Hashtbl.replace registry public secret;
  { secret; public }

type signature = bytes

let sign secret msg = Hmac.mac ~key:secret msg

let verify registry public msg signature =
  match Hashtbl.find_opt registry public with
  | None -> false
  | Some secret -> Hmac.verify ~key:secret msg ~tag:signature

(* octolint: allow no-shared-mutable — all-zero sentinel signature, never
   written after creation; multicore: safe to share read-only (or freeze
   behind [Bytes.unsafe_to_string] if bytes ever grow a writer). *)
let forge = Bytes.make 32 '\000'
let signature_bytes s = s
let signature_of_bytes b = b
let public_bytes p = p
let public_of_bytes b = b
