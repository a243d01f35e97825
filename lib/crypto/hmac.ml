let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest_bytes key else key in
  let padded = Bytes.make block_size '\000' in
  Bytes.blit key 0 padded 0 (Bytes.length key);
  padded

let xor_pad key byte =
  Bytes.map (fun c -> Char.chr (Char.code c lxor byte)) key

(* Nodes MAC with the same key thousands of times, so the SHA-256 chain
   states after absorbing the ipad/opad blocks are cached per key: a warm
   [mac] costs two compressions instead of four and allocates no pads.
   Keys are hashed structurally (by content); an inserted key is copied so
   later caller-side mutation cannot corrupt the table. *)
type keyed = { inner : Sha256.state; outer : Sha256.state }

(* octolint: allow no-shared-mutable — process-wide key-schedule memo;
   multicore: one cache per domain via Domain.DLS (misses only re-derive,
   so per-domain caches stay trace-identical). *)
let cache : (bytes, keyed) Hashtbl.t = Hashtbl.create 256
let cache_cap = 8192

let keyed_of key =
  match Hashtbl.find_opt cache key with
  | Some k -> k
  | None ->
    let nkey = normalize_key key in
    let ctx = Sha256.init () in
    Sha256.update ctx (xor_pad nkey 0x36);
    let inner = Sha256.save ctx in
    Sha256.reset ctx;
    Sha256.update ctx (xor_pad nkey 0x5c);
    let outer = Sha256.save ctx in
    let k = { inner; outer } in
    if Hashtbl.length cache >= cache_cap then Hashtbl.reset cache;
    Hashtbl.replace cache (Bytes.copy key) k;
    k

(* Module-level scratch; single-threaded, and nothing below re-enters this
   module while the scratch is live. *)
(* octolint: allow no-shared-mutable — single-domain scratch; multicore:
   Domain.DLS per-domain scratch pair, no observable state. *)
let scratch = Sha256.init ()

(* octolint: allow no-shared-mutable — paired with [scratch] above; same
   Domain.DLS disposition. *)
let inner_digest = Bytes.create 32

let mac_into ~key msg out off =
  let k = keyed_of key in
  Sha256.restore scratch k.inner;
  Sha256.update scratch msg;
  Sha256.finalize_into scratch inner_digest 0;
  Sha256.restore scratch k.outer;
  Sha256.update scratch inner_digest;
  Sha256.finalize_into scratch out off

let mac ~key msg =
  let out = Bytes.create 32 in
  mac_into ~key msg out 0;
  out

let mac_string ~key s =
  let k = keyed_of key in
  Sha256.restore scratch k.inner;
  Sha256.update_string scratch s;
  Sha256.finalize_into scratch inner_digest 0;
  Sha256.restore scratch k.outer;
  Sha256.update scratch inner_digest;
  Sha256.finalize scratch

(* octolint: allow no-shared-mutable — single-domain scratch; multicore:
   Domain.DLS, same as [scratch]/[inner_digest]. *)
let verify_scratch = Bytes.create 32

let verify ~key msg ~tag =
  mac_into ~key msg verify_scratch 0;
  Bytes.length tag = 32
  &&
  (* Accumulate differences instead of early exit. *)
  let diff = ref 0 in
  Bytes.iteri
    (fun i c -> diff := !diff lor (Char.code c lxor Char.code (Bytes.get tag i)))
    verify_scratch;
  !diff = 0
