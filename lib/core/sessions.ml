(* Sorted session ids and their keys, packed: slot [i]'s key is bytes
   [16 i, 16 i + 16) of [keys]. Both arrays hold no pointers, so shifts
   and growth run no write barrier.

   Session ids come from one deployment counter, so a bootstrap's and
   most walks' sessions arrive in ascending order and an insert shifts
   few slots. *)

let key_size = Octo_crypto.Cipher.key_size

type t = {
  mutable sids : int array;
  mutable keys : bytes;
  mutable len : int;  (* live slots: [0, len) *)
}

let create () = { sids = [||]; keys = Bytes.empty; len = 0 }
let length t = t.len
let keys t = t.keys

(* Index of [sid] in the live prefix, or [- insertion_point - 1]. *)
let find_slot t sid =
  let lo = ref 0 and hi = ref (t.len - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let s = Array.unsafe_get t.sids mid in
    if s = sid then found := mid else if s < sid then lo := mid + 1 else hi := mid - 1
  done;
  if !found >= 0 then !found else - !lo - 1

let mem t sid = find_slot t sid >= 0

let find t sid =
  let i = find_slot t sid in
  if i >= 0 then i * key_size else -1

(* Storage for exactly [cap] slots, the live ones copied over. *)
let resize t cap =
  let sids = Array.make cap 0 and keys = Bytes.create (cap * key_size) in
  Array.blit t.sids 0 sids 0 t.len;
  Bytes.blit t.keys 0 keys 0 (t.len * key_size);
  t.sids <- sids;
  t.keys <- keys

let set t sid key ~key_off =
  if key_off < 0 || key_off > Bytes.length key - key_size then invalid_arg "Sessions.set: key";
  let i = find_slot t sid in
  let at =
    if i >= 0 then i
    else begin
      let at = -i - 1 in
      if t.len = Array.length t.sids then resize t (max 4 (2 * t.len));
      let sids = t.sids in
      for j = t.len - 1 downto at do
        Array.unsafe_set sids (j + 1) (Array.unsafe_get sids j)
      done;
      Bytes.blit t.keys (at * key_size) t.keys ((at + 1) * key_size) ((t.len - at) * key_size);
      sids.(at) <- sid;
      t.len <- t.len + 1;
      at
    end
  in
  Bytes.blit key key_off t.keys (at * key_size) key_size

let clear t =
  t.sids <- [||];
  t.keys <- Bytes.empty;
  t.len <- 0

let reserve t cap = if cap > Array.length t.sids then resize t cap
