(* Compact int-keyed maps for population-scale per-node state.

   A sorted pair of parallel arrays replaces the per-node [Hashtbl.t]s
   that dominated memory at large populations: an empty map is one
   3-field record sharing the empty-array atom (4 words total, vs ~20
   for [Hashtbl.create 8]), iteration is already key-ordered (no
   snapshot-and-sort like [Tbl.iter_sorted]), and lookups compare
   unboxed ints. The maps on these paths hold a handful of entries
   (sessions, receipts, predecessor bookkeeping), so O(log n) binary
   search plus O(n) shifting beats hashing on both time and space.

   Determinism: iteration order is ascending key order by construction —
   identical to the [Tbl.iter_sorted ~cmp:Int.compare] discipline the
   hashtable call sites used, and independent of insertion history. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;  (* parallel to [keys]; live in [0, len) *)
  mutable len : int;
}

let create () = { keys = [||]; vals = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Index of [key] in the live prefix, or [- insertion_point - 1]. *)
let find_slot t key =
  let lo = ref 0 and hi = ref (t.len - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let k = Array.unsafe_get t.keys mid in
    if k = key then found := mid else if k < key then lo := mid + 1 else hi := mid - 1
  done;
  if !found >= 0 then !found else - !lo - 1

let mem t key = find_slot t key >= 0

let find_opt t key =
  let i = find_slot t key in
  if i >= 0 then Some (Array.unsafe_get t.vals i) else None

let first t =
  if t.len = 0 then None else Some (Array.unsafe_get t.keys 0, Array.unsafe_get t.vals 0)

let find_ceil t key =
  let i = find_slot t key in
  let i = if i >= 0 then i else -i - 1 in
  if i < t.len then Some (Array.unsafe_get t.keys i, Array.unsafe_get t.vals i) else None

let of_sorted bindings =
  let n = Array.length bindings in
  for i = 1 to n - 1 do
    if fst bindings.(i - 1) >= fst bindings.(i) then
      invalid_arg "Imap.of_sorted: keys are not strictly ascending"
  done;
  if n = 0 then create ()
  else { keys = Array.map fst bindings; vals = Array.map snd bindings; len = n }

(* Doubles a full map. The wider value array is the old one appended to
   itself, its spare half then filled with live element 0, never
   [Array.make] with the value being inserted: that value is usually
   young, and [caml_make_vect] empties the minor heap before it puts a
   young value into an array too large for it (over 256 words). *)
let grow t v =
  if t.len = 0 then begin
    t.keys <- Array.make 4 0;
    t.vals <- Array.make 4 v
  end
  else begin
    let vals = Array.append t.vals t.vals in
    Array.fill vals t.len t.len vals.(0);
    t.keys <- Array.append t.keys t.keys;
    t.vals <- vals
  end

(* Keys shift with plain int loops: [Array.blit] cannot tell an int array
   from a pointer array and runs [caml_modify] on every word once the
   array is in the major heap. Values keep the blit, which needs the
   barrier anyway. *)
let set t key v =
  let i = find_slot t key in
  if i >= 0 then t.vals.(i) <- v
  else begin
    let at = -i - 1 in
    if t.len = Array.length t.keys then grow t v;
    let keys = t.keys in
    for j = t.len - 1 downto at do
      Array.unsafe_set keys (j + 1) (Array.unsafe_get keys j)
    done;
    Array.blit t.vals at t.vals (at + 1) (t.len - at);
    t.keys.(at) <- key;
    t.vals.(at) <- v;
    t.len <- t.len + 1
  end

let remove t key =
  let i = find_slot t key in
  if i >= 0 then begin
    let keys = t.keys in
    for j = i to t.len - 2 do
      Array.unsafe_set keys j (Array.unsafe_get keys (j + 1))
    done;
    Array.blit t.vals (i + 1) t.vals i (t.len - i - 1);
    t.len <- t.len - 1;
    if t.len = 0 then begin
      (* Return quiescent maps to the 4-word empty footprint. *)
      t.keys <- [||];
      t.vals <- [||]
    end
    else
      (* Alias the vacated slot to a live value so the removed binding
         does not stay reachable through the spare capacity. *)
      t.vals.(t.len) <- t.vals.(0)
  end

let clear t =
  t.keys <- [||];
  t.vals <- [||];
  t.len <- 0

(* Callbacks must not add or remove bindings: iteration walks the live
   arrays in place (no snapshot). Collect keys first to mutate. *)
let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.keys i) (Array.unsafe_get t.vals i)
  done

let fold f t init =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f (Array.unsafe_get t.keys i) (Array.unsafe_get t.vals i) !acc
  done;
  !acc

let min_by ~skip ~score t =
  let best = ref None in
  for i = 0 to t.len - 1 do
    let k = Array.unsafe_get t.keys i and v = Array.unsafe_get t.vals i in
    if not (skip k v) then begin
      let s = score k v in
      match !best with
      | Some (_, _, bs) when bs <= s -> ()
      | _ -> best := Some (k, v, s)
    end
  done;
  !best
