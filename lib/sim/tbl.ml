(* Deterministic traversal of hash tables.

   [Hashtbl.iter]/[Hashtbl.fold] visit buckets in hash order, which depends
   on the key-hash function and table geometry — resize history, insertion
   order interleavings, and (under [~random:true]) per-run randomization.
   Any such traversal feeding traces, metrics, float accumulations, or
   message emission is a determinism leak: octolint rule D3 bans the raw
   forms inside [lib/] and callers come through here instead.

   The [_sorted] helpers snapshot and sort keys on every call; the tables
   on those paths are small and cold (per-node bookkeeping, report
   buckets), so the O(n log n) snapshot is noise. The per-hop routing
   decision — pick the candidate closest to the key — is hot, and there
   [min_by] gives the same determinism without snapshotting: a minimum
   over a total order is independent of visit order. BENCH_PR4.json vs
   BENCH_PR3.json holds the lookup-kernel regression under 1%. *)

let snapshot_sorted ~cmp tbl =
  (* Duplicate keys (Hashtbl.add shadowing) would still leak bucket order
     among equal keys; call sites use [Hashtbl.replace] tables only. *)
  let pairs =
    (* octolint: allow ordered-iteration — this is the sanctioned wrapper. *)
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  in
  let arr = Array.of_list pairs in
  Array.sort (fun (a, _) (b, _) -> cmp a b) arr;
  arr

let iter_sorted ~cmp f tbl =
  Array.iter (fun (k, v) -> f k v) (snapshot_sorted ~cmp tbl)

let fold_sorted ~cmp f tbl init =
  Array.fold_left (fun acc (k, v) -> f k v acc) init (snapshot_sorted ~cmp tbl)

let min_by ~cmp ~skip ~score tbl =
  (* The minimum over the total order ((score, key) lexicographic) is the
     same whichever order buckets are visited in, so this stays a plain
     O(n) reduction — no snapshot, no sort, and no per-binding allocation
     ([skip]/[score] return unboxed values) — cheap enough for per-hop
     routing decisions on the lookup hot path. *)
  (* octolint: allow ordered-iteration — order-independent reduction. *)
  Hashtbl.fold
    (fun k v best ->
      if skip k v then best
      else begin
        let s = score k v in
        match best with
        | Some (bk, _, bs) when bs < s || (bs = s && cmp bk k < 0) -> best
        | _ -> Some (k, v, s)
      end)
    tbl None
