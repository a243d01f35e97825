(* Parallel-array binary min-heap: priorities live in an unboxed float
   array and tie-breaking sequence numbers in an int array, so a push
   allocates nothing once capacity is reached (the old entry-record
   representation boxed a 4-word record plus a float per event).

   Sifts move a hole, not an element: each level copies one
   (prio, seq, value) triple and the moving element is written once
   where it stops, so the [vals] array (in the major heap, behind a write
   barrier) takes one store per level instead of a swap's two. (prio,
   seq) is a strict total order, so the pop order is the swap-based
   heap's. The sift overwrites a popped value unless it was the last
   element; spare slots beyond [len] hold what was live when they were
   last written: the first push's value, the minimum when the arrays
   last grew, or an element a pop moved. [push] returns the entry's
   sequence number and [min_seq] reads the minimum's, so a caller can
   tell an entry it has since superseded from a live one without a
   record per entry. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { prios = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }
let is_empty t = t.len = 0

let less t i j =
  let pi = Array.unsafe_get t.prios i and pj = Array.unsafe_get t.prios j in
  pi < pj || (pi = pj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

(* A full heap doubles as [Imap.grow] does: the old arrays appended to
   themselves, spare value slots then filled with live element 0, so a
   young [value] is never [Array.make]'s fill for an array over 256
   words (which would force a minor collection). *)
let grow t value =
  let cap = Array.length t.vals in
  if t.len = cap then
    if cap = 0 then begin
      t.prios <- Array.make 16 0.0;
      t.seqs <- Array.make 16 0;
      t.vals <- Array.make 16 value
    end
    else begin
      let vals = Array.append t.vals t.vals in
      Array.fill vals cap cap vals.(0);
      t.prios <- Array.append t.prios t.prios;
      t.seqs <- Array.append t.seqs t.seqs;
      t.vals <- vals
    end

let push t cells cell value =
  grow t value;
  let prios = t.prios and seqs = t.seqs and vals = t.vals in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let priority = cells.(cell) in
  (* The new sequence number is the largest, so only a strictly smaller
     priority moves the element above its parent. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && priority < Array.unsafe_get prios ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    Array.unsafe_set prios !i (Array.unsafe_get prios parent);
    Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
    Array.unsafe_set vals !i (Array.unsafe_get vals parent);
    i := parent
  done;
  Array.unsafe_set prios !i priority;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i value;
  seq

let min_due t ~until = t.len > 0 && Array.unsafe_get t.prios 0 <= until

let advance_to_min t cells i =
  if t.len = 0 then invalid_arg "Heap.advance_to_min: empty heap";
  let p = Array.unsafe_get t.prios 0 in
  if p > cells.(i) then cells.(i) <- p

let min_seq t =
  if t.len = 0 then invalid_arg "Heap.min_seq: empty heap";
  Array.unsafe_get t.seqs 0

(* Moves the last element into the hole left at the root. *)
let pop_exn t =
  if t.len = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let prios = t.prios and seqs = t.seqs and vals = t.vals in
  let top = Array.unsafe_get vals 0 in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    let p = Array.unsafe_get prios last
    and s = Array.unsafe_get seqs last
    and v = Array.unsafe_get vals last in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let c = if l + 1 < last && less t (l + 1) l then l + 1 else l in
        let pc = Array.unsafe_get prios c in
        if pc < p || (pc = p && Array.unsafe_get seqs c < s) then begin
          Array.unsafe_set prios !i pc;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set vals !i (Array.unsafe_get vals c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set prios !i p;
    Array.unsafe_set seqs !i s;
    Array.unsafe_set vals !i v
  end;
  top
