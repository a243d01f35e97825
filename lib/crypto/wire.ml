let header = 36
let routing_item = 10
let signature = 40
let timestamp = 4
let certificate = 50
let onion_layer = 16
let key = 16

let routing_entries n = n * routing_item

let signed_routing_table ~fingers ~succs =
  routing_entries (fingers + succs) + signature + timestamp + certificate

let signed_list ~entries = routing_entries entries + signature + timestamp + certificate

let onion_wrapped ~layers payload = payload + (layers * (onion_layer + 6))

(* The streaming digest writer. A digest is a sequence of parts, each
   hashed as [len ":" part]. The current part renders into [buf] from
   [prefix_room] on; closing it writes the decimal length and the colon
   right-aligned in front of it and hashes prefix and part with one
   update. Integers, hex and timestamps render in place, so a digest
   allocates only its 32-byte result (and [buf] when a part outgrows it).

   One digest at a time: [open_digest] raises while another is open, so
   a digest computed in the middle of another (a reply covering a table
   digest, say) cannot interleave its bytes into the open stream. *)

(* A length prefix is at most 19 digits and the colon. *)
let prefix_room = 20

type writer = {
  ctx : Sha256.ctx;
  mutable buf : Bytes.t;
  mutable pos : int;  (** end of the current part *)
  mutable busy : bool;
}

(* octolint: allow no-shared-mutable — single-domain digest writer, one
   digest open at a time (busy flag); multicore: Domain.DLS writer,
   digests never cross a call. *)
let shared = { ctx = Sha256.init (); buf = Bytes.create 256; pos = prefix_room; busy = false }

let take () =
  let w = shared in
  if w.busy then invalid_arg "Wire.open_digest: another digest is open";
  w.busy <- true;
  w.pos <- prefix_room;
  w

let open_digest () =
  let w = take () in
  Sha256.reset w.ctx;
  w

(* Between parts the writer's whole state is its SHA-256 context. *)
type mark = Sha256.mark

let mark w =
  if w.pos <> prefix_room then invalid_arg "Wire.mark: the last part was not closed";
  Sha256.mark w.ctx

let open_at m =
  let w = take () in
  Sha256.resume w.ctx m;
  w

let reserve w n =
  let need = w.pos + n in
  if need > Bytes.length w.buf then begin
    let nb = Bytes.create (Int.max need (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 nb 0 w.pos;
    w.buf <- nb
  end

let add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.pos c;
  w.pos <- w.pos + 1

let add_string w s =
  let n = String.length s in
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

(* [string_of_int] and [Printf]'s [%d] render through C [snprintf].
   Digits are taken from the non-positive value, so [min_int] needs no
   case. [put_digits b stop m] writes the digits of [-m] to end just
   before [stop] and returns where they start. *)
let rec digit_count m k = if m > -10 then k else digit_count (m / 10) (k + 1)

let rec put_digits b stop m =
  let stop = stop - 1 in
  Bytes.unsafe_set b stop (Char.unsafe_chr (48 - (m mod 10)));
  if m > -10 then stop else put_digits b stop (m / 10)

let add_int w n =
  let neg = n < 0 in
  let m = if neg then n else -n in
  let len = Bool.to_int neg + digit_count m 1 in
  reserve w len;
  let start = put_digits w.buf (w.pos + len) m in
  if neg then Bytes.unsafe_set w.buf (start - 1) '-';
  w.pos <- w.pos + len

let hex_digits = "0123456789abcdef"

let add_hex w d =
  let n = Bytes.length d in
  reserve w (2 * n);
  let b = w.buf and at = w.pos in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get d i) in
    Bytes.unsafe_set b (at + (2 * i)) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set b (at + (2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  w.pos <- at + (2 * n)

(* Exactly [Printf.sprintf "%.6f" x]. glibc prints the exact binary value
   rounded to six places, half to even. A finite [x] below 2^40 in
   magnitude is [m / 2^s] with [m < 2^53] and [s >= 13]; [m * 10^6] is
   kept as [hi * 2^31 + lo] (below 2^73), shifted right by [s], and
   rounded on the exact remainder. The sign comes from the sign bit, so
   [-0.0] and negatives that round to zero print [-0.000000].
   Non-finite values and larger magnitudes take [Printf]. *)
let add_time w x =
  let bits = Int64.to_int (Int64.bits_of_float x) in
  let e = (bits lsr 52) land 0x7ff in
  if e >= 1023 + 40 then add_string w (Printf.sprintf "%.6f" x)
  else begin
    let frac = bits land 0xF_FFFF_FFFF_FFFF in
    let m = if e = 0 then frac else frac lor 0x10_0000_0000_0000 in
    let s = if e = 0 then 1074 else 1075 - e in
    let a = (m land 0x7FFF_FFFF) * 1_000_000 in
    let lo = a land 0x7FFF_FFFF in
    let hi = ((m lsr 31) * 1_000_000) + (a lsr 31) in
    (* [q] is the quotient; [c] compares the remainder with half of
       [2^s]. Past [s = 73] the whole product is below half. *)
    let q, c =
      if s <= 31 then
        ((hi lsl (31 - s)) lor (lo lsr s), Int.compare (lo land ((1 lsl s) - 1)) (1 lsl (s - 1)))
      else if s <= 73 then
        let t = s - 31 in
        let rh = hi land ((1 lsl t) - 1) and hh = 1 lsl (t - 1) in
        (hi lsr t, if rh <> hh then Int.compare rh hh else Int.compare lo 0)
      else (0, -1)
    in
    let n = if c > 0 || (c = 0 && q land 1 = 1) then q + 1 else q in
    let neg = Float.sign_bit x in
    let units = n / 1_000_000 in
    let len = Bool.to_int neg + digit_count (-units) 1 + 7 in
    reserve w len;
    let b = w.buf and stop = w.pos + len in
    let f = ref (n mod 1_000_000) in
    for i = stop - 1 downto stop - 6 do
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!f mod 10)));
      f := !f / 10
    done;
    Bytes.unsafe_set b (stop - 7) '.';
    let start = put_digits b (stop - 7) (-units) in
    if neg then Bytes.unsafe_set b (start - 1) '-';
    w.pos <- stop
  end

let close_part w =
  let b = w.buf in
  Bytes.unsafe_set b (prefix_room - 1) ':';
  let start = put_digits b (prefix_room - 1) (prefix_room - w.pos) in
  Sha256.update_sub w.ctx b start (w.pos - start);
  w.pos <- prefix_room

let finish w =
  let unclosed = w.pos <> prefix_room in
  w.pos <- prefix_room;
  w.busy <- false;
  if unclosed then invalid_arg "Wire.finish: the last part was not closed";
  Sha256.finalize w.ctx

let digest_parts parts =
  let w = open_digest () in
  List.iter
    (fun part ->
      add_string w part;
      close_part w)
    parts;
  finish w
