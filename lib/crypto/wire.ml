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

(* [string_of_int] and [Printf]'s [%d] render through C [snprintf]; every
   signed document renders dozens of ints into its digest input. Digits
   are taken from the non-positive value, so [min_int] needs no case. *)
let decimal n =
  let neg = n < 0 in
  let m = if neg then n else -n in
  let rec width m w = if m > -10 then w else width (m / 10) (w + 1) in
  let first = Bool.to_int neg in
  let len = first + width m 1 in
  let b = Bytes.create len in
  let m = ref m in
  for i = len - 1 downto first do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  if neg then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_to_string b

(* Shared context: digests are one-shot and the simulator is
   single-threaded, so no per-call ctx allocation. *)
(* octolint: allow no-shared-mutable — single-domain digest scratch;
   multicore: Domain.DLS context, digests are one-shot per call. *)
let digest_ctx = Sha256.init ()

let digest_parts parts =
  let ctx = digest_ctx in
  Sha256.reset ctx;
  List.iter
    (fun part ->
      Sha256.update_string ctx (decimal (String.length part));
      Sha256.update_string ctx ":";
      Sha256.update_string ctx part)
    parts;
  Sha256.finalize ctx
