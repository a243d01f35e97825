module Wire = Octo_crypto.Wire

type scheme = Chord | Halo | Octopus

let log2 x = Float.log2 x

(* Expected iterative-lookup length: greedy halving plus the successor-list
   shortcut over the last hops. *)
let hops ~n =
  Float.max 1.0 ((0.5 *. log2 (float_of_int n)) -. log2 (float_of_int Config.list_size) +. 1.0)

(* The §5.1 maintenance cadences. *)
let cfg = Config.default
let signed_table = Wire.signed_routing_table ~fingers:Config.num_fingers ~succs:Config.list_size
let signed_list = Wire.signed_list ~entries:Config.list_size
let plain_table = Wire.routing_entries (Config.num_fingers + Config.list_size)
let plain_list = Wire.routing_entries Config.list_size
let query = Wire.routing_item
let onion_layers = 4 (* A, B, C, D *)

let relay_legs payload =
  (* An anonymous exchange crosses 5 legs out and 5 back; the per-node
     received share of one exchange is the full path traffic divided by
     the number of participants — equivalently, count the payload once per
     leg and attribute 1/1 to the single modelled node per activity it
     initiates (every node initiates symmetrically). *)
  let fwd = float_of_int (Wire.onion_wrapped ~layers:onion_layers query) in
  let bwd = float_of_int (payload + (onion_layers * Wire.onion_layer)) in
  (* 5 hops each way; each byte is received exactly once per hop. *)
  5.0 *. (fwd +. bwd) /. 5.0 *. 2.5
(* The 2.5 factor folds in the relayed copies a node receives when serving
   as one of the four relays for other initiators (4 relay roles + 1
   endpoint role over 2 endpoints). *)

let octopus_breakdown ~n ~lookup_interval =
  let st = float_of_int signed_table in
  let sl = float_of_int signed_list in
  let h = hops ~n in
  let stabilize =
    (* Two directions: receive the successor's signed list and serve our
       predecessor's request (we receive its small request). *)
    (2.0 *. (sl +. 10.0)) /. cfg.Config.stabilize_every
  in
  let fingers =
    (* num_fingers direct lookups of ~h signed tables; ~10% of updates
       trigger the §4.5 probe (pred list + anonymous succ-list query). *)
    let per_lookup = h *. (st +. 10.0) in
    let probes = 0.1 *. (sl +. relay_legs (int_of_float sl)) in
    float_of_int Config.num_fingers *. (per_lookup +. probes)
    /. cfg.Config.finger_update_every
  in
  let walks =
    (* Phase 1: l onion table fetches of growing depth; phase 2: request +
       bundle of l+1 signed tables back through l legs; 2 establishments. *)
    let l = float_of_int Config.walk_length in
    let phase1 = l *. relay_legs (int_of_float st) *. 0.6 in
    let bundle = (l +. 1.0) *. st *. l /. 2.0 in
    let establish = 2.0 *. relay_legs 4 *. 0.5 in
    (phase1 +. bundle +. establish) /. cfg.Config.random_walk_every
  in
  let checks = 2.0 *. relay_legs (int_of_float sl) /. cfg.Config.security_check_every in
  let lookups =
    (h +. float_of_int Config.num_dummies)
    *. relay_legs (int_of_float st) /. lookup_interval
  in
  [
    ("stabilization", stabilize);
    ("finger maintenance", fingers);
    ("random walks", walks);
    ("security checks", checks);
    ("lookups", lookups);
  ]

let chord_breakdown ~n ~lookup_interval =
  let pt = float_of_int plain_table in
  let pl = float_of_int plain_list in
  let h = hops ~n in
  [
    ("stabilization", (pl +. 10.0) /. cfg.Config.stabilize_every);
    ( "finger maintenance",
      (* One finger refreshed per period (classic fix_fingers). *)
      h *. pt /. cfg.Config.finger_update_every );
    ("lookups", h *. pt /. lookup_interval);
  ]

let halo_breakdown ~n ~lookup_interval =
  let base = chord_breakdown ~n ~lookup_interval in
  let pt = float_of_int plain_table in
  let h = hops ~n in
  List.map
    (fun (name, v) ->
      if name = "lookups" then
        (* 8 knuckles x 4 redundant searches, plus the knuckle table
           fetches. *)
        (name, ((32.0 *. h *. pt) +. (8.0 *. pt)) /. lookup_interval)
      else (name, v))
    base

let breakdown ~n ~lookup_interval scheme =
  match scheme with
  | Chord -> chord_breakdown ~n ~lookup_interval
  | Halo -> halo_breakdown ~n ~lookup_interval
  | Octopus -> octopus_breakdown ~n ~lookup_interval

let kbps ~n ~lookup_interval scheme =
  let parts = breakdown ~n ~lookup_interval scheme in
  List.fold_left (fun acc (_, v) -> acc +. v) 0.0 parts *. 8.0 /. 1000.0
