type data =
  | Sched of { at : float }
  | Net_send of { src : int; dst : int; size : int }
  | Net_deliver of { src : int; dst : int; size : int }
  | Net_drop of { src : int; dst : int; size : int; reason : string }
  | Rpc_timeout of { rid : int }
  | Rpc_resolve of { rid : int }
  | Rpc_late of { rid : int }
  | Rpc_retry of { rid : int; attempt : int; backoff : float }
  | Rpc_giveup of { rid : int; attempts : int }
  | Rpc_queued of { rid : int; dst : int }
  | Msg of { kind : string; dst : int; size : int }
  | Walk_step of { hop : int; index : int }
  | Walk_done of { ok : bool }
  | Walk_abandoned of { attempts : int }
  | Circuit_relay of { relay : int }
  | Circuit_built of { relays : int list }
  | Circuit_torn of { reason : string }
  | Path_fallback of { key : int; attempt : int }
  | Lookup_start of { key : int; anonymous : bool }
  | Lookup_hop of { key : int; peer_addr : int; peer_id : int; hop : int }
  | Lookup_done of {
      key : int;
      owner_addr : int;
      owner_id : int;
      hops : int;
      anonymous : bool;
    }
  | Query_sent of {
      cid : int;
      target_addr : int;
      target_id : int;
      relays : int list;
      dummy : bool;
    }
  | Surveillance of { target : int; verdict : string }
  | Ca_report of { kind : string }
  | Ca_outcome of { convicted : int list }
  | Ca_admission of { source : int; granted : bool; cost : int }
  | Revoked of { addr : int; id : int }
  | Churn_leave of { addr : int }
  | Churn_join of { addr : int }
  | Fault_phase of { fault : string; on : bool }
  | Attack_phase of { kind : string; on : bool }
  | Fault_corrupt of { src : int; dst : int; size : int }
  | Fault_dup of { src : int; dst : int }
  | Fault_reorder of { src : int; dst : int; extra : float }
  | Fault_crash of { addr : int }
  | Fault_recover of { addr : int }
  | Cache_hit of { key : int }

type event = { seq : int; time : float; node : int; data : data }

type t = {
  capacity : int;
  ring : event option array;
  mutable next_seq : int;
  mutable subscribers : (event -> unit) list;
}

(* A single global sink: the simulator is single-threaded and
   deterministic, so the cost of tracing when disabled must be exactly one
   load and branch at each emission site — no sink threading through every
   constructor in the stack. *)
(* octolint: allow no-shared-mutable — the one deliberate global in sim;
   multicore: per-domain sinks (Domain.DLS) merged by sequence number at
   collection, per the ROADMAP plan "Own every piece of state, then fan
   out on Domain". *)
let current : t option ref = ref None

let create ?(capacity = 65_536) () =
  { capacity; ring = Array.make capacity None; next_seq = 0; subscribers = [] }

let install t = current := Some t
let uninstall () = current := None
let on () = !current <> None

let subscribe t f = t.subscribers <- f :: t.subscribers

let emit ~time ~node data =
  match !current with
  | None -> ()
  | Some t ->
    let ev = { seq = t.next_seq; time; node; data } in
    t.next_seq <- t.next_seq + 1;
    t.ring.(ev.seq mod t.capacity) <- Some ev;
    List.iter (fun f -> f ev) t.subscribers

let seen t = t.next_seq

let events t =
  (* Oldest-first reconstruction of the retained window. *)
  let n = t.next_seq in
  let first = if n > t.capacity then n - t.capacity else 0 in
  let out = ref [] in
  for seq = n - 1 downto first do
    match t.ring.(seq mod t.capacity) with
    | Some ev when ev.seq = seq -> out := ev :: !out
    | Some _ | None -> ()
  done;
  !out

(* -- rendering ------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let data_fields = function
  | Sched { at } -> ("sched", [ ("at", Printf.sprintf "%.6f" at) ])
  | Net_send { src; dst; size } ->
    ("net_send", [ ("src", string_of_int src); ("dst", string_of_int dst); ("size", string_of_int size) ])
  | Net_deliver { src; dst; size } ->
    ("net_deliver", [ ("src", string_of_int src); ("dst", string_of_int dst); ("size", string_of_int size) ])
  | Net_drop { src; dst; size; reason } ->
    ( "net_drop",
      [ ("src", string_of_int src); ("dst", string_of_int dst); ("size", string_of_int size);
        ("reason", "\"" ^ json_escape reason ^ "\"") ] )
  | Rpc_timeout { rid } -> ("rpc_timeout", [ ("rid", string_of_int rid) ])
  | Rpc_resolve { rid } -> ("rpc_resolve", [ ("rid", string_of_int rid) ])
  | Rpc_late { rid } -> ("rpc_late", [ ("rid", string_of_int rid) ])
  | Rpc_retry { rid; attempt; backoff } ->
    ( "rpc_retry",
      [ ("rid", string_of_int rid); ("attempt", string_of_int attempt);
        ("backoff", Printf.sprintf "%.6f" backoff) ] )
  | Rpc_giveup { rid; attempts } ->
    ("rpc_giveup", [ ("rid", string_of_int rid); ("attempts", string_of_int attempts) ])
  | Rpc_queued { rid; dst } ->
    ("rpc_queued", [ ("rid", string_of_int rid); ("dst", string_of_int dst) ])
  | Msg { kind; dst; size } ->
    ( "msg",
      [ ("kind", "\"" ^ json_escape kind ^ "\""); ("dst", string_of_int dst);
        ("size", string_of_int size) ] )
  | Walk_step { hop; index } ->
    ("walk_step", [ ("hop", string_of_int hop); ("index", string_of_int index) ])
  | Walk_done { ok } -> ("walk_done", [ ("ok", string_of_bool ok) ])
  | Walk_abandoned { attempts } -> ("walk_abandoned", [ ("attempts", string_of_int attempts) ])
  | Circuit_relay { relay } -> ("circuit_relay", [ ("relay", string_of_int relay) ])
  | Circuit_built { relays } -> ("circuit_built", [ ("relays", ints relays) ])
  | Circuit_torn { reason } -> ("circuit_torn", [ ("reason", "\"" ^ json_escape reason ^ "\"") ])
  | Path_fallback { key; attempt } ->
    ("path_fallback", [ ("key", string_of_int key); ("attempt", string_of_int attempt) ])
  | Lookup_start { key; anonymous } ->
    ("lookup_start", [ ("key", string_of_int key); ("anonymous", string_of_bool anonymous) ])
  | Lookup_hop { key; peer_addr; peer_id; hop } ->
    ( "lookup_hop",
      [ ("key", string_of_int key); ("peer_addr", string_of_int peer_addr);
        ("peer_id", string_of_int peer_id); ("hop", string_of_int hop) ] )
  | Lookup_done { key; owner_addr; owner_id; hops; anonymous } ->
    ( "lookup_done",
      [ ("key", string_of_int key); ("owner_addr", string_of_int owner_addr);
        ("owner_id", string_of_int owner_id); ("hops", string_of_int hops);
        ("anonymous", string_of_bool anonymous) ] )
  | Query_sent { cid; target_addr; target_id; relays; dummy } ->
    ( "query_sent",
      [ ("cid", string_of_int cid); ("target_addr", string_of_int target_addr);
        ("target_id", string_of_int target_id); ("relays", ints relays);
        ("dummy", string_of_bool dummy) ] )
  | Surveillance { target; verdict } ->
    ("surveillance", [ ("target", string_of_int target); ("verdict", "\"" ^ json_escape verdict ^ "\"") ])
  | Ca_report { kind } -> ("ca_report", [ ("kind", "\"" ^ json_escape kind ^ "\"") ])
  | Ca_outcome { convicted } -> ("ca_outcome", [ ("convicted", ints convicted) ])
  | Ca_admission { source; granted; cost } ->
    ( "ca_admission",
      [ ("source", string_of_int source); ("granted", string_of_bool granted);
        ("cost", string_of_int cost) ] )
  | Revoked { addr; id } -> ("revoked", [ ("addr", string_of_int addr); ("id", string_of_int id) ])
  | Churn_leave { addr } -> ("churn_leave", [ ("addr", string_of_int addr) ])
  | Churn_join { addr } -> ("churn_join", [ ("addr", string_of_int addr) ])
  | Fault_phase { fault; on } ->
    ("fault_phase", [ ("fault", "\"" ^ json_escape fault ^ "\""); ("on", string_of_bool on) ])
  | Attack_phase { kind; on } ->
    ("attack_phase", [ ("kind", "\"" ^ json_escape kind ^ "\""); ("on", string_of_bool on) ])
  | Fault_corrupt { src; dst; size } ->
    ( "fault_corrupt",
      [ ("src", string_of_int src); ("dst", string_of_int dst); ("size", string_of_int size) ] )
  | Fault_dup { src; dst } ->
    ("fault_dup", [ ("src", string_of_int src); ("dst", string_of_int dst) ])
  | Fault_reorder { src; dst; extra } ->
    ( "fault_reorder",
      [ ("src", string_of_int src); ("dst", string_of_int dst);
        ("extra", Printf.sprintf "%.6f" extra) ] )
  | Fault_crash { addr } -> ("fault_crash", [ ("addr", string_of_int addr) ])
  | Fault_recover { addr } -> ("fault_recover", [ ("addr", string_of_int addr) ])
  | Cache_hit { key } -> ("cache_hit", [ ("key", string_of_int key) ])

let to_json ev =
  let tag, fields = data_fields ev.data in
  let extra = List.map (fun (k, v) -> Printf.sprintf ",\"%s\":%s" k v) fields in
  Printf.sprintf "{\"seq\":%d,\"t\":%.6f,\"node\":%d,\"ev\":\"%s\"%s}" ev.seq ev.time ev.node
    tag (String.concat "" extra)

let dump_jsonl t oc =
  List.iter
    (fun ev ->
      output_string oc (to_json ev);
      output_char oc '\n')
    (events t)
