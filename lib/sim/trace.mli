(** Structured simulation tracing.

    A zero-cost-when-disabled event stream: emission sites guard with
    {!on} (one load + branch when no sink is installed) and call {!emit}
    with primitive payloads only, so this module sits at the bottom of
    the dependency stack and both the simulator and the Octopus core can
    emit into the same stream.

    The sink is a process-global ring buffer. The simulator is
    single-threaded and deterministic, so global state is safe; code
    running several worlds concurrently should install a fresh sink per
    scenario (or none). *)

type data =
  | Sched of { at : float }  (** engine: task pushed onto the heap *)
  | Net_send of { src : int; dst : int; size : int }
  | Net_deliver of { src : int; dst : int; size : int }
  | Net_drop of { src : int; dst : int; size : int; reason : string }
      (** reason is ["dead"] or ["unregistered"] from [Net] itself, or
          the fault layer's ["partition"], ["link"] or ["outage"] *)
  | Rpc_timeout of { rid : int }
  | Rpc_resolve of { rid : int }
  | Rpc_late of { rid : int }
      (** a response for a call that already resolved or gave up; ignored *)
  | Rpc_retry of { rid : int; attempt : int; backoff : float }
      (** never emitted: [Rpc] runs one attempt per call. Kept because
          octobench's probe matches on it. *)
  | Rpc_giveup of { rid : int; attempts : int }
      (** the call failed: [attempts] is 1 after a timeout, 0 for a call
          failed while still queued *)
  | Rpc_queued of { rid : int; dst : int }
      (** held back by the per-destination in-flight cap *)
  | Msg of { kind : string; dst : int; size : int }
      (** protocol-level egress ([World.send]); [node] is the sender *)
  | Walk_step of { hop : int; index : int }
  | Walk_done of { ok : bool }
  | Walk_abandoned of { attempts : int }
      (** the walk's restart budget ran out; no relay pair was produced *)
  | Circuit_relay of { relay : int }
  | Circuit_built of { relays : int list }
  | Circuit_torn of { reason : string }
  | Path_fallback of { key : int; attempt : int }
      (** an anonymous lookup step died with its path and is being retried
          over a fresh relay pair, as a fresh RPC call *)
  | Lookup_start of { key : int; anonymous : bool }
  | Lookup_hop of { key : int; peer_addr : int; peer_id : int; hop : int }
  | Lookup_done of {
      key : int;
      owner_addr : int;  (** -1 when the lookup failed to converge *)
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
      (** verdict is ["clean"], ["retest"] or ["reported"] *)
  | Ca_report of { kind : string }
  | Ca_outcome of { convicted : int list }
  | Ca_admission of { source : int; granted : bool; cost : int }
      (** a certificate-admission request was judged by the CA's rate
          limiter; [cost] is the source's cumulative admission spend *)
  | Revoked of { addr : int; id : int }
  | Churn_leave of { addr : int }
  | Churn_join of { addr : int }
  | Fault_phase of { fault : string; on : bool }
      (** a scheduled fault window opened ([on = true]) or healed; [fault]
          is ["partition"], ["link"], ["corrupt"], ["duplicate"],
          ["reorder"] or ["outage"] *)
  | Attack_phase of { kind : string; on : bool }
      (** an adversary campaign window opened or closed ([World.set_attack]);
          [kind] is the attack kind's name, e.g. ["bias"] *)
  | Fault_corrupt of { src : int; dst : int; size : int }
      (** the payload was garbled in flight; [size] is the perturbed
          delivered size *)
  | Fault_dup of { src : int; dst : int }
  | Fault_reorder of { src : int; dst : int; extra : float }
      (** the message was held back [extra] seconds past its latency *)
  | Fault_crash of { addr : int }
  | Fault_recover of { addr : int }
  | Cache_hit of { key : int }
      (** a lookup was answered from the node-local result cache without
          touching the network (emitted by the acting node) *)

type event = { seq : int; time : float; node : int; data : data }
(** [node] is the acting node's address, or [-1] for engine/RPC
    machinery with no node context. [seq] increases by one per emitted
    event, across ring-buffer wrap-around. *)

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer retaining the last [capacity] (default 65536) events.
    [seen] keeps counting past wrap-around. *)

val install : t -> unit
(** Make [t] the process-global sink. *)

val uninstall : unit -> unit

val on : unit -> bool
(** Fast guard for emission sites: [if Trace.on () then Trace.emit ...]. *)

val emit : time:float -> node:int -> data -> unit
(** No-op when no sink is installed. *)

val seen : t -> int
(** Total events emitted into [t], including any evicted from the ring. *)

val events : t -> event list
(** Retained events, oldest first. *)

val subscribe : t -> (event -> unit) -> unit
(** [f] runs synchronously on every subsequent emission (online
    checkers). Subscribers must not themselves emit. *)

val to_json : event -> string
(** One-line JSON object: [{"seq":..,"t":..,"node":..,"ev":"..",...}]. *)

val dump_jsonl : t -> out_channel -> unit
(** Retained events as JSON Lines, oldest first. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s]: quotes, backslashes and
    control characters escaped. *)
