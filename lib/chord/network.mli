(** Assembly of a plain Chord network over the event simulator.

    Creates the nodes, registers their message handlers, and bootstraps the
    ring from global knowledge (the standard simulation shortcut for the
    initial topology; replacement joins go through the real join protocol
    in {!Stabilize}). Provides the RPC plumbing used by {!Lookup},
    {!Stabilize}, and the baseline lookups. *)

val num_fingers : int
(** 12, the paper's setting *)

type node = {
  mutable peer : Peer.t;
  mutable rt : Rtable.t;
  mutable alive : bool;
  mutable joined_at : float;
}

type t

val create : Octo_sim.Engine.t -> Octo_sim.Latency.t -> n:int -> t
(** Build and bootstrap a ring with [n] nodes on addresses [0 .. n-1]. *)

val engine : t -> Octo_sim.Engine.t
val net : t -> Proto.msg Octo_sim.Net.t
val space : t -> Id.space
val rng : t -> Octo_sim.Rng.t
val size : t -> int

val node : t -> int -> node
val random_alive : t -> Octo_sim.Rng.t -> int

val fresh_id : t -> Octo_sim.Rng.t -> int
(** A ring id not currently in use. *)

val snapshot : t -> int -> Proto.table
(** The routing-table snapshot node [addr] would serve right now. *)

val kill : t -> int -> unit
(** Take a node offline (churn departure). *)

val revive : t -> int -> id:int -> unit
(** Bring the slot back with a fresh identity and an empty routing table;
    the caller is responsible for running the join protocol. *)

val find_owner : t -> key:int -> Peer.t option
(** Ground truth: the alive node owning [key] (for test oracles). *)

val rpc :
  t ->
  src:int ->
  dst:int ->
  ?timeout:float ->
  make:(int -> Proto.msg) ->
  on_timeout:(unit -> unit) ->
  (Proto.msg -> unit) ->
  unit
(** One {!Octo_sim.Rpc.call}: send a request built by [make rid] and
    route the matching response (by request id) to the continuation;
    [on_timeout] runs instead if none arrives within [timeout] (default
    1.5 s). *)

val set_extension : t -> (Proto.msg Octo_sim.Net.envelope -> bool) -> unit
(** Install a handler consulted for messages the core node logic does not
    handle itself (currently [Proxy_req], used by the Torsk baseline).
    Return [true] to consume the envelope. *)
