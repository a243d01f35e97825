(** Assembly of a plain Chord network over the event simulator.

    Creates the nodes, registers their message handlers, and bootstraps the
    ring from global knowledge (the standard simulation shortcut for the
    initial topology). Nodes can fail but never join: the efficiency
    comparison runs on a fixed ring. Provides the RPC plumbing used by
    {!Lookup}, {!Stabilize}, and the Halo baseline. *)

val num_fingers : int
(** 12, the paper's setting *)

type node = {
  peer : Peer.t;
  rt : Rtable.t;
  mutable alive : bool;
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

val snapshot : t -> int -> Proto.table
(** The routing-table snapshot node [addr] would serve right now. *)

val kill : t -> int -> unit
(** Take a node offline for good (a failure). *)

val find_owner : t -> key:int -> Peer.t option
(** Ground truth: the alive node owning [key] (for test oracles). *)

val rpc :
  t ->
  src:int ->
  dst:int ->
  make:(int -> Proto.msg) ->
  on_timeout:(unit -> unit) ->
  (Proto.msg -> unit) ->
  unit
(** One {!Octo_sim.Rpc.call}: send a request built by [make rid] and
    route the matching response (by request id) to the continuation;
    [on_timeout] runs instead if none arrives within 1.5 s. *)
