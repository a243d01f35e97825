(** Request/response substrate on top of {!Net}: the one request table
    every protocol in the repository (Octopus and the Chord baselines)
    sends its calls through.

    [Rpc] gives each call a per-call timeout and bounds the calls flying
    to one destination with an optional in-flight cap; excess calls wait
    in a per-destination FIFO (backpressure).

    The module is transport-agnostic: the caller supplies a [send]
    closure that ships the request id over whatever wire it likes, and
    resolves the call when a response carrying that id comes back.
    Request ids are allocated sequentially from 0 and are never reused.

    State machine of a call:

    {v
      Queued --(slot frees)--> Flying --resolve--> Done
        |                        |
        |                        +--timeout--> Done (give-up)
        +--fail_queued--> Done (give-up)
    v}

    A call runs exactly one attempt. Relays drop duplicate query ids, so
    anonymous queries could never be retried at this layer; protocols
    that want another try (path fallback, walk restarts) start a fresh
    call. *)

type 'm t

type policy

val policy : timeout:float -> unit -> policy
(** A call's timeout in simulated seconds. *)

type token
(** Handle of a started call. *)

val create : Engine.t -> rng:Rng.t -> ?in_flight_cap:int -> unit -> 'm t
(** [rng] is ignored: [Rpc] draws no randomness. The argument stays
    because octobench passes it. [in_flight_cap] bounds concurrently
    flying calls per destination; [0] (the default) means unbounded. *)

val call :
  'm t ->
  src:int ->
  dst:int ->
  policy:policy ->
  send:(int -> unit) ->
  on_give_up:(unit -> unit) ->
  ('m -> unit) ->
  token
(** Start a call. [send rid] runs once, when the call takes a slot (the
    timeout is scheduled just before, so the timeout's trace event
    precedes the send's). Exactly one of the continuation (on
    {!resolve}) or [on_give_up] fires. *)

val rid : token -> int
(** The request id of a call. *)

val resolve : 'm t -> int -> 'm -> bool
(** Hand a response to the call with this request id. Returns [false]
    (and emits [Rpc_late]) if the call already gave up or resolved. *)

val caller : 'm t -> int -> int option
(** [caller t rid] is the [src] of the live call with this id, if any.
    Lets a demultiplexing handler decide whether an incoming response
    belongs to a call it originated. *)

val in_flight : 'm t -> dst:int -> int
(** Calls currently holding an in-flight slot for [dst]. *)

val queued : 'm t -> dst:int -> int
(** Calls waiting in [dst]'s backpressure queue. *)

val fail_queued : 'm t -> dst:int -> unit
(** Fail every call still queued behind [dst]'s in-flight cap, in FIFO
    order: each emits [Rpc_giveup] and runs its [on_give_up] callback.
    Called when [dst] is known dead, so queued calls fail fast instead
    of waiting to be launched into a void and timing out one slot at a
    time. Calls already flying are left to their own timeouts. No-op
    when the cap is unbounded (no queues exist). *)

val outstanding : 'm t -> int
(** Total live calls (queued or flying). *)

val queued_ever : 'm t -> int
(** Cumulative count of calls that were ever deferred by the in-flight
    cap (one per [Rpc_queued] trace event). The load harness reports
    this as its backpressure figure; always 0 with an unbounded cap. *)
