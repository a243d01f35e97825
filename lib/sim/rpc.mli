(** Request/response substrate on top of {!Net}.

    [Rpc] owns everything {!Net.Pending} does not: a retry {!policy}
    (bounded attempts, exponential backoff with RNG-drawn jitter so
    retry schedules stay seed-reproducible), absolute deadlines that
    bound the whole call including retries, cancellation tokens, and a
    per-destination in-flight cap that queues excess calls (FIFO
    backpressure).

    The module is transport-agnostic: the caller supplies a [send]
    closure that ships the request id over whatever wire it likes, and
    resolves the call when a response carrying that id comes back.
    Request ids are allocated sequentially from 0, are stable across
    retries of the same call, and are never reused.

    State machine of a call:

    {v
      Queued --(slot frees)--> Flying --resolve--> Done
        |                        |  ^
        |                 timeout|  |backoff timer
        |                        v  |
        |                      Backoff --(attempts/deadline
        |                                 exhausted)--> GiveUp
        +--(deadline while queued)--> GiveUp
        any live state --cancel--> Done (silently)
    v}

    Determinism: with [attempts = 1] (the default policy) no random
    jitter is ever drawn, so installing [Rpc] in place of
    {!Net.Pending} leaves the master RNG stream untouched. Jitter is
    drawn from the caller-supplied [rng] only when a retry actually
    fires. *)

type 'm t

type policy = {
  timeout : float;  (** per-attempt timeout, seconds *)
  attempts : int;  (** total attempts, >= 1 *)
  backoff : float;  (** base delay before attempt 2 *)
  backoff_mult : float;  (** exponential growth factor *)
  backoff_max : float;  (** cap on the nominal backoff *)
  jitter : float;  (** extra delay drawn in [0, jitter * nominal) *)
}

val policy :
  ?attempts:int ->
  ?backoff:float ->
  ?backoff_mult:float ->
  ?backoff_max:float ->
  ?jitter:float ->
  timeout:float ->
  unit ->
  policy
(** Defaults: [attempts = 1], [backoff = 0.5], [backoff_mult = 2.0],
    [backoff_max = 8.0], [jitter = 0.0]. With one attempt the policy
    degenerates to a plain timeout. *)

val backoff_nominal : policy -> attempt:int -> float
(** Nominal (pre-jitter) delay inserted after attempt [attempt >= 1]
    fails: [min backoff_max (backoff *. backoff_mult ^ (attempt - 1))].
    Deterministic; exposed so properties about the schedule can be
    stated without running an engine. *)

type token
(** Handle for cancelling a call or an {!after} timer. *)

val create : Engine.t -> rng:Rng.t -> ?in_flight_cap:int -> unit -> 'm t
(** [rng] is used (by reference, never split) only to draw retry
    jitter. [in_flight_cap] bounds concurrently flying calls per
    destination; [0] (the default) means unbounded. *)

val call :
  'm t ->
  src:int ->
  dst:int ->
  ?deadline:float ->
  policy:policy ->
  send:(int -> unit) ->
  on_give_up:(unit -> unit) ->
  ('m -> unit) ->
  token
(** Start a call. [send rid] is invoked once per attempt (the attempt
    timeout is scheduled just before, so the timeout's trace event
    precedes the send's). [deadline] is an absolute engine time that
    truncates attempt timeouts and suppresses retries past it; a call
    still queued at its deadline gives up without ever sending.
    Exactly one of the continuation (on {!resolve}) or [on_give_up]
    fires, unless the call is cancelled first (then neither does). *)

val rid : token -> int
(** The request id of a call token. Raises [Invalid_argument] on a
    timer token from {!after}. *)

val resolve : 'm t -> int -> 'm -> bool
(** Hand a response to the call with this request id. Returns [false]
    (and emits [Rpc_late]) if the call already gave up, resolved or was
    cancelled. A response arriving during backoff resolves the call and
    cancels the pending retry. *)

val caller : 'm t -> int -> int option
(** [caller t rid] is the [src] of the live call with this id, if any.
    Lets a demultiplexing handler decide whether an incoming response
    belongs to a call it originated. *)

val cancel : 'm t -> token -> unit
(** Drop a call or timer; neither continuation nor give-up callback
    will fire afterwards. Idempotent. *)

val after : 'm t -> delay:float -> (unit -> unit) -> token
(** Cancellable one-shot timer on the underlying engine. This is the
    only timer primitive protocol code needs besides [call] itself. *)

val in_flight : 'm t -> dst:int -> int
(** Calls currently holding an in-flight slot for [dst] (flying or in
    backoff between attempts). *)

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
(** Total live calls (queued, flying or in backoff). *)

val queued_ever : 'm t -> int
(** Cumulative count of calls that were ever deferred by the in-flight
    cap (one per [Rpc_queued] trace event). The load harness reports
    this as its backpressure figure; always 0 with an unbounded cap. *)
