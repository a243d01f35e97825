(** Discrete-event simulation engine.

    Events are thunks scheduled at absolute simulated times and fired in
    time order (FIFO among equal times). All protocol logic in this
    repository is written in continuation-passing style over this engine, so
    a whole network run is single-threaded and deterministic. *)

type t

type handle
(** A timer: an action the engine runs when the timer's latest arming
    comes due. {!schedule} returns a new, armed one; an owner that
    schedules the same action again and again makes one with {!timer}
    and re-arms it with {!arm}. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds an engine whose master {!Rng.t} is seeded with
    [seed] (default 42). *)

val rng : t -> Rng.t
(** The engine's master random stream. Subsystems should {!Rng.split} it. *)

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at time [now t +. max 0. delay]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Schedule at an absolute time (clamped to be >= [now t]). *)

val timer : (unit -> unit) -> handle
(** An unarmed timer for the action. *)

val arm : t -> handle -> delay:float -> unit
(** [arm t h ~delay] arms [h] to run at [now t +. max 0. delay], like
    {!schedule}. An arming still pending is superseded: it never runs,
    and its heap entry is skipped when its time comes. *)

val cancel : handle -> unit
(** Disarm a pending timer; cancelling a fired or unarmed timer is a
    no-op. The heap entry stays until its time, and is then skipped. *)

val every : t -> ?phase:float -> period:float -> (unit -> unit) -> unit
(** [every t ~phase ~period f] first runs [f] at [now + phase] (default: a
    full [period]), then every [period] seconds for the rest of the run.
    Each firing schedules the next one after [f] returns. *)

val run : t -> until:float -> unit
(** Process events in order until the clock would pass [until] (the clock is
    left at [until]) or no events remain. *)

val run_until_idle : t -> ?max_events:int -> unit -> unit
(** Process events until none remain or [max_events] fired; skipped
    (superseded or cancelled) entries do not count. *)

val events_processed : t -> int
(** Total number of events fired so far (for diagnostics); skipped
    entries are not counted. *)
