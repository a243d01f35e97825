(** Periodic protocol machinery: stabilization with signed lists and proof
    queues, secure finger updates, relay-pool refresh via random walks,
    the secret security checks, the measured lookup workload, churn, and
    state garbage collection.

    Default periods are the paper's (§5.1): stabilize every 2 s, finger
    updates every 30 s, security checks every 60 s, a random walk every
    15 s, one lookup per minute. *)

type opts = {
  enable_lookups : bool;  (** drive the measured lookup workload *)
  churn_mean : float option;  (** mean node lifetime in seconds *)
  enable_checks : bool;  (** secret neighbor + finger surveillance *)
}

val join : World.t -> World.node -> (bool -> unit) -> unit
(** Rejoin protocol for a revived node: one attempt. *)

val retry_join : World.t -> World.node -> ?tries:int -> every:float -> (unit -> unit) -> unit
(** {!join} until it succeeds: an attempt runs only while the node is
    alive and unrevoked, and a failure schedules the next attempt [every]
    seconds later only while the node is alive, up to [tries] attempts
    (unbounded when omitted). The continuation runs once, on success. *)

val churn :
  World.t -> rng:Octo_sim.Rng.t -> mean_lifetime:float -> rejoin:(World.node -> unit) ->
  Octo_sim.Churn.t
(** Exponential churn over every slot, lifetimes drawn from [rng]: a leave
    kills a live, unrevoked node; after {!Config.churn_rejoin_delay} an
    unrevoked slot is revived under a fresh identity and handed to
    [rejoin]. The handle stops it. *)

val start : ?opts:opts -> World.t -> unit
(** Schedule all periodic tasks (randomized phases) plus churn and state
    GC. Call after {!Serve.install} and {!Ca.create}. *)
