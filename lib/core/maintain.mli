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
(** Rejoin protocol for a revived node. *)

val start : ?opts:opts -> World.t -> unit
(** Schedule all periodic tasks (randomized phases) plus churn and state
    GC. Call after {!Serve.install} and {!Ca.create}. *)
