(** Declarative construction of simulation runs.

    Every experiment builds its world through this module instead of
    assembling engines, latency spaces, worlds and maintenance loops by
    hand (and instead of poking [World] record fields). A {!spec} is an
    immutable description of a run; {!build} performs the canonical
    construction sequence — engine, latency space, world, handler
    install, optional stragglers, CA, attack, maintenance — in the one
    deterministic order that keeps traces reproducible across the
    codebase; {!run} additionally drives the engine to the spec's
    duration.

    Hooks:
    - {!on_init} runs after the CA and attack are installed but before
      maintenance starts — use it to attach trace subscribers or
      invariant checkers that must observe maintenance scheduling.
    - {!on_ready} runs after maintenance starts — use it for setup that
      must override the bootstrap (e.g. dropping the provisioned relay
      pools).
    - {!at} schedules a hook at an absolute simulation time. *)

type spec

val make :
  ?seed:int ->
  ?cfg:Octopus.Config.t ->
  ?fraction_malicious:float ->
  ?metrics_bucket:float ->
  ?attack:Octopus.World.attack_spec ->
  ?churn_mean:float ->
  ?lookups:bool ->
  ?checks:bool ->
  ?stragglers:bool ->
  ?reserve:int ->
  n:int ->
  duration:float ->
  unit ->
  spec
(** Defaults: seed 42, {!Octopus.Config.default}, no malicious nodes, no
    attack, no churn, lookups and security checks enabled, no
    stragglers. [stragglers] marks 5% of nodes (from an RNG independent
    of the engine stream) as slow hosts adding exponential processing
    delay, the PlanetLab realism knob used by the efficiency figures.
    [reserve] (default 0) adds that many address slots that start dead
    and outside the boot ring — identities the CA may admit mid-run via
    {!Octopus.Ca.request_admission} (the Sybil-flooding attack surface);
    the CA then listens on address [n + reserve]. *)

val on_init : spec -> (Octopus.World.t -> unit) -> spec
(** Run a hook between CA/attack installation and [Maintain.start]. *)

val on_ready : spec -> (Octopus.World.t -> unit) -> spec
(** Run a hook immediately after [Maintain.start]. *)

val at : spec -> time:float -> (Octopus.World.t -> unit) -> spec
(** Schedule a hook at absolute simulation time [time]. *)

type t
(** A built (and possibly already driven) scenario. *)

val build : spec -> t
(** Construct the world without running it; the caller drives the
    engine (used by workload-driving experiments). *)

val run : spec -> t
(** {!build}, then run the engine until the spec's duration. *)

val world : t -> Octopus.World.t
val engine : t -> Octo_sim.Engine.t

val fault : t -> Octopus.Types.msg Octo_sim.Fault.t option
(** The fault engine installed from the config's [fault_plan], if any —
    exposes the injection counters for chaos reports. *)

val ca : t -> Octopus.Ca.t
(** The certificate authority built for this world — attack scenarios
    drive its admission path ({!Octopus.Ca.request_admission}) and read
    its grant/refusal counters. *)

val add_net_stragglers : 'm Octo_sim.Net.t -> n:int -> seed:int -> unit
(** The straggler model [~stragglers:true] applies, on any network: {!build}
    calls it on the world's network, and the Chord and Halo baseline
    measurements, which do not build a [World], on theirs. *)
