(** Deterministic, schedulable fault injection, layered under {!Net}.

    A [plan] is a declarative list of fault windows — partitions with heal
    times, probabilistic message corruption, duplication and bounded
    reordering, crash/recover bursts, and regional outages correlated with
    the latency coordinates. {!install} compiles the plan once
    (memberships resolved against the latency space, window boundaries
    scheduled as engine timers) and interposes on every [send] through
    {!Net.set_fault_hook}.

    Determinism: the engine draws from a single {!Rng.split} of the engine
    master stream taken at install time, and every probabilistic decision
    is made in message-send order, so same-seed runs produce byte-identical
    traces. When no plan is installed nothing here runs at all — {!Net}'s
    fast path is untouched.

    Crash/recover and payload corruption are delegated to the protocol
    layer via callbacks: this module knows addresses and payload values
    only abstractly ([Octopus.Chaos] supplies the concrete kill/revive and
    document-garbling logic). *)

(** A set of node slots: an inclusive address range. *)
type group = Range of { lo : int; hi : int }

type spec =
  | Partition of { groups : group list; from_ : float; heal_at : float }
      (** named groups lose contact with each other and with the rest of
          the network during [[from_, heal_at)]; traffic within a group
          (and within the unnamed remainder) still flows *)
  | Corrupt of { prob : float; from_ : float; until : float }
      (** each message is garbled (via the installed corrupter) with
          probability [prob] *)
  | Duplicate of { prob : float; spread : float; from_ : float; until : float }
      (** each message is delivered twice with probability [prob]; the
          copy lands up to [spread] seconds later *)
  | Reorder of { prob : float; max_extra : float; from_ : float; until : float }
      (** each message is held back a uniform extra delay in
          [[0, max_extra)] with probability [prob] *)
  | Crash_burst of { at : float; victims : group; count : int; recover_after : float }
      (** at time [at], [count] members of [victims] (sampled uniformly)
          crash at once; they recover [recover_after] seconds later *)
  | Regional_outage of { epicenter : int; radius : float; from_ : float; until : float }
      (** every slot within [radius] (one-way seconds) of [epicenter] can
          neither send nor receive during the window *)

type plan = spec list

type 'm t

val install :
  Engine.t ->
  Latency.t ->
  'm Net.t ->
  ?corrupt:(Rng.t -> 'm -> 'm * int) ->
  ?on_crash:(int -> unit) ->
  ?on_recover:(int -> unit) ->
  plan ->
  'm t
(** Compile [plan], register the {!Net} hook and schedule every window
    boundary ([Trace.Fault_phase]) and crash burst ([Trace.Fault_crash] /
    [Trace.Fault_recover]). [corrupt rng m] returns the garbled payload
    and its (perturbed) wire size; without it, [Corrupt] windows pass
    messages through. *)

(** {2 Counters} (for chaos reports and tests) *)

val drops : 'm t -> int
val corruptions : 'm t -> int
val duplicates : 'm t -> int
val reorders : 'm t -> int
val crashes : 'm t -> int
