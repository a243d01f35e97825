(** The harness every gated regime family runs under: [trace] (the
    checked end-to-end scenario), [chaos], [attack], [load] and [scale].

    {!run} owns the parts those families share. It creates and installs
    a trace sink for the duration of the run and uninstalls it even on an
    exception. {!attach} creates the online invariant checker, attaches
    it, and counts [Lookup_done] events and the converged ones. At the
    end {!run} applies the end-of-run checks the family asked for and
    {!Octopus.Invariant.finish}. A family supplies only its scenario,
    its own hooks and counters, and a {!report}: its floor and summary
    lines. [bin/main.exe] prints every report through one runner. *)

type checks = {
  capacity : int;  (** trace ring capacity, in events *)
  grace : float option;
      (** checker grace after a revocation; [None] keeps
          {!Octopus.Invariant.create}'s default *)
  convergence : bool;  (** {!Octopus.Invariant.check_convergence} at the end *)
  eclipse : bool;  (** [check_eclipse ~allowed:0] at the end *)
}

val checks : checks
(** Capacity [2^18], default grace, convergence checked, no eclipse
    watch. *)

type t
(** A harness during its run. *)

val trace : t -> Octo_sim.Trace.t

val attach : t -> Octopus.World.t -> unit
(** Create the checker for [w], attach it to the trace, and start the
    lookup counters. Call once, before maintenance starts so the checker
    observes its scheduling. *)

val on_init : t -> Scenario.spec -> Scenario.spec
(** [Scenario.on_init spec (attach t)]. *)

val checker : t -> Octopus.Invariant.t
(** The attached checker, for mid-run probes such as the eclipse watch.
    Raises [Invalid_argument] before {!attach}. *)

type outcome = {
  trace : Octo_sim.Trace.t;
  checker : Octopus.Invariant.t;  (** finished *)
  lookups_done : int;  (** [Lookup_done] events *)
  lookups_converged : int;  (** ... that named an owner *)
}

val run : checks -> (t -> 'a) -> 'a * outcome
(** [run checks body] installs a fresh sink, runs [body] (which must
    {!attach}), then runs the end-of-run checks and uninstalls the
    sink. *)

type report = {
  outcome : outcome;
  ok : int;  (** lookups that met the family's success criterion *)
  total : int;  (** lookups the floor is measured over *)
  floor : float option;  (** success-rate floor; [None] = not gated *)
  holds : bool;  (** the family's extra pass conditions *)
  lines : string list;  (** family summary lines, printed after the result line *)
  json : string option;  (** machine-readable summary, if the family has one *)
}

val report : outcome -> report
(** The report of a family with no floor and nothing to add: the
    harness's own lookup counts, no summary lines, no JSON. *)

val success_rate : report -> float
(** [ok / total], [0.0] when [total = 0]. *)

val passed : report -> bool
(** [holds], and with a floor: [total > 0] and {!success_rate} at or
    above it. Invariant violations are gated separately, on the
    checker. *)

val result_line : report -> string
(** ["lookups OK/TOTAL ok (RATE%, floor FLOOR%)"]. *)
