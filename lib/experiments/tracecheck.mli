(** A small end-to-end scenario run with tracing on and the online
    invariant checker attached — the pre-merge correctness gate shared by
    [bin/main.exe trace], [dune build @check] and the test suite. *)

val run :
  ?n:int -> ?duration:float -> ?seed:int -> ?revoke_one:bool -> unit -> Regime.outcome
(** Honest network of [n] (default 80) nodes with full maintenance
    (stabilization, walks, periodic anonymous lookups, surveillance) for
    [duration] (default 120) simulated seconds, under {!Regime.run}
    without the final convergence check. [revoke_one] revokes one node
    mid-run to exercise the revoked-identity invariant. *)

val report : Regime.outcome -> Regime.report
(** No floor; one summary line with the captured and retained event
    counts. *)
