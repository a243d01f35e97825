(** Security-evaluation experiment drivers (§5): Figures 3(a)–(c), 4, 7(b),
    9 and Table 2.

    Each run builds an Octopus world on the event simulator with the §5.1
    configuration, arms one attack, and runs the full protocol stack
    (stabilization, walks, surveillance, finger updates, lookups, CA).
    Defaults: N = 1000 with 20% colluders, 1000 s, seed 42, no churn;
    colluding predecessors cover a checked finger 50% of the time. *)

type result = {
  mal_frac : (float * float) list;  (** time, remaining malicious fraction *)
  lookups_cum : (float * float) list;
  biased_cum : (float * float) list;
  ca_msgs_cum : (float * float) list;
  false_positive : float;
  false_negative : float;
  false_alarm : float;
  reports : int;
  final_malicious_fraction : float;
}

val fig3a : ?n:int -> ?duration:float -> ?seed:int -> rate:float -> unit -> result
(** Lookup bias attack; the [mal_frac] series is Figure 3(a) and
    [lookups_cum]/[biased_cum] are Figure 3(b); [ca_msgs_cum] feeds 7(b). *)

val fig3c : ?n:int -> ?duration:float -> ?seed:int -> rate:float -> unit -> result
(** Fingertable manipulation attack. *)

val fig4 : ?n:int -> ?duration:float -> ?seed:int -> rate:float -> unit -> result
(** Fingertable pollution attack. *)

val fig9 : ?n:int -> ?duration:float -> ?seed:int -> rate:float -> unit -> result
(** Selective DoS attack (Appendix II). *)

type table2_row = {
  attack_name : string;
  lambda_minutes : float option;
  fp : float;
  fn : float;
  fa : float;
}

val table2 : ?n:int -> ?duration:float -> ?seed:int -> unit -> table2_row list
(** The six accuracy cells of Table 2: three attacks x {lambda = 60 min,
    lambda = 10 min}. *)
