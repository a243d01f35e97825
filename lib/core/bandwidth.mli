(** Analytic per-node bandwidth model (Table 3).

    The paper reports steady-state bandwidth at N = 1 000 000 with the §5.1
    maintenance configuration and a given lookup interval, using the
    footnote-4 byte sizes. This model counts, for one node, the payload
    bytes *received* per second in each protocol activity (requests it
    serves are the mirror image of requests it sends, so receive-side
    accounting captures a node's share of every exchange):

    - stabilization: two signed-list exchanges every [stabilize_every];
    - finger maintenance: [num_fingers] direct secure lookups per
      [finger_update_every], each fetching ~log2 N signed tables, plus the
      §4.5 consistency probes on changed results;
    - random walks: one two-phase walk per [random_walk_every] (onion
      query/reply per phase-1 hop, the phase-2 bundle, two session
      establishments);
    - security checks: two anonymous list queries per
      [security_check_every], each over 4 relay legs;
    - lookups: (hops + dummies) anonymous table queries per
      [lookup_interval].

    Chord and Halo are modelled with the same accounting (unsigned tables,
    successor-list stabilization, one-finger refresh; Halo adds 8x4
    redundant knuckle searches per lookup). Absolute numbers depend on
    these modelling choices; the comparison shape (Chord < Halo < Octopus,
    all a few kbps at most) is the reproduced claim. *)

type scheme = Chord | Halo | Octopus

val breakdown : n:int -> lookup_interval:float -> scheme -> (string * float) list
(** Per-activity received bytes/s. *)

val kbps : n:int -> lookup_interval:float -> scheme -> float
(** Total, in kilobits per second. *)
