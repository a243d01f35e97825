(** The certificate authority's investigation logic (§4.3–§4.6, App. II).

    The CA receives evidence reports and walks non-repudiation chains:

    - {b omission chains} (lookup bias / pollution): a node whose signed
      successor list omits a live in-span node must justify the omission
      with its stored, signed proof from its claimed successor; suspicion
      moves along signed inputs until a node cannot produce a valid
      justification — that node is revoked. Honest nodes always can;
      colluders eventually must either forge an honest signature
      (impossible) or stand exposed.
    - {b finger evidence} (manipulation): the three signed documents are
      checked geometrically; conviction additionally requires
      [interior_threshold] witnesses whose certificates predate the
      accused table by the finger-refresh period (so honest staleness
      cannot convict) and stability of a witness in P'1's retained proofs.
    - {b DoS chains}: receipts and witness statements identify the first
      relay that can neither prove onward delivery nor document the next
      hop's refusal.

    Every message the CA receives is counted into the workload series
    (Figure 7b). All convictions are by certificate revocation, which
    ejects the node and purges it from honest routing tables. *)

type t

val create : World.t -> t
(** Register the CA's handler on [World.ca_addr]. *)

val messages_received : t -> int

(** {1 Certificate admission (Sybil flooding defense)}

    Joining the overlay requires a CA-issued certificate, which makes the
    CA the natural Sybil choke point: it rate-limits certificate grants
    per source with a token bucket ([ca_admission_burst] tokens, refilled
    at [ca_admission_rate]/s) and accounts every request — granted or
    refused — as one unit of admission cost, the currency of the Sybil
    cost curve in EXPERIMENTS.md. With [ca_assign_ids] set it additionally
    ignores the requested identifier and assigns a uniform random one, so
    crafted surround-the-victim placements degrade to uniform sampling.
    Revoked sources are refused outright: conviction is an admission ban.

    The admission path is exercised only by attack scenarios; ordinary
    runs never call it, so its state costs nothing and traces stay
    byte-identical to defenseless builds. *)

type admission =
  | Admitted of { id : int }  (** granted; join via {!World.revive_as} *)
  | Refused_rate_limited
  | Refused_revoked
  | Refused_id_taken  (** requested identifier already registered *)

val request_admission : t -> source:int -> requested_id:int -> admission
(** Judge one certificate request from node address [source] asking for
    identifier [requested_id]. With [ca_admission] off the bucket is
    bypassed (but revoked sources are still refused and identifiers still
    deduplicated). Refusals draw no randomness. *)

val admitted : t -> int
(** Certificates granted through {!request_admission}. *)

val refused : t -> int
(** Admission requests refused (any reason). *)

val admission_cost : t -> int -> int
(** Cumulative admission spend of one source: one unit per request made,
    granted or not. *)

type bucket
(** One source's admission limiter state. *)

val bucket : burst:int -> now:float -> bucket
(** A full bucket of [burst] tokens, last refilled at [now]. *)

val take_token : bucket -> rate:float -> burst:int -> now:float -> bool
(** The limiter step {!request_admission} runs: refill at [rate] tokens
    per second up to [burst], then spend one token if there is one. The
    Sybil cost model drives the same step. *)

type outcome = Convicted of int list | Nothing

val investigate_omission :
  World.t ->
  missing:Types.Peer.t ->
  owner:Types.Peer.t ->
  peers:Types.Peer.t list ->
  time:float ->
  depth:int ->
  (outcome -> unit) ->
  unit
(** Exposed for tests: run the justification chain for a claimed list. *)
