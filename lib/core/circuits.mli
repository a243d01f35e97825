(** Anonymous-communication circuits over Octopus — the paper's motivating
    application (§2): each node can build a Tor-style multi-relay circuit,
    selecting every relay with an anonymous and secure lookup of a random
    key. Because Octopus leaks essentially nothing about lookup targets,
    an adversary cannot predict the next relay and pre-exhaust it (the
    relay-exhaustion attack that breaks Torsk, §4.7).

    The circuit itself reuses the onion machinery: the initiator holds a
    session key per relay, payloads travel as layered Fwd envelopes, and
    the exit echoes application traffic back. *)

type t = {
  relays : Types.Peer.t list;  (** in path order *)
  sessions : World.relay list;  (** matching session keys *)
  built_at : float;
}

val build : World.t -> World.node -> ?hops:int -> (t option -> unit) -> unit
(** Select [hops] (default 3) distinct relays by anonymous lookups of
    random keys and establish a session with each (key establishment is
    delivered over anonymous paths, so the relays do not learn the circuit
    owner). *)

val send : World.t -> World.node -> t -> payload:bytes -> (bytes option -> unit) -> unit
(** Push a payload through the circuit (onion-wrapped over the relays'
    session keys); the exit relay echoes it back, confirming end-to-end
    transport. [None] on timeout or integrity failure. *)
