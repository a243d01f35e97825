(** Simulated message-passing network.

    Nodes are addressed by small integers ("slots"). Sending a message
    schedules its delivery after the latency-model one-way delay plus
    jitter. Dead destinations and the fault hook's drops silently discard
    messages — exactly the failure modes the protocols must tolerate.

    The payload type ['m] is chosen by the protocol layer. Byte sizes are
    carried explicitly (computed by [Octo_crypto.Wire]) so that bandwidth
    accounting reflects the paper's wire format without serializing every
    message. *)

type addr = int

type 'm envelope = private {
  mutable src : addr;
  mutable dst : addr;
  mutable size : int;  (** bytes on the wire *)
  mutable sent_at : float;
  mutable payload : 'm;
  mutable arrival : Engine.handle;
      (** the delivery timer, built once per record and re-armed for each
          message it carries; its action reads the fields above when it
          runs *)
}
(** Envelopes are pooled: after a handler (or the fault hook) returns,
    the record is recycled for a later [send]. Handlers must copy out any
    field that a delayed closure needs and must never retain the
    envelope itself. The payload value is immutable and safe to keep.
    The type is private: only [Net] writes an envelope, so a delivery
    reads the fields its [send] set. *)

type 'm t

val create : Engine.t -> Latency.t -> 'm t
(** The network draws jitter from a split of the engine's RNG. *)

val latency : 'm t -> Latency.t

val register : 'm t -> addr -> ('m envelope -> unit) -> unit
(** Install the handler for a slot and mark it alive. *)

val set_alive : 'm t -> addr -> bool -> unit
(** Kill or revive a slot; messages to dead slots are dropped. *)

val send : 'm t -> src:addr -> dst:addr -> size:int -> 'm -> unit
(** Fire-and-forget send. Loss is silent (the sender learns nothing). *)

(** {2 Fault interposition}

    A single optional hook, consulted on every send, through which a
    fault-injection layer ({!Fault}) drops or rewrites traffic; it is the
    network's only interposition point. When no hook is installed,
    [send] takes exactly the historical code path — same RNG draws, same
    trace events — so fault support is byte-trace-free and zero-cost for
    ordinary runs. *)

type 'm delivery = {
  d_extra : float;  (** delay added on top of the sampled latency *)
  d_payload : 'm;
  d_size : int;  (** received (and rx-accounted) size *)
}

type 'm fault_verdict =
  | Fault_pass  (** deliver normally *)
  | Fault_drop of string  (** drop; the string becomes the trace reason *)
  | Fault_deliver of 'm delivery list
      (** replace the normal delivery: corruption is a rewritten
          payload/size, duplication a second entry, reordering an extra
          delay. Transmit accounting keeps the original size; each entry
          is received at its own size. *)

val set_fault_hook : 'm t -> ('m envelope -> 'm fault_verdict) option -> unit

(** {2 Envelope-recycling hazard detection}

    Envelopes are pooled, so a handler that retains one past its return
    sees a later message's fields — a silent corruption. In debug-poison
    mode, released envelopes are clobbered (addresses [min_int], size
    [min_int], [sent_at] = [neg_infinity]) and withheld from the pool, so
    a retained envelope stays visibly poisoned forever. *)

val set_debug_poison : 'm t -> bool -> unit

val poisoned : 'm envelope -> bool
(** [true] iff the envelope was released under debug-poison mode — i.e.
    reading it now is a use-after-release bug. *)

val set_processing_delay : 'm t -> addr -> (Rng.t -> float) option -> unit
(** Per-node handler delay, sampled per delivered message: models slow or
    overloaded hosts (the PlanetLab stragglers that dominate tail
    latencies). [None] (the default) means immediate processing. *)

val tx_bytes : 'm t -> addr -> int
val rx_bytes : 'm t -> addr -> int
val messages_sent : 'm t -> int
val messages_delivered : 'm t -> int
