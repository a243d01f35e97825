(** Thin facade over the layered node runtime.

    The former [World] god-object is split in two: {!Node_state} holds
    everything one node owns (identity, routing table, relay pool,
    receipts, storage), {!Deployment} holds population-level machinery
    (network, RPC substrate, CA authority, result cache, metrics). This module re-exports both — including the record field
    names — so protocol code and tests keep addressing a single
    [World]. New code should depend on the specific layer it needs. *)

module Node_state = Node_state
module Deployment = Deployment

include module type of struct
  include Deployment
end
