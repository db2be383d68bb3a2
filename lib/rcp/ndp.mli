(** NDP-style receiver-driven transport (Handley et al., SIGCOMM 2017)
    over the testbed's trim-and-priority-queue switches.

    The sender sprays [window_pkts] packets unsolicited, then sends only
    when pulled; the receiver clocks one PULL per arrival, so the flow
    runs at exactly the bottleneck rate after the first RTT. A switch
    whose data queue overflows cuts the packet to its header
    ({!Tpp_isa.Frame.trim}) and forwards it on the top-priority queue,
    so the receiver NACKs the precise lost offset within one RTT
    instead of waiting out a retransmit timer. A per-message stall
    timer re-NACKs missing offsets, which also retries lost PULLs —
    together these guarantee every message completes under any random
    drop schedule the fault layer produces.

    One endpoint per host serves both roles on a single UDP port. All
    state is host-local and all timers are guarded self-rescheduling
    events, so endpoints are shard-safe and leave nothing on the wheel
    once idle. *)

module Net = Tpp_sim.Net
module Stack = Tpp_endhost.Stack
module Ipv4 = Tpp_packet.Ipv4

val header_bytes : int
(** Bytes of NDP header at the front of every payload (28); also the
    trim residue — a DATA frame whose payload is this short was
    trimmed in flight. *)

type config = {
  window_pkts : int;      (** unsolicited spray at message start *)
  payload_bytes : int;    (** data bytes per packet, beyond the header *)
  rtx_timeout_ns : int;   (** receiver stall timer *)
  nack_burst : int;       (** missing offsets re-requested per stall *)
  pull_gap_ns : int;      (** pull pacer: min spacing between pulls
                              leaving an endpoint, across all messages.
                              Set to one full-packet serialization time
                              on the access link; 0 disables pacing *)
  data_queue_bytes : int; (** shallow per-port data queue (trim point) *)
  ctrl_queue_bytes : int; (** top-priority queue budget per switch port *)
}

val default_config : config

val enable_network : Net.t -> config -> unit
(** Provisions the fabric: two strict-priority queues per switch port
    (a shallow [data_queue_bytes] data queue, a [ctrl_queue_bytes]
    budget on the top one) and trim-to-header on data-queue overflow.
    Call once at setup, before traffic. *)

type t

val create : ?config:config -> Stack.t -> port:int -> t
(** An endpoint on [stack] transacting on UDP [port]. All NDP traffic
    (data and control, both directions) shares this port. *)

val send : t -> dst:Net.host -> bytes:int -> int
(** Starts a message transfer; returns its message id. The first
    window goes out immediately; the rest is pull-clocked by [dst]. *)

val set_on_complete :
  t -> (now:int -> src:Ipv4.Addr.t -> bytes:int -> start_ns:int -> unit) -> unit
(** Receiver-side completion hook: fires when the last data packet of a
    message lands, with the message's sender-stamped start time — FCT
    is [now - start_ns], measured where sharding can record it
    locally. *)

type stats = {
  started : int;
  completed : int;     (** sender side: ACKs received *)
  rx_completed : int;  (** receiver side: messages fully assembled *)
  data_tx : int;
  data_rx : int;
  trimmed_rx : int;    (** trimmed headers that reached this endpoint *)
  pulls_tx : int;
  pulls_rx : int;
  nacks_tx : int;
  nacks_rx : int;
  acks_tx : int;
  acks_rx : int;
}

val stats : t -> stats

val invariants_ok : t -> bool
(** True while no state-machine invariant has ever been violated:
    every data send is backed by spray credit, a pull or an urgent
    stall NACK ("credit never leaks"), pull counters arrive strictly
    increasing, and the receiver never sends more pulls than it has
    seen arrivals. *)

val violations : t -> (string * int) list
(** The individual violation counters behind {!invariants_ok}. *)

val fold_rx_credit : t -> bool
(** Receiver-side credit audit: every tracked message has sent at most
    one pull per arrival, and its assembled-packet count is within the
    message total. *)

val outstanding : t -> int
(** Sender messages not yet ACKed. *)

val port : t -> int
