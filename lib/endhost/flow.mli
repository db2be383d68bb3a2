(** Application traffic generators and sinks.

    Two senders cover the paper's workloads: a constant-bit-rate flow
    whose rate a congestion controller (RCP star) adjusts at runtime, and an
    on/off burst source that creates the micro-bursts of §2.1. Packets
    carry a sequence number and send timestamp so sinks measure goodput,
    one-way latency and reordering. *)

module Net = Tpp_sim.Net

(** Receiving side: attach to a stack port, read counters afterwards. *)
module Sink : sig
  type t

  val attach : ?tap:(now:int -> unit) -> Stack.t -> port:int -> t
  (** [tap] fires after each delivered packet is accounted; transfer
      workloads use it to detect completion. *)

  val rx_pkts : t -> int
  val rx_bytes : t -> int
  (** Wire bytes of delivered frames. *)

  val rx_payload_bytes : t -> int
  (** Application payload bytes only. *)

  val holes : t -> int
  (** Sequence numbers up to the highest one seen never received so far —
      cumulative loss as the receiver can observe it. *)

  val ce_marked : t -> int
  (** Packets delivered carrying the ECN Congestion Experienced mark. *)

  val latency : t -> Tpp_util.Stats.t
  (** One-way delays, in nanoseconds. *)

  val reordered : t -> int
  (** Packets that arrived with a sequence number lower than a
      previously seen one. *)

  val report :
    Stack.t -> t -> report_to:Net.host -> port:int -> period:int ->
    (t -> int) -> (t -> int) -> Tpp_sim.Engine.Loop.t
  (** A receiver's feedback to a rate-based sender: every [period],
      starting one period from now, sends two of the sink's counters
      as u32s in an 8-byte datagram from [port] to [report_to]'s [port]
      (AIMD: {!holes} and {!rx_payload_bytes}; DCTCP: {!rx_pkts} and
      {!ce_marked}). Stopping the returned loop ends the reports. *)
end

type t

val cbr :
  src:Stack.t ->
  dst:Net.host ->
  dst_port:int ->
  payload_bytes:int ->
  rate_bps:int ->
  t
(** Paced sender: one packet every [wire_bits / rate]. *)

val bursts :
  src:Stack.t ->
  dst:Net.host ->
  dst_port:int ->
  payload_bytes:int ->
  burst_pkts:int ->
  period:int ->
  t
(** Every [period] ns, dumps [burst_pkts] packets into the NIC at once;
    the NIC drains them back-to-back at line rate. *)

val transfer :
  src:Stack.t ->
  dst:Net.host ->
  dst_port:int ->
  payload_bytes:int ->
  rate_bps:int ->
  total_bytes:int ->
  t
(** A finite transfer: paced like {!cbr} (and rate-controllable), but
    stops by itself once [total_bytes] of payload have been sent. The
    flow-completion-time workloads are built from these. *)

val is_done : t -> bool
(** Transfers only: all bytes sent. *)

val payload_sent : t -> int

val start : t -> ?at:int -> unit -> unit
(** Begins sending at absolute time [at] (default: now). *)

val stop : t -> unit

val set_rate : t -> rate_bps:int -> unit
(** CBR/transfer flows only; takes effect from the next packet. *)

val carry_tpp : t -> every:int -> Tpp_isa.Tpp.t -> unit
(** Piggybacking (paper §2.2: tasks can query the network "using the
    flow's packets"): every [every]-th data packet carries a fresh copy
    of the template TPP. Pair with {!Probe.install_echo_on_port} at the
    receiver so executed programs return to the sender. *)

val tpp_carried : t -> int
(** Data packets sent with a TPP aboard. *)

val rate_bps : t -> int
val tx_pkts : t -> int

val port : t -> int
(** The UDP destination port this flow sends to. *)

val src_port : t -> int
(** The UDP source port on outgoing packets (defaults to the
    destination port). *)

val set_src_port : t -> int -> unit
(** Rewrites the source port of subsequent packets. The 5-tuple — and
    with it every switch's ECMP hash — changes, so this is the flowlet
    steering knob: a TPP load balancer calls it only at flowlet
    boundaries to move the flow to another path without reordering. *)

val last_tx_ns : t -> int
(** Time of the most recent packet send; -1 before the first. The idle
    gap [now - last_tx_ns] defines flowlet boundaries. *)

val wire_pkt_bytes : t -> int
(** On-wire size of one of this flow's packets. *)
