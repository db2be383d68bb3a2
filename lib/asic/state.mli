(** Mutable per-switch dataplane state: the registers, counters, queues
    and SRAM that the memory map ({!Tpp_isa.Vaddr}) exposes.

    This module holds only state; the forwarding pipeline lives in
    {!Switch} and address translation in {!Mmu}. *)

module Frame = Tpp_isa.Frame

(** One egress queue of a port: the Table 2 "Per-Queue" namespace. *)
module Subqueue : sig
  type t = {
    mutable q_bytes : int;     (** current occupancy *)
    mutable q_enqueued : int;  (** cumulative bytes accepted *)
    mutable q_dropped : int;   (** cumulative bytes tail-dropped *)
    mutable q_limit : int;
    frames : Frame.t Tpp_util.Ring.t;
        (** allocation-free FIFO (preallocated ring) *)
  }

  val packets : t -> int
end

(** One egress port: statistics registers and its egress queues.
    Higher queue index = higher scheduling priority (strict).

    The field order is a layout decision, not an accident: the seven
    registers every egress hop reads or writes ([window_rx_bytes]
    through [tx_pkts]) come first, so that with the block header they
    fill one 64-byte cache line and a cut-through hop touches no other.
    The ingress counters ([rx_bytes], [rx_pkts]) and the registers
    written only on drops, trims, utilisation ticks or configuration
    share the second line. Keep new egress-hop registers in the first
    line; code names fields, never positions. *)
module Port : sig
  type t = {
    mutable window_rx_bytes : int;
        (** bytes offered to this egress link since the last utilisation
            update (drops included — RCP's y(t) measures offered load) *)
    mutable offered_bytes : int;
        (** cumulative offered bytes, never reset; in-network RCP
            routers diff it across control periods *)
    mutable queue_bytes : int;      (** aggregate over all queues *)
    mutable ecn_threshold : int option;
        (** when set, IPv4 frames enqueued while their queue's occupancy
            >= threshold get the CE mark (fixed-function ECN, paper §4) *)
    mutable queues : Subqueue.t array;
    mutable tx_bytes : int;
    mutable tx_pkts : int;
    mutable rx_bytes : int;
    mutable rx_pkts : int;
    mutable drops : int;
    mutable trims : int;
        (** frames whose payload was cut to header-only and enqueued in
            the top-priority queue instead of tail-dropped (NDP) *)
    mutable capacity_bps : int;
    mutable util_ppm : int;         (** last window's utilisation, ppm *)
    mutable queue_limit : int;      (** per-queue tail-drop threshold *)
  }

  val total_packets : t -> int
end

type t = {
  switch_id : int;
  num_ports : int;
  queue_limit : int;
  mutable version : int;
  mutable packets_seen : int;
  mutable bytes_seen : int;
  mutable drops : int;
  mutable trims : int;
  mutable tpp_execs : int;
  mutable tpp_faults : int;
  mutable tpp_cycles : int;  (** total TCPU cycles spent (bench E7) *)
  mutable tpp_compile_hits : int;
      (** TPP executions that found the program already compiled.
          Observability only — hit/miss split varies with shard layout,
          so these two stay out of determinism fingerprints. *)
  mutable tpp_compile_misses : int;
  mutable sram : int array;
      (** [[||]] until the first SRAM write; an empty array reads as
          all-zero. Use {!sram_array} (or {!sram_set}) to materialize. *)
  mutable ports : Port.t array;
      (** [[||]] until the first per-port register access; an empty
          array means every port is still in its initial state. *)
  mutable queue_avg : Float.Array.t;
      (** per port, the EWMA of its aggregate occupancy; materialized
          with [ports] *)
  mutable capacities : int array;
      (** per-port link capacity in bps; the one per-port datum written
          during topology wiring, kept flat so [Net.connect] never
          materializes [ports] *)
}

val create : switch_id:int -> num_ports:int -> ?queue_limit:int -> unit -> t
(** [queue_limit] defaults to 150 KB per port (100 full-size frames). *)

val port : t -> int -> Port.t
(** Materializes the port array on first use.
    Raises [Invalid_argument] for an out-of-range port. *)

val ports_materialized : t -> bool
(** Whether any per-port register has been touched; fingerprinting code
    treats an unmaterialized array as [num_ports] all-zero ports. *)

val sram_array : t -> int array
(** The backing SRAM, materialized on first use (always
    [Tpp_isa.Vaddr.sram_words] long). *)

val set_capacity : t -> port:int -> bps:int -> unit
(** Records a port's link capacity without materializing [ports]. *)

val capacity : t -> port:int -> int

val port_stat : t -> port:int -> Tpp_isa.Vaddr.Port_stat.t -> int
(** Current value of one per-port statistic register. *)

val queue_stat : t -> port:int -> queue:int -> Tpp_isa.Vaddr.Queue_stat.t -> int
(** One per-queue register; [-1] when the queue doesn't exist.

    The register readers here return [-1] for "no such register" rather
    than an option, so the TCPU's per-hop reads never box: every value
    is masked to 32 bits, so the sentinel cannot collide with one. *)

val configure_queues : t -> port:int -> count:int -> unit
(** Replaces the port's queues with [count] fresh empty ones (each at
    the port's per-queue limit). Ports start with one queue. *)

val force_queue_depth : t -> port:int -> bytes:int -> unit
(** Testing/mock hook: makes queue 0 (and the port aggregate) report a
    standing occupancy without enqueueing frames. *)

val switch_stat : t -> now:int -> Tpp_isa.Vaddr.Switch_stat.t -> int

val sram_get : t -> int -> int
(** SRAM word [i]; [-1] when the index is out of range. *)

val sram_set : t -> int -> int -> bool
(** [false] when the index is out of range. Values masked to 32 bits. *)

val link_sram_index : t -> slot:int -> port:int -> int
(** SRAM word backing contextual slot [slot] of [port]:
    [slot * num_ports + port], or [-1] when out of range. *)

val update_utilization : t -> window_ns:int -> unit
(** Recomputes every port's [util_ppm] from the bytes received in the
    closing window and the port capacity, resets the window counters,
    and folds current queue occupancy into the queue-average EWMAs.
    Called periodically by the simulation driver. *)
