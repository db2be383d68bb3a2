(** The unified switch virtual address space (paper §3.2.1, Table 2).

    Every dataplane statistic a TPP can touch lives at a 12-bit word
    address. The map groups statistics into the paper's namespaces:

    {v
    0x000-0x0FF  per-switch registers (SwitchID, version, counters)
    0x100-0x13F  contextual per-link stats of THIS packet's output port
    0x140-0x17F  contextual per-queue stats of THIS packet's queue
    0x180-0x1FF  contextual per-link SRAM window (slot s of out port)
    0x200-0x7FF  absolute per-port stat arrays (0x200 + 16*port + stat)
    0x800-0x87F  per-packet metadata (input port, matched entry, ...)
    0x880-0xFFF  switch SRAM words, partitioned by the control plane
    v}

    "Contextual" addresses resolve against the output port — and, for
    the [Queue:*] namespace, the egress queue — the forwarding pipeline
    chose for the packet, which is how the paper's
    [\[Queue:QueueSize\]] reads the queue the packet is about to join.
    On single-queue ports the port aggregate and queue 0 coincide. *)

val limit : int
(** Exclusive upper bound of the address space (4096). *)

(** Per-port statistic slots, shared by the contextual window at [0x100]
    and the absolute arrays at [0x200]. *)
module Port_stat : sig
  type t =
    | Queue_bytes
    | Queue_pkts
    | Rx_bytes
    | Tx_bytes
    | Rx_util        (** utilisation of link capacity, in parts-per-million *)
    | Drops
    | Queue_bytes_avg
    | Capacity_kbps
    | Tx_pkts
    | Rx_pkts
    | Queue_limit

  val index : t -> int
  val of_index : int -> t option
  val name : t -> string
end

(** Per-switch register slots at [0x000]. *)
module Switch_stat : sig
  type t =
    | Switch_id
    | Version        (** forwarding-table version, bumped by the control plane *)
    | Packets_seen
    | Bytes_seen
    | Drops
    | Num_ports
    | Tpp_execs
    | Tpp_faults
    | Clock_ns       (** low 32 bits of the switch clock *)
    | Tpp_compile_hits
        (** TPP executions served by an already-compiled program.
            Observability only: the split between hits and misses depends
            on shard layout, so it is excluded from determinism checks. *)
    | Tpp_compile_misses
        (** TPP executions that had to compile (or re-link) the program. *)

  val index : t -> int
  val of_index : int -> t option
  val name : t -> string
end

(** Per-queue statistic slots (Table 2 "Per-Queue": bytes enqueued,
    bytes dropped, plus occupancy), contextual at [0x140]. *)
module Queue_stat : sig
  type t =
    | Q_bytes          (** current occupancy, bytes *)
    | Q_pkts
    | Q_enqueued       (** cumulative bytes accepted *)
    | Q_dropped        (** cumulative bytes tail-dropped *)
    | Q_limit
    | Q_id             (** which queue of the port this packet uses *)

  val index : t -> int
  val of_index : int -> t option
  val name : t -> string
end

(** Per-packet metadata slots at [0x800]. *)
module Pkt_meta : sig
  type t =
    | Input_port
    | Output_port
    | Matched_entry
    | Matched_version
    | Hop_count
    | Table_hit      (** 0 = miss/flood, 1 = L2, 2 = L3, 3 = TCAM *)
    | Arrival_ns

  val index : t -> int
  val of_index : int -> t option
  val name : t -> string
end

(** A decoded address. *)
type region =
  | Switch of Switch_stat.t
  | Link of Port_stat.t                 (** contextual: this packet's out port *)
  | Queue of Queue_stat.t               (** contextual: this packet's queue *)
  | Link_sram of int                    (** contextual SRAM slot *)
  | Port of int * Port_stat.t           (** absolute port stat *)
  | Meta of Pkt_meta.t
  | Sram of int                         (** absolute SRAM word index *)

val classify : int -> (region, string) result
(** Decodes a word address; [Error] for holes in the map. *)

val encode : region -> int
(** Inverse of {!classify}. *)

val sram_words : int
(** Number of absolute SRAM words (address range [0x880-0xFFF]). *)

val link_sram_slots : int
(** Number of contextual per-link SRAM slots (128). *)

val writable : region -> bool
(** TPPs may write only SRAM (absolute or contextual). Statistics and
    packet metadata are read-only, and forwarding tables are not mapped
    at all — the isolation argument of paper §4. *)

val of_name : ?defines:(string * int) list -> string -> (int, string) result
(** Resolves an assembler mnemonic like ["Queue:QueueSize"],
    ["Switch:SwitchID"], ["PacketMetadata:InputPort"], ["Port:3:TxBytes"],
    ["Sram:17"] or ["LinkSram:0"] to its address. [defines] adds
    task-specific names (e.g. ["Link:RCP-RateRegister"] for a contextual
    SRAM slot the control plane allocated to RCP). *)

val to_name : int -> string
(** Symbolic rendering for the disassembler; falls back to hex. *)

val all_named : unit -> (string * int) list
(** Every built-in mnemonic and its address — the Table 2 dump. *)
