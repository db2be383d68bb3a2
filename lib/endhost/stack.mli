(** A tiny UDP application stack on a simulated host.

    Demultiplexes received frames by UDP destination port so several
    applications (a flow sink, the probe echo server, an RCP*
    controller) can share one host. *)

module Net = Tpp_sim.Net
module Frame = Tpp_isa.Frame

type t

val create : Net.t -> Net.host -> t
(** Takes over the host's receive callback. One stack per host. *)

val net : t -> Net.t
val host : t -> Net.host
val now : t -> int

val at : t -> int -> (unit -> unit) -> unit
(** Schedules a callback on the host's engine at an absolute time —
    the stack-level timer facility, so applications (probe timeouts,
    controller ticks) never reach through [Net] for the engine. *)

val after : t -> int -> (unit -> unit) -> unit
(** [after t span f]: [f] runs [span] ns from now. *)

val on_udp : t -> port:int -> (now:int -> Frame.t -> unit) -> unit
(** Registers (or replaces) the handler for a UDP destination port. *)

val on_udp_add : t -> port:int -> (now:int -> Frame.t -> unit) -> unit
(** Adds a handler without displacing existing ones; every handler for
    the port sees every datagram (they filter their own traffic).
    Probe replies use this so several controllers can share a host. *)

val on_default : t -> (now:int -> Frame.t -> unit) -> unit
(** Handler for frames that are not UDP or have no registered port. *)

val send_udp :
  t ->
  dst:Net.host ->
  src_port:int ->
  dst_port:int ->
  ?dscp:int ->
  ?tpp:Tpp_isa.Tpp.t ->
  payload:bytes ->
  unit ->
  unit
(** Builds and transmits a UDP datagram to [dst]; with [tpp] the frame
    becomes a TPP frame encapsulating the datagram. [dscp] (default 0)
    marks the datagram for a switch priority queue — NDP control
    packets ride the top queue this way. *)

val udp_sent : t -> int
(** Datagrams transmitted through {!send_udp} so far. *)

val udp_received : t -> int
(** Frames delivered to this stack's dispatcher so far. Comparing with
    a peer's {!udp_sent} gives a loss count under fault injection. *)

val take_seq_block : t -> int
(** Claims this host's next probe sequence-number block index (1, 2,
    ...). Use {!Probe.Block.take}, which bounds it. *)

(** {2 Echo demux state}

    One list per host of the callbacks that want probe echoes, in
    registration order. The stack only keeps it, so every controller on
    the host shares one; {!Probe} decodes each echo once and calls the
    listeners whose filter accepts it. *)

type echo_filter =
  | Block of int  (** seqs of the probe block starting at this seq *)
  | Flow_port of { port : int; except : int }
      (** echoes from UDP source [port] (TPPs that rode a data flow)
          whose seq lies outside the block starting at [except] *)
  | Any

type echo_listener = {
  filter : echo_filter;
  on_echo : now:int -> seq:int -> Tpp_isa.Tpp.t -> unit;
}

val echo_listeners : t -> echo_listener list

val add_echo_listener : t -> echo_listener -> unit
(** Appends a listener; use {!Probe}'s registration functions. *)
