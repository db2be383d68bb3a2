(** The simulated network: switches, hosts, full-duplex links, and the
    per-port transmitters that serialise frames onto links.

    Timing model per traversed link: a frame waits in the sender's
    egress queue (switch FIFO or host NIC queue), occupies the link for
    [wire_size * 8 / rate], then arrives after the propagation delay.
    Switch egress queues are byte-bounded with tail drop; host NIC
    queues are unbounded (hosts self-pace via {!Tpp_endhost} rate
    limiters).

    Each hop is two typed {!Engine} events — the end of the sender's
    transmission and the frame's arrival at the peer — both carrying
    the net's one handlers record through the engine's slab and timing
    wheel, so forwarding a frame allocates nothing in the event core.

    Link and port state is stored in structure-of-arrays form (flat int
    arrays over global port slots, DESIGN §15) so a fabric's footprint
    is dominated by its switches, not by per-link records: an idle host
    costs ~178 bytes, which is what lets a 100k-host leaf-spine fit
    comfortably in memory. *)

module Frame = Tpp_isa.Frame
module Switch = Tpp_asic.Switch
module Mac = Tpp_packet.Mac
module Ipv4 = Tpp_packet.Ipv4
module Time_ns = Tpp_util.Time_ns
module Ring = Tpp_util.Ring

type t

type host = {
  host_name : string;
  node_id : int;
  mac : Mac.t;
  ip : Ipv4.Addr.t;
  mutable receive : now:Time_ns.t -> Frame.t -> unit;
  mutable nic_q : Frame.t Ring.t option;
      (** NIC transmit queue, materialized on the host's first send —
          idle hosts carry [None]. Managed by {!host_send}; read it for
          inspection, don't replace it. *)
}

type wire_check = [ `Always | `Cached ]
(** How [host_send] validates frames against the byte-level wire format:
    - [`Always] (the default): serialise and re-parse every frame, and
      forward the re-parsed copy, so every simulated transmission is
      byte-faithful. Full-strength checking — what the test suite uses.
    - [`Cached]: round-trip each distinct header {e layout} (ethertype,
      TPP section geometry, IP/UDP presence, payload length) once, then
      forward structurally with no per-packet serialisation. The
      steady-state fast path for throughput runs. *)

val create :
  ?nodes:int ->
  ?ports:int ->
  ?wire_check:wire_check ->
  Engine.t ->
  t
(** [?nodes]/[?ports] are capacity hints: a builder that knows the final
    node and port counts (every topology builder does) passes them so
    the node and port arrays are allocated once at exactly that size —
    the amortised-doubling slack would otherwise cost a million-host
    fabric up to 2x its steady-state footprint. Registering past a hint
    is fine; growth just resumes doubling. *)

val engine : t -> Engine.t

val add_switch : t -> Switch.t -> int
(** Registers a switch; returns its node id. *)

val add_host : ?name:string -> ?ip:Ipv4.Addr.t -> ?mac:Mac.t -> t -> host
(** Creates a host. By default MAC/IP derive from a counter
    ([Mac.of_host_id] / [Ipv4.Addr.of_host_id]); topology builders pass
    [?ip] to give hosts hierarchical (aggregatable) addresses instead.
    [?name] defaults to [""] — a million hosts don't need a million
    strings. *)

val switch : t -> int -> Switch.t
(** The switch at a node id. Raises [Invalid_argument] for hosts. *)

val host_of : t -> int -> host

val node_count : t -> int

val hosts : t -> host list
val switches : t -> (int * Switch.t) list
(** All switches with their node ids, in insertion order. *)

val connect :
  t -> int * int -> int * int -> bps:int -> delay:Time_ns.span -> unit
(** [connect net (a, pa) (b, pb) ~bps ~delay] attaches a full-duplex
    link between port [pa] of node [a] and port [pb] of node [b]; both
    directions get rate [bps] and propagation [delay]. Sets switch port
    capacities. A port can hold one link (raises [Invalid_argument]). *)

val host_send : t -> host -> Frame.t -> unit
(** Queues a frame on the host's NIC for transmission. Takes ownership
    of the frame: a pooled frame returns to its pool once delivered or
    dropped — under [`Always], as soon as its re-parsed copy replaces
    it — so the caller must not touch it after the call. *)

val set_link_up : t -> int * int -> bool -> unit
(** Fails or restores the (full-duplex) link attached at this endpoint.
    Frames whose transmission completes while the link is down are lost
    in flight; queued frames keep draining into the void, as on a real
    dark fiber. Restoring the link kicks both transmitters. *)

val link_up : t -> int * int -> bool

val neighbors : t -> int -> (int * int * int) list
(** [(port, peer_node, peer_port)] for every connected port of a node. *)

val iter_ports :
  t -> int -> (port:int -> peer:int -> peer_port:int -> unit) -> unit
(** Allocation-free walk over a node's connected ports, in port order. *)

val iter_links :
  t ->
  (node:int -> port:int -> peer:int -> peer_port:int -> bps:int ->
   delay:Time_ns.span -> unit) ->
  unit
(** Allocation-free walk over every connected (node, port) endpoint in
    node/port order — each full-duplex link is visited once per
    direction. What the shard partitioner and {!Fault} build their
    adjacency from without materialising neighbor lists. *)

val port_index : t -> int -> int -> int
(** [port_index t node port] is the dense global slot of the port:
    stable, contiguous over all registered ports, suitable for keying
    side tables (the fault subsystem's per-wire state). Raises
    [Invalid_argument] for an unknown node or out-of-range port. *)

val port_count : t -> int
(** Total global port slots registered so far (the exclusive upper bound
    of {!port_index}). *)

val num_ports : t -> int -> int
(** Ports of one node. *)

val start_utilization_updates :
  t -> period:Time_ns.span -> until:Time_ns.t -> unit
(** Periodically recomputes every switch's utilisation registers (the
    windowed [Link:RxUtilization] values TPPs read). On a sharded net,
    only the switches this shard owns are updated. *)

val enable_trimming : t -> keep:int -> data_limit:int -> ctrl_limit:int -> unit
(** NDP fabric support: gives every switch port two strict-priority
    queues (a shallow [data_limit]-byte data queue below, control above
    with a [ctrl_limit]-byte budget) and enables payload trimming to
    [keep] bytes on data-queue overflow ({!Switch.set_trim_keep}). The
    data queue is deliberately shallow — NDP bounds latency by trimming
    early rather than buffering. Call at setup time, before any
    traffic: reconfiguring queues discards queued frames. *)

val frames_delivered : t -> int
(** Frames handed to host receive callbacks so far. *)

(** {2 Sharding hooks}

    Used by {!Tpp_parsim.Parsim} to run this net as one shard of a
    conservative parallel simulation. Every shard holds a structurally
    identical replica of the topology but executes events only for the
    nodes it owns; a frame whose link crosses into another shard leaves
    through [emit] instead of the local event heap. An ordinary
    sequential net never touches any of this. *)

val set_sharding :
  t ->
  owner:int array ->
  shard:int ->
  emit:
    (arrival:Time_ns.t -> emitted:Time_ns.t -> dst:int * int -> Frame.t ->
     unit) ->
  unit
(** Marks this net as shard [shard] of a partitioned run. [owner] maps
    node ids to shards; [emit] is called at link-transmission completion
    for frames bound for a foreign node, with the absolute [arrival]
    time (tx end + propagation delay), the emission time (the clock at
    the emitting shard — the receiver passes it back through
    {!schedule_delivery} so same-timestamp ordering matches the
    sequential run), and destination endpoint.

    [emit] {e consumes} the frame: it must copy what it needs (e.g.
    blit the wire image into a boundary chunk) and must not retain the
    frame, which is recycled into its local pool as soon as the hook
    returns. *)

val owns : t -> int -> bool
(** Whether this net instance executes events for the node: always true
    on an unsharded net. *)

val schedule_delivery :
  ?emitted:Time_ns.t ->
  t -> arrival:Time_ns.t -> dst:int * int -> Frame.t -> unit
(** Schedules a frame to arrive at endpoint [dst] at absolute time
    [arrival], exactly as if it had finished crossing the attached link:
    the receiving end of an inter-shard channel. [emitted] backdates the
    event's tie-break stamp to the frame's original emission time (from
    the [emit] hook), so arrivals in the same nanosecond order as the
    sequential run would — by emission order, not inbox drain order. *)

val link_delay : t -> int * int -> Time_ns.span
(** Propagation delay of the link attached at this endpoint (raises
    [Invalid_argument] when the port has no link). The partitioner reads
    these to compute the conservative lookahead. *)

val on_host_deliver : t -> (host -> Frame.t -> unit) -> unit
(** Tracing hook, called before each host receive callback. Hooks run in
    registration order. *)

(** {2 Fault-injection hooks}

    The seams {!Fault} installs itself through. A net without hooks
    (the default) pays a single [None] branch per touch point — no
    per-packet closure calls, allocation, or hashing. The hooks must be
    pure functions of simulated time (plus private per-wire RNG
    streams) so that faulted runs stay deterministic under sharding;
    use {!Fault} rather than installing ad-hoc hooks. *)

type fault_hooks = {
  f_transit : node:int -> port:int -> now:Time_ns.t -> Frame.t -> bool;
      (** Fate of a frame finishing serialisation onto the wire behind
          ([node], [port]) at [now]: [false] = lost in flight. *)
  f_rate : node:int -> port:int -> now:Time_ns.t -> bps:int -> int;
      (** Effective transmit rate at transmission start. *)
  f_delay :
    node:int -> port:int -> now:Time_ns.t -> delay:Time_ns.span -> Time_ns.span;
      (** Effective propagation delay at transmission end; must be
          [>= delay] (the parallel lookahead assumes it). *)
  f_ingress : node:int -> now:Time_ns.t -> bool;
      (** [false] = the node is frozen and the arriving frame vanishes. *)
}

val set_fault_hooks : t -> fault_hooks option -> unit

val fault_hooks_installed : t -> bool

val tx_time_of_bits : bps:int -> int -> Time_ns.span
(** [tx_time_of_bits ~bps bits] = ceil([bits] * 1e9 / [bps]) ns, exact
    integer arithmetic (overflow-guarded). Exposed for tests. *)
