(** The switch dataplane pipeline (paper Figure 3):

    {v
    ingress -> header parse -> L2/L3/TCAM lookup -> TCPU -> egress queue
    v}

    A switch is passive state plus per-packet logic; the discrete-event
    simulator drives it (delivers frames to {!handle_ingress}, drains
    queues with {!dequeue} at link rate, and calls
    {!State.update_utilization} periodically). *)

module Frame = Tpp_isa.Frame
module Mac = Tpp_packet.Mac
module Ipv4 = Tpp_packet.Ipv4

type t

type verdict =
  | Queued of int list
      (** Ports the frame (or its flood copies) was enqueued on. *)
  | Dropped of string

val create : id:int -> num_ports:int -> ?queue_limit:int -> unit -> t
(** A switch whose TCPU is {!Tcpu.run} ({!set_tcpu}). *)

val id : t -> int
val num_ports : t -> int
val state : t -> State.t
val alloc : t -> Alloc.t
(** The control-plane SRAM allocator of this switch. *)

val set_port_capacity : t -> port:int -> bps:int -> unit
val set_queue_limit : t -> port:int -> bytes:int -> unit

val configure_queues : t -> port:int -> count:int -> unit
(** Gives the egress port [count] queues (Fig. 3's "egress queues and
    scheduling"): strict priority, higher index first. Default 1. *)

val num_queues : t -> port:int -> int

val set_queue_classifier : t -> (Frame.t -> int) -> unit
(** Maps a frame to a 0..63 class (default: its DSCP); the pipeline
    scales the class to the out port's queue count. *)

(** Egress scheduling discipline. *)
type scheduler =
  | Strict          (** higher queue index always first (default) *)
  | Wrr of int array
      (** packet-based weighted round-robin; [weights.(q)] packets from
          queue [q] per cycle (0 = skip). Length must match the port's
          queue count when it dequeues. *)

val set_scheduler : t -> port:int -> scheduler -> unit

val set_ecn_threshold : t -> port:int -> int option -> unit
(** Fixed-function ECN marking for this egress queue: IPv4 frames
    enqueued while occupancy is at or above the threshold get the CE
    codepoint (the paper's §4 example of a baked-in point solution that
    TPPs generalise). [None] disables marking. *)

val set_ecmp_salt : t -> int -> unit
(** Salt XORed into the flow hash before every {!Tables.Multipath} pick.
    The default 0 keys all switches identically — textbook ECMP hash
    polarisation: once a layer has sorted flows by [hash mod n], the
    next layer's identical hash sends each group out a single uplink,
    oversubscribing it while its siblings idle. Topology builders give
    each switch a salt mixed from its node id; since replicas (the /32
    differential oracle, per-shard copies) assign identical node ids,
    salted paths stay bit-identical across them. *)

val ecmp_salt : t -> int

val set_trim_keep : t -> keep:int -> unit
(** NDP-style packet trimming: when [keep >= 0], a UDP data frame that
    would tail-drop on a non-top queue is instead cut to [keep] payload
    bytes in place, re-marked DSCP 63 and enqueued in the port's
    top-priority queue (where only a full top queue can still drop it).
    A negative [keep] disables trimming (the default). Ports need at
    least two queues ({!configure_queues}) for trimming to engage. *)

val set_subqueue_limit : t -> port:int -> queue:int -> bytes:int -> unit
(** Overrides one subqueue's tail-drop limit — NDP gives the trimmed-
    header/control queue a small dedicated budget so control traffic
    cannot build a deep standing queue. Raises [Invalid_argument] for a
    queue the port does not have. *)

val trims : t -> int
(** Frames trimmed (not dropped) by this switch so far. *)

type tcpu = Compile.ctx -> State.t -> now:int -> frame:Frame.t -> int
(** What the pipeline runs on every TPP it forwards, with the switch's
    own execution context and state: {!Tcpu.run}'s contract. *)

val set_tcpu : t -> tcpu -> unit
(** Replaces the switch's TCPU ({!Tcpu.run} at {!create}). The tests
    and the bench install the reference interpreter with it; nothing in
    the library installs anything else. *)

val set_tcpu_enabled : t -> bool -> unit
(** [false] installs a TCPU that runs nothing: TPPs are forwarded
    without executing (a legacy, non-TPP switch). [true] reinstalls
    {!Tcpu.run}. *)

val set_strip_tpp : t -> port:int -> bool -> unit
(** Edge security (paper §4): when set, TPP sections are stripped from
    frames arriving on [port] before any processing. *)

val install_l2 : t -> Mac.t -> port:int -> entry_id:int -> version:int -> unit
val install_route :
  t -> Ipv4.Prefix.t -> port:int -> entry_id:int -> version:int -> unit

val install_multipath_route :
  t -> Ipv4.Prefix.t -> ports:int list -> entry_id:int -> version:int -> unit
(** Equal-cost multipath: the pipeline spreads flows across [ports] by
    5-tuple hash ({!Tpp_isa.Frame.flow_hash}), so one flow stays on one
    path. A single port degenerates to {!install_route}. *)

val install_connected_route :
  t -> Ipv4.Prefix.t -> connected:Tables.connected -> entry_id:int -> version:int -> unit
(** Installs a {!Tables.Connected} block route under a covering prefix:
    the destination address itself selects the egress port. One entry
    stands in for a consecutive block of per-host or per-subnet routes
    (aggregated FIBs, DESIGN §15). *)

val l3_size : t -> int
(** Number of installed L3 entries (a {!Tables.Connected} block counts
    as one) — the FIB-size metric of the scale bench. *)

val install_tcam : t -> Tables.Tcam.rule -> Tables.entry -> unit
val remove_tcam : t -> entry_id:int -> unit
val set_version : t -> int -> unit
(** Control-plane table version, visible at [Switch:Version]. *)

val route_action : t -> Ipv4.Addr.t -> Tables.action option
(** Control-plane read of the L3 action this switch holds for an
    address (no TCAM/L2 consultation); lets path predictors see whether
    a destination is routed with ECMP. *)

val handle_ingress : t -> now:int -> in_port:int -> Frame.t -> verdict
(** Runs the whole pipeline on one arriving frame. The TCPU executes the
    frame's TPP (if any) after the forwarding decision and before
    enqueueing, so [Link:QueueSize] reads the queue the packet is about
    to join — exactly the Figure 1 semantics. Every frame that is not
    dropped is queued: its egress port's transmitter is never idle
    here, so {!dequeue} takes it out (see {!forward}). Its verdict is
    built from the same result code {!forward} returns; [Queued [ p ]]
    for one port is preallocated per port, so a unicast verdict costs
    no allocation. *)

val set_transmitter : t -> (port:int -> Frame.t -> bool) -> unit
(** Installs the egress transmitters {!forward} offers frames to. The
    offer [transmit ~port frame] is made only when every queue of
    [port] is empty; it returns [true] when the port's transmitter was
    idle and took the frame onto the wire. The network installs one per
    switch. Default: never idle. *)

val forward : t -> now:int -> in_port:int -> Frame.t -> int
(** {!handle_ingress} with cut-through, returning a bare int so that
    the simulator's per-hop path loads no verdict block:

    - [p >= 0]: the frame queued on egress port [p], whose transmitter
      must be started if idle;
    - {!cut_through}: the frame found its egress port idle — a
      {!Strict} port with every queue empty whose transmitter
      ({!set_transmitter}) took it — and is already on the wire. The
      switch did the enqueue and the dequeue accounting at once
      ([q_enqueued], [tx_bytes], [tx_pkts]), so every register reads as
      if the frame had queued, and it never touched the subqueue ring
      or the scheduler record;
    - {!flooded}: copies queued on the ports {!flooded_ports} lists;
    - {!dropped}: nothing queued ({!drop_reason} says why); the frame is
      the caller's to recycle.

    Frames that are TPP-stripped, trimmed or flooded always queue. With
    a transmitter that refuses every frame, the result maps one to one
    onto {!handle_ingress}'s verdict: [p] to [Queued [ p ]], {!flooded}
    to [Queued (flooded_ports t)], {!dropped} to
    [Dropped (drop_reason t)]. *)

val cut_through : int
val flooded : int
val dropped : int
(** {!forward}'s results other than a port: three distinct negative
    constants. *)

val flooded_ports : t -> int list
(** The ports, ascending, the last flooded frame's copies queued on.
    Each copy is cloned from the frame as it arrived, so every port's
    copy runs the TCPU once, at this switch's hop. *)

val drop_reason : t -> string
(** Why the last frame {!forward} or {!handle_ingress} dropped was
    dropped. *)

val dequeue : t -> port:int -> Frame.t option
(** Strict-priority scheduling: removes the head-of-line frame of the
    highest-priority non-empty queue of [port] and updates transmit
    counters; [None] when all queues are empty. *)

val dequeue_or : t -> port:int -> default:Frame.t -> Frame.t
(** [dequeue] without the option box: returns [default] (compared
    physically by the caller) when all queues of [port] are empty. The
    simulator's per-transmission path uses this so a steady-state
    dequeue allocates nothing. *)

val queue_bytes : t -> port:int -> int
val queue_packets : t -> port:int -> int

val set_tap :
  t -> (now:int -> in_port:int -> out_port:int -> Frame.t -> unit) option -> unit
(** Mirror point after the forwarding decision, handing the callback
    the frame itself. Every ndb postcard in the library goes through
    {!set_bin_tap}; this boxed twin serves tests that check the binary
    cards against the frame, and the frozen perfbench workload. *)

val set_bin_tap :
  t ->
  (now:int -> in_port:int -> out_port:int -> queue_bytes:int ->
   version:int -> frame_id:int -> flow_hash:int -> wire_bytes:int ->
   entry:int -> unit)
  option ->
  unit
(** The same mirror point, scalar edition: fires once per frame that
    reaches an egress queue (before the tail-drop check, like
    {!set_tap}) with every field of a binary telemetry postcard as an
    immediate int — no [Frame.t] escapes, so the streaming-telemetry
    sink can encode hop cards without allocating. [queue_bytes] is the
    depth of the queue the frame is joining, before the frame itself
    is counted. Independent of {!set_tap}; both may be installed. *)
