(** Topology builders and control-plane route installation.

    Each builder wires a standard experiment topology and returns the
    pieces; {!install_routes} then plays the control plane: it computes
    shortest paths and installs per-host /32 L3 routes and L2 entries on
    every switch, stamping each entry with a unique id and version 1 —
    the state the forwarding-plane debugger (paper §2.3) inspects. *)

module Time_ns = Tpp_util.Time_ns

val next_hop_ports : Net.t -> dest:Net.host -> (int * int list) list
(** For every switch that can reach [dest]: its node id and the
    ascending list of equal-cost ports one hop closer to [dest] (BFS
    metric). The building block of both {!install_routes} and the
    control plane's staged updates. *)

val install_dest_on_switch :
  Net.t ->
  dest:Net.host ->
  ecmp:bool ->
  version:int ->
  entry_id:int ->
  int ->
  int list ->
  unit
(** [install_dest_on_switch net ~dest ~ecmp ~version ~entry_id sid ports]
    installs one switch's L3/L2 entries for [dest] given its candidate
    [ports] (from {!next_hop_ports}). Used by the control plane's staged
    updates. *)

val install_routes : ?ecmp:bool -> ?version:int -> Net.t -> unit
(** BFS shortest paths toward every host. Without [ecmp] (default) the
    lowest-numbered port breaks ties, deterministically; with [ecmp]
    every equal-cost port is installed as a multipath group and the
    switches spread flows by 5-tuple hash. Entries and switches are
    stamped with [version] (default 1). Must be called after all links
    exist. *)

type chain = {
  net : Net.t;
  switch_ids : int array;
  hosts : Net.host array array;  (** [hosts.(i)] = hosts on switch [i] *)
}

val chain :
  Engine.t ->
  num_switches:int ->
  hosts_per_switch:int ->
  bps:int ->
  delay:Time_ns.span ->
  unit ->
  chain
(** Switches in a line; switch [i] uses port 0 toward switch [i-1],
    port 1 toward switch [i+1], ports 2+ for its hosts. All links share
    [bps] and [delay]. Routes installed. *)

type dumbbell = {
  d_net : Net.t;
  left_switch : int;
  right_switch : int;
  senders : Net.host array;
  receivers : Net.host array;
}

val dumbbell :
  Engine.t ->
  pairs:int ->
  core_bps:int ->
  edge_bps:int ->
  delay:Time_ns.span ->
  unit ->
  dumbbell
(** [pairs] sender/receiver host pairs across a 2-switch bottleneck:
    the core link (port 0 on each switch) carries [core_bps]; host
    links carry [edge_bps]. Routes installed. *)

type diamond = {
  m_net : Net.t;
  ingress : int;       (** switch A *)
  upper : int;         (** switch B (A-B-D path) *)
  lower : int;         (** switch C (A-C-D path) *)
  egress : int;        (** switch D *)
  src_hosts : Net.host array;
  dst_hosts : Net.host array;
}

val diamond :
  Engine.t ->
  hosts_per_side:int ->
  bps:int ->
  delay:Time_ns.span ->
  unit ->
  diamond
(** Two equal-cost paths A-B-D and A-C-D; BFS prefers the lower port
    (via B). The ndb experiment then plants a divergent TCAM rule on A
    steering some traffic via C without the control plane knowing. *)

type fat_tree = {
  f_net : Net.t;
  k : int;
  core_ids : int array;          (** (k/2)^2 core switches *)
  agg_ids : int array array;     (** [pod].[i] *)
  edge_ids : int array array;    (** [pod].[i] *)
  f_hosts : Net.host array;      (** pod-major, k^3/4 hosts *)
}

type random_topology = {
  r_net : Net.t;
  r_switch_ids : int array;
  r_hosts : Net.host array;
}

val random :
  Engine.t ->
  switches:int ->
  hosts:int ->
  extra_links:int ->
  seed:int ->
  ?ecmp:bool ->
  bps:int ->
  delay:Time_ns.span ->
  unit ->
  random_topology
(** A random connected switch graph (a random spanning tree plus
    [extra_links] extra switch-switch links, no parallel links) with
    [hosts] hosts attached round-robin. Deterministic per [seed]; routes
    installed. The routing property tests fuzz the whole dataplane with
    these. *)

val fat_tree :
  Engine.t -> ?wire_check:[ `Cached ] ->
  ?ecmp:bool -> ?addressing:[ `Counter | `Pods ] ->
  ?fib:[ `Host32 | `Aggregated ] -> k:int -> bps:int ->
  delay:Time_ns.span -> unit -> fat_tree
(** A k-ary fat-tree (k even, >= 2): k pods of k/2 edge and k/2
    aggregation switches, (k/2)^2 cores, k/2 hosts per edge switch —
    the datacenter fabric of the paper's motivating setting. Ports
    0..k/2-1 face down, k/2..k-1 face up; core port p faces pod p.
    Shortest-path routes installed; [ecmp] (default [true]) spreads
    flows across the equal-cost up-links by 5-tuple hash, the standard
    fabric practice. Paths stay deterministic per flow.

    [addressing] picks the host address plan: [`Counter] (default) keeps
    the flat per-net counter IPs; [`Pods] (k <= 256) assigns the
    hierarchical Al-Fares plan 10.pod.edge.(2+slot), where every octet
    boundary is an aggregation boundary.

    [fib] picks the route-installation strategy: [`Host32] (default)
    installs per-host /32s via {!install_routes} — the differential
    oracle; [`Aggregated] (requires [`Pods]) installs O(1) prefix
    entries per switch (a {!Tpp_asic.Tables.Connected} block route over
    everything below, plus an ECMP default up), forwarding every packet
    identically to the oracle with ~half * k^2 / 2 fewer FIB entries.

    [wire_check] selects nothing: [`Cached] is the only value, and every
    net checks each header layout once ({!Net.host_send}). It stays
    only so existing callers that pass it keep compiling. *)

type leaf_spine = {
  ls_net : Net.t;
  ls_leaf_ids : int array;   (** leaf [l]: host ports 0..hpl-1, up ports hpl.. *)
  ls_spine_ids : int array;  (** spine [s]: port [l] faces leaf [l] *)
  ls_hosts : Net.host array; (** leaf-major *)
  ls_leaves : int;
  ls_spines : int;
  ls_hosts_per_leaf : int;
}

val leaf_spine :
  Engine.t -> ?ecmp:bool -> leaves:int -> spines:int -> hosts_per_leaf:int -> bps:int ->
  delay:Time_ns.span -> unit -> leaf_spine
(** A two-tier leaf-spine fabric: [leaves] (<= 65536) leaf switches of
    [hosts_per_leaf] (<= 253) hosts each, every leaf connected to every
    spine. Hosts get hierarchical addresses 10.(leaf/256).(leaf mod
    256).(2+slot) — one /24 per leaf — and routes are always
    aggregated: each leaf holds 2 FIB entries (its own subnet as a
    Connected block + an ECMP default up), each spine exactly 1 (a
    Connected route keyed by the leaf octets). FIB state is O(1) per
    switch at {e any} host count: the memory-scaling workhorse of the
    scale bench (100k hosts and beyond). *)
