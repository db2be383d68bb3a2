(** CONGA-flavored flowlet load balancer driven by TPP telemetry
    (Alizadeh et al., SIGCOMM 2014, expressed with tiny packet
    programs per the HotNets'13 paper's "task 4").

    The balancer owns one {!Tpp_endhost.Flow} and a set of candidate
    ECMP paths, one per candidate UDP source port. It round-robins a
    probe TPP over the candidates ([PUSH \[Switch:SwitchID\]; PUSH
    \[Link:QueueSize\]] at every hop), reads back the bottleneck queue
    of each path from the echoed program, and re-pins the flow — by
    rewriting its source port, which moves its ECMP hash everywhere —
    onto the least-loaded path. Steering happens only at flowlet
    boundaries ({!Tpp_endhost.Flowlet}), so a path change can never
    reorder a burst.

    The destination must run {!Tpp_endhost.Probe.install_echo_on_port}
    on the flow's port so probes (and optional piggybacked data TPPs)
    are executed and echoed back. *)

module Net = Tpp_sim.Net
module Stack = Tpp_endhost.Stack
module Flow = Tpp_endhost.Flow
module Flowlet = Tpp_endhost.Flowlet

type config = {
  probe_period_ns : int;
      (** one candidate path is probed per tick, round-robin *)
  flowlet_gap_ns : int;  (** idle gap that opens a steering boundary *)
  max_hops : int;        (** TPP memory sized for this many hops *)
  num_paths : int;       (** candidate paths (distinct source ports) *)
  port_stride : int;     (** spacing between candidate source ports *)
  piggyback_every : int option;
      (** when set, every nth data packet also carries the collect TPP
          and its echo refreshes the current path's load for free *)
}

val default_config : config
(** 500 µs probe period, 100 µs flowlet gap, 8 hops, 4 paths,
    stride 7, no piggyback. *)

type t

val create : ?config:config -> Stack.t -> flow:Flow.t -> dst:Net.host -> t
(** Balances [flow] (whose destination is [dst]) from the sender's
    [stack]. Candidate source ports are [Flow.port flow + i * stride];
    path 0 is the flow's native port. *)

val start : t -> ?at:int -> unit -> unit
val stop : t -> unit

val probes_sent : t -> int

val decisions : t -> int
(** Steering evaluations that ran at a flowlet boundary. *)

val moves : t -> int
(** Decisions that moved the flow to a different path. *)

val flowlet : t -> Flowlet.t
