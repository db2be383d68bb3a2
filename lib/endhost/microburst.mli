(** Micro-burst detection (paper §2.1).

    A monitor host sends per-RTT TPP probes whose program is
    [PUSH \[Switch:SwitchID\]; PUSH \[Queue:QueueSize\]]: each hop's
    instantaneous egress-queue occupancy is recorded the instant the
    probe traverses the switch — "not an average statistic". The
    monitor turns the per-hop samples into burst {e episodes}
    (occupancy crossing a threshold and later falling back), which is
    what an operator diagnosing latency spikes counts.

    The same episode counter consumes samples from any source, so the
    experiment can feed it a 50 us oracle (ground truth) and a
    10 s management-plane poller (today's monitoring, the paper's
    strawman) for comparison. *)

module Net = Tpp_sim.Net

(** Threshold-crossing episode counter. *)
module Episode : sig
  type t

  val create : threshold:int -> t
  val feed : t -> int -> unit
  val count : t -> int
  (** Completed below->above transitions. *)

  val max_seen : t -> int
  val samples : t -> int
end

type t

val create :
  src:Stack.t ->
  dst:Net.host ->
  period:int ->
  threshold_bytes:int ->
  t
(** Probes from [src] to [dst] every [period] ns. Requires
    {!Probe.install_echo} on the destination stack. *)

val start : t -> ?at:int -> unit -> unit
val stop : t -> unit

val probes_sent : t -> int
val replies_received : t -> int

val hops : t -> (int * Episode.t) list
(** Per-switch episode counters, keyed by switch id, in path order. *)
