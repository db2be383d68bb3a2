(** Deterministic, seeded fault injection for a simulated network.

    A [Fault.t] is a {e schedule}: a set of timed rules recorded up
    front and attached to a {!Net.t} before the run starts. It is the
    only way a link fails: {!Net} has no link state of its own. It can

    - take a cable dark and bring it back ({!link_down}/{!link_up}),
      including periodic {!flap}s;
    - {!degrade} a link mid-run (slower rate, extra propagation delay);
    - make a wire {!lossy}: drop or bit-corrupt frames with given
      probabilities — corrupted frames are pushed through the real
      serialiser, a random bit is flipped, and the frame is dropped by
      the same wire checks every frame faces (header parse / IPv4
      checksum, or the Ethernet FCS when the damage lands in unchecked
      bytes). Corruption is never silently delivered;
    - {!freeze} a switch and restart it, wiping its TCPU-visible SRAM,
      to exercise TPP idempotence under switch reboots.

    {2 Determinism under sharding}

    Every rule is evaluated as a pure function of simulated time, and
    all randomness comes from private per-directed-wire splitmix64
    streams derived from the schedule seed and the wire's endpoint.
    Because the sequence of frames crossing a given wire is identical
    whatever the shard layout (each wire is driven entirely by the
    shard owning its transmitter), the nth frame on a wire always sees
    the nth draw of that wire's stream: a sequential run and a
    [--shards N] {!Tpp_parsim.Parsim} run produce bit-identical fault
    timelines, drop/corruption decisions, and final state. Cross-shard
    link faults need no coordination at all — both replicas evaluate
    the same time function; the loss decision is made once, on the
    transmitting side, before the frame enters the inter-shard channel
    at the YAWNS window boundary.

    The only engine events a schedule creates are the switch-restart
    wipes, and those are scheduled solely on the shard owning the
    switch — so event counts also match the sequential engine exactly.

    In a parallel run, build an identical schedule (same seed, same
    rules) inside [setup] on every shard and attach it to that shard's
    replica; a [Fault.t] must not be shared across domains. Aggregate
    {!stats} by summing the per-shard instances: every counter is
    incremented on exactly one shard. *)

module Time_ns = Tpp_util.Time_ns

type link = int * int
(** One endpoint ([node], [port]) of a full-duplex cable; either end
    names it. Rules apply to both directions. *)

type t

val create : seed:int -> t
(** An empty schedule. All drop/corruption randomness derives from
    [seed]; equal seeds and rules give bit-identical fault behavior. *)

(** {2 Rules} — record before {!attach}; raise [Invalid_argument] on
    nonsense (negative times, probabilities outside [0,1], ...). *)

val link_down : t -> at:Time_ns.t -> link -> unit
(** The cable goes dark at [at]: frames finishing serialisation onto it
    from then on, [at] itself included, are lost, as on a real dark
    fiber; frames queued behind it keep draining into the void. *)

val link_up : t -> at:Time_ns.t -> link -> unit
(** Restores a cable downed by {!link_down}, from [at] on. Transitions
    at one instant apply in the order they were recorded. *)

val flap :
  t ->
  from_:Time_ns.t ->
  until_:Time_ns.t ->
  period:Time_ns.span ->
  down_for:Time_ns.span ->
  link ->
  unit
(** Periodic flapping on [\[from_, until_)]: each [period] starts with
    [down_for] ns of darkness. [0 < down_for <= period]. Composes with
    permanent state: the cable is up only when both agree. *)

val degrade :
  t ->
  from_:Time_ns.t ->
  until_:Time_ns.t ->
  ?rate_factor:float ->
  ?extra_delay:Time_ns.span ->
  link ->
  unit
(** On [\[from_, until_)], transmissions start at
    [rate_factor * bps] (default 1.0, must be in (0, 1]) and arrivals
    take [extra_delay] additional ns of propagation (default 0, must be
    [>= 0]). Degradation only ever slows a link — it can never shrink a
    delay below the topology's, which is what keeps the conservative
    parallel lookahead sound. *)

val lossy :
  t ->
  from_:Time_ns.t ->
  until_:Time_ns.t ->
  ?drop:float ->
  ?corrupt:float ->
  link ->
  unit
(** On [\[from_, until_)], each frame crossing the wire is dropped with
    probability [drop], or bit-corrupted with probability [corrupt]
    (defaults 0; [drop +. corrupt <= 1.0]). Corrupted frames go through
    serialise → flip one random bit → re-parse: damage in checked bytes
    is caught by the header parse / IPv4 checksum, damage anywhere else
    by the frame check (FCS); either way the frame is counted and
    dropped, never delivered. *)

val freeze : t -> from_:Time_ns.t -> until_:Time_ns.t -> int -> unit
(** Switch node [id] freezes on [\[from_, until_)]: frames arriving at
    it vanish (a rebooting box). At [until_] it restarts with its
    TCPU-visible SRAM wiped to zero — TPP state built up by probes must
    be reconstructible. Raises at {!attach} when the node is a host. *)

(** {2 Attachment} *)

val attach : t -> Net.t -> unit
(** Resolves every rule against the topology, installs the injection
    hooks, and (on the owning shard only) schedules the switch-restart
    wipes. Call after the topology is wired (and after
    [Net.set_sharding] in a parallel run) but before the clock moves.
    One schedule per net, one net per schedule. Raises
    [Invalid_argument] when a rule names an unlinked port or a net that
    already has hooks. *)

val up : t -> link -> now:Time_ns.t -> bool
(** Whether the schedule considers the cable up at [now] (permanent
    state and flap phase combined). Only valid after {!attach}. *)

val frozen : t -> int -> now:Time_ns.t -> bool
(** Whether switch node [id] is inside a freeze window at [now]. *)

(** {2 Observation} *)

(** Why an injection fired; each constructor maps onto one {!stats}
    counter. *)
type cause =
  | Lost_down
  | Random_drop
  | Corrupt_header
  | Corrupt_fcs
  | Frozen_arrival
  | Restart

val set_observer :
  t ->
  (now:Time_ns.t -> cause:cause -> node:int -> port:int -> frame_id:int ->
   unit)
  option ->
  unit
(** Called at every injection, after the matching counter increments.
    [node]/[port] name the transmitting endpoint of the affected wire;
    events with no wire ([Frozen_arrival], [Restart]) carry the frozen
    switch's node and port 0xFFFF, and [frame_id] 0. The observer is
    shard-local (it sees exactly the injections this instance's
    counters count) and must not mutate simulation state — it exists
    so the streaming-telemetry layer can emit fault postcards. *)

(** {2 Accounting} — frames lost to this schedule, by cause. *)

type stats = {
  lost_down : int;     (** finished serialising onto a fault-dark wire *)
  dropped : int;       (** random loss *)
  corrupt_header : int;
      (** corrupted, caught by header parse / IPv4 checksum *)
  corrupt_fcs : int;
      (** corrupted in unchecked bytes, caught by the frame check *)
  frozen_arrivals : int;  (** arrived at a frozen switch *)
  restarts : int;         (** switch restart wipes executed *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
