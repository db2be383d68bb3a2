(** TPP-based link-failure localisation — the "fault diagnosis" task of
    the paper's opening sentence.

    A fleet of probe circuits covers the fabric. When a link dies,
    probes crossing it stop echoing within a probe period or two, while
    other circuits stay healthy; intersecting the failing circuits'
    (control-predicted, hash-exact) link sets and subtracting every
    healthy circuit's links leaves a small suspect set — usually the
    failed link itself. All of it from end-hosts, at RTT timescales, an
    order of magnitude before any control-plane liveness protocol would
    have noticed. *)

module Net = Tpp_sim.Net
module Stack = Tpp_endhost.Stack

type link = { from_switch : int; egress_port : int }
(** A link named by one of its switch-side endpoints. Localisation works
    on physical cables: the two directions of a cable are the same
    fault, and a circuit is exposed to a cable if {e either} its probe
    path or its echo's return path crosses it. *)

type t

val create :
  circuits:(Stack.t * Net.host) list ->
  period:int ->
  timeout:int ->
  unit ->
  t
(** Probes every circuit each [period]; a circuit with no echo for
    [timeout] ns counts as failing. Destinations need
    {!Tpp_endhost.Probe.install_echo}. Forward and return routes are
    predicted per circuit with the respective packets' own 5-tuples
    (hash-exact under ECMP).

    Each circuit also keeps the outcome of its last 8 probe rounds; a
    circuit losing at least a quarter of its matured rounds counts as
    {e degraded} even while occasional echoes keep it nominally alive —
    this is what catches flapping and lossy links. *)

val start : t -> ?at:int -> unit -> unit
val stop : t -> unit

val probe_offset : circuits:int -> round:int -> int -> int
(** Offset in its source's probe block ({!Tpp_endhost.Probe.Block}) of
    the probe that round [round] sends on circuit [i]: rounds wrap so
    that every offset stays in the block. *)

val echo_round : circuits:int -> last_round:int -> int -> int * int
(** [(round, i)] of the echo carrying this block offset, with
    [last_round] the latest round sent: the inverse of {!probe_offset}
    for every echo less than [seq_block / circuits] rounds late. *)

val healthy : t -> now:int -> bool list
(** Per circuit, in creation order. Circuits that have not yet had a
    chance to answer (young or just started) count as healthy. *)

val degraded : t -> now:int -> bool list
(** Per circuit: hard-failing ({!healthy} false) {e or} lossy — echo
    loss over the matured round window at or above the threshold, with
    at least half a window of evidence. Flap- and loss-tolerant
    superset of [not healthy]. *)

val suspects : t -> now:int -> link list
(** One representative endpoint per suspect cable. The suspect set is a
    greedy minimal cover of the degraded circuits by cables that touch
    no clean circuit, keeping every cable tied at a step's best
    coverage (probes cannot distinguish cables hurting the same
    circuits). A single failure yields the classic intersection; two
    simultaneous failures yield (typically) one cable per failure.
    Empty when nothing is degraded. *)

val links_of_circuit : t -> int -> link list
(** The control-predicted {e forward} path of a circuit, for reporting
    and for choosing which link an experiment fails. *)

val same_cable : t -> link -> link -> bool
(** Whether two endpoint names denote the same physical cable. *)

val pp_link : Format.formatter -> link -> unit
