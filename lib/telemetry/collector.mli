(** The telemetry collector: decodes binary postcards in place and
    folds them into constant-memory per-link and per-flow state.

    One {!absorb} call drains a {!Sink} and updates, per card:

    - total and per-kind counters;
    - per-switch hop counts;
    - a {!Sketch.Cms} of bytes per flow hash (heavy-hitter detection);
    - per-link ((switch, out port)) hop/byte/fault counters;
    - per-link fault {!Sketch.Ewma} driven by hop and [Fault_event]
      cards;
    - per-node probe retry/failure counts from end-host cards.

    It keeps only state something reads: [React] acts on the fault
    EWMA, the link counters and {!hottest_link}, and {!fingerprint}
    hashes the counters and the CMS. A hop card's queue depth is not
    kept. Everything a query returns is derived from bounded state:
    the CMS is fixed-size, and the per-switch and per-link tables are
    dense arrays indexed by node id and out port, so their size is set
    by the largest node id and port seen, not by the number of
    physical links. Node ids are Net node ids, below 2^20
    ({!Tpp_sim.Engine.max_id_bits}); a hop or fault card naming a
    larger one raises [Invalid_argument]. {!fingerprint} hashes only
    order-independent state (counters and the CMS), so a sequential
    run and a sharded run over the same traffic agree bit-exactly. *)

type t

val create : unit -> t
(** A 2048 x 4 flow CMS and per-link fault EWMAs with alpha 0.1. *)

val absorb : t -> Sink.t -> unit
(** Drains the sink, decoding every pending card in place. *)

val absorb_card : t -> bytes -> off:int -> unit
(** Folds in one card directly (the [Sink.drain] callback).
    @raise Invalid_argument naming the id if a hop or fault card's
    node is 2^20 or more; nothing is counted then. *)

(** {2 Counters} *)

val cards : t -> int
val hops : t -> int
val probe_retries : t -> int
val probe_failures : t -> int
val fault_events : t -> int
val switch_hops : t -> switch:int -> int

(** {2 Flows} *)

val cms : t -> Sketch.Cms.t

(** {2 Links} — a link is a switch egress: [(switch id, out port)]. *)

val links : t -> (int * int) list
(** Every link that has appeared on a hop or fault card, sorted. *)

val link_hops : t -> switch:int -> port:int -> int
val link_bytes : t -> switch:int -> port:int -> int

val link_faults : t -> switch:int -> port:int -> int
(** [Fault_event] cards attributed to this link. *)

val link_fault_ewma : t -> switch:int -> port:int -> float
(** EWMA over hop observations: 1.0 for each [Fault_event] on the
    link, 0.0 for each clean hop. Approximates the link's loss rate
    and decays as clean traffic resumes. *)

val hottest_link : t -> ?exclude:(int * int) list -> unit -> (int * int * int) option
(** [(switch, port, bytes)] of the busiest link by byte count,
    excluding [exclude]; ties break toward the smaller id pair. *)

(** {2 Sharding} *)

val merge : into:t -> t -> unit
(** Sums counters, merges the CMS and per-link state. Merging shard
    collectors must yield the same {!fingerprint} as one sequential
    collector over the same cards. *)

val fingerprint : t -> int
(** Order-independent digest: counters, per-switch and per-link
    counts, and the CMS cells. Excludes the fault EWMAs (they are
    order-sensitive by nature). *)
