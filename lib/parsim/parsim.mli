(** Conservative parallel discrete-event simulation over OCaml domains.

    Shards a topology across domains and synchronizes them with
    link-propagation-delay lookahead (barrier-window / YAWNS): each
    round every shard publishes the timestamp of its earliest pending
    event, all agree on the windows's end

    {[ W = min over shards i of (min_event_time i + lookahead i) ]}

    where [lookahead i] is the smallest propagation delay of any link
    {e leaving} shard [i] across the cut, and every shard then safely
    executes its events in [\[gmin, W)]. Because a transmission
    completing on shard [i] cannot land on another shard before
    [min_event_time i + lookahead i >= W], no shard ever receives an
    event in its past — the classic conservative-PDES invariant, with
    the window widened per round to the earliest {e possible} boundary
    arrival rather than the static worst case (quiet channels stop
    throttling the window).

    Frames cross a boundary as flat batched {!Boundary} chunks: the
    emitting shard blits each frame's wire image (plus arrival /
    emission stamps, sequence number, destination, id, hop count) into
    a reusable per-channel buffer and publishes it once per window
    through a bounded {!Tpp_util.Spsc} ring; the receiving shard
    decodes in place, merges with an in-place {!Inbox} sort, and
    materializes frames from its own {!Tpp_isa.Frame.Pool} — so
    boundary traffic allocates nothing per message in steady state and
    pooled frames recycle on both sides of the cut.

    {2 Determinism}

    Each shard replays exactly the event sequence the sequential engine
    would execute for its nodes: all events of a given node run on its
    owning shard in nondecreasing time order, and simultaneous
    cross-boundary arrivals are merged in the fixed {!compare_msg}
    order — (arrival, emission stamp, source shard, source sequence) —
    with deliveries backdated to their emission stamps, so the merge
    result is independent of which window a message happens to be
    drained in (adaptive and static windows schedule identically).
    Runs are therefore bit-identical across repetitions for a given
    shard count, and event, delivery and drop counts — plus final
    switch register state — match the sequential engine whenever
    same-instant events at a node commute (always true for uniform
    frame sizes; see DESIGN.md §8 for the full argument). *)

module Time_ns = Tpp_util.Time_ns
module Engine = Tpp_sim.Engine
module Net = Tpp_sim.Net
module Frame = Tpp_isa.Frame

(** Topology-sharding plan: which shard owns which node, and the
    conservative lookahead the cut admits. *)
module Plan : sig
  type t = {
    shards : int;
    owner : int array;  (** node id -> owning shard *)
    lookahead : Time_ns.span;
        (** minimum propagation delay over cut links (static bound);
            effectively infinite when no link crosses shards *)
    shard_lookahead : Time_ns.span array;
        (** per-shard minimum delay over links {e leaving} that shard
            across the cut — the adaptive window rule's per-shard
            bound; effectively infinite for shards with no outgoing
            cut links *)
    cut_links : int;  (** full-duplex links crossing shard boundaries *)
    shard_weight : int array;  (** load estimate per shard (balance) *)
  }

  val make : Net.t -> shards:int -> t
  (** Partitions a built topology with {!Tpp_util.Partition}: vertices
      are switches (edge-cut minimized, weights biased by attached host
      count) and every host is pinned to the shard of the switch it
      attaches to, so host links never cross shards. Raises
      [Invalid_argument] when a cut link has zero propagation delay
      (a conservative engine cannot make progress without lookahead). *)
end

(** Reusable phase-counting barrier, hybrid spin-then-block; poisoning
    releases every current and future waiter (spinners observe the
    poison flag mid-spin). Exposed for the test suite. *)
module Barrier : sig
  exception Poisoned

  type t

  val create : ?spin:int -> int -> t
  (** [create n] makes a barrier for [n] participants. The spin-before-
      block iteration count is decided here, once: it depends only on
      [Domain.recommended_domain_count ()] (constant for the process
      lifetime) and [n], so no per-[await] re-evaluation could ever
      reach a different answer. [?spin] overrides the heuristic —
      tests use it to force the spin path on small machines. *)

  val await : t -> unit
  (** Blocks until all [n] participants arrive, or raises {!Poisoned}. *)

  val poison : t -> unit
  (** Releases every current and future waiter with {!Poisoned}. *)
end

val compare_msg : int * int * int * int -> int * int * int * int -> int
(** The canonical merge order of cross-boundary messages, as
    [(arrival, emitted, src_shard, seq)] tuples: lexicographic, and
    total because (src_shard, seq) pairs are unique. *)

(** Flat boundary chunks: all frames one shard emits toward another in
    one window, batched as fixed 48-byte records + wire images in a
    single reusable buffer. Exposed for the codec property tests. *)
module Boundary : sig
  type chunk

  val header_bytes : int

  val chunk : ?capacity:int -> unit -> chunk
  (** A fresh empty chunk; the buffer doubles as needed. *)

  val count : chunk -> int

  val reset : chunk -> unit
  (** Forget the contents (the buffer is retained for reuse). *)

  val append :
    chunk ->
    arrival:Time_ns.t ->
    emitted:Time_ns.t ->
    seq:int ->
    dst_node:int ->
    dst_port:int ->
    Frame.t ->
    unit
  (** Encode one message: stamps + destination + the frame's wire image
      (via {!Frame.blit_wire} — flushes TPP header state; raises like
      {!Frame.serialize} on unencodable programs). The frame itself is
      not retained: the caller may recycle it immediately. *)

  val decode :
    chunk ->
    pool:Frame.Pool.t ->
    (arrival:Time_ns.t ->
    emitted:Time_ns.t ->
    seq:int ->
    dst_node:int ->
    dst_port:int ->
    Frame.t ->
    unit) ->
    unit
  (** Decode every record in encode order, materializing each frame
      from [pool] ({!Frame.materialize}: original id and hop count are
      preserved). *)
end

(** Preallocated structure-of-arrays scratch for the per-round inbox
    merge: add in any order, {!Inbox.sort} the permutation in place by
    {!compare_msg}'s key, iterate in merge order. Steady state
    allocates nothing. Exposed for the merge-order property tests. *)
module Inbox : sig
  type t

  val create : unit -> t
  val length : t -> int

  val add :
    t ->
    arrival:Time_ns.t ->
    emitted:Time_ns.t ->
    src_shard:int ->
    seq:int ->
    dst_node:int ->
    dst_port:int ->
    Frame.t ->
    unit

  val sort : t -> unit
  (** In-place sort by the {!compare_msg} key; the order is total, so
      the result is unique regardless of insertion order. *)

  val iter_sorted :
    t ->
    (arrival:Time_ns.t ->
    emitted:Time_ns.t ->
    src_shard:int ->
    seq:int ->
    dst_node:int ->
    dst_port:int ->
    Frame.t ->
    unit) ->
    unit

  val clear : t -> unit
  (** Empties the inbox and unpins the frame slots (capacity kept). *)
end

type stats = {
  shards : int;
  events : int;  (** total events executed, all shards *)
  delivered : int;  (** frames handed to host receive callbacks *)
  rounds : int;  (** synchronization windows executed *)
  messages : int;  (** frames that crossed a shard boundary *)
  chunks : int;  (** boundary chunks published (>= 1 message each) *)
  cut_links : int;
  lookahead : Time_ns.span;  (** static (global-min) lookahead *)
  shard_events : int array;  (** per-shard event counts (balance) *)
  boundary_outstanding : int;
      (** frames still out of the per-shard boundary pools at collect
          time: 0 whenever every cross-shard frame was delivered or
          dropped inside the horizon *)
}

val run :
  shards:int ->
  until:Time_ns.t ->
  build:(Engine.t -> Net.t) ->
  setup:(shard:int -> owns:(int -> bool) -> Net.t -> unit) ->
  collect:(shard:int -> owns:(int -> bool) -> Net.t -> 'a) ->
  unit ->
  stats * 'a array
(** [run ~shards ~until ~build ~setup ~collect ()] executes a sharded
    simulation to time [until] and returns aggregate statistics plus
    one [collect] result per shard.

    [build] must deterministically construct the {e same} topology on
    any engine — each shard calls it once on its own domain to get a
    structurally identical replica (node ids are dense and assigned in
    registration order, so replicas agree), and it is called once more
    up front to compute the partition. [setup] then injects workload:
    it must schedule traffic only for hosts where [owns host.node_id]
    is true, and must not capture mutable state shared across shards.
    [collect] runs after the simulation on each shard's domain —
    harvest per-shard results (delivered counts, owned-switch register
    state) there rather than touching foreign replicas.

    With [shards = 1] the behavior (and every counter) is identical to
    building and running the net sequentially, and the lone shard runs
    in the calling domain: its allocation shows in the caller's
    [Gc.minor_words]. *)
