(** Hierarchical timing wheel over int priorities and int payloads.

    The fast event queue of the discrete-event engine: O(1) push and
    O(1) minimum against the binary heap's O(log n), with the same
    ordering contract as {!Heap} — pop in nondecreasing priority; among
    equal priorities, by emission stamp, then canonical tie key, then a
    global insertion sequence — across levels, cascades, and the
    overflow heap, so simulations built on it stay bit-for-bit
    deterministic whether events were pushed locally or adopted from
    another shard (the test suite checks that it pops exactly as
    {!Heap} does). No peek or pop walks a slot's list: each exact
    nanosecond slot keeps its list sorted by (stamp, tie, sequence) as
    entries arrive (usually an append), and each coarse slot remembers
    its minimum.

    Level 0 is an exact near window of 1024 one-nanosecond slots (bits
    0..9 of the absolute timestamp); ten levels of 32 slots above it
    resolve one 5-bit digit each, up to bit 59 (~36 s slots at the
    top). Entries at or beyond 2^60 ns wait in a stable-heap overflow
    and pop from there, after every wheel entry. Placement is digit-based (the highest digit
    where the time differs from the cursor), which makes an entry's
    slot a pure function of (time, cursor prefix) — the property that
    preserves same-timestamp order across cursor movement. Internals
    are structure-of-arrays with intrusive slot lists and occupancy
    bitmaps: push, pop and cascade allocate nothing.

    Priorities must be nondecreasing with respect to pops: pushing below
    the last popped priority (the cursor) raises [Invalid_argument] —
    exactly the discipline {!Tpp_sim.Engine} already enforces. *)

type t

val create : unit -> t

val length : t -> int
val is_empty : t -> bool

val push : ?emitted:int -> t -> prio:int -> int -> unit
(** Adds an entry. [emitted] (default 0) is the sub-priority stamp:
    among equal priorities, smaller stamps pop first, and equal stamps
    pop in insertion order. Raises [Invalid_argument] when [prio] is
    below the cursor (the priority of the most recent wheel pop). *)

val push_stamped : t -> prio:int -> emitted:int -> int -> unit
(** {!push} with a required stamp (tie key 0). Allocation-free:
    applying the optional [~emitted] boxes the stamp in [Some] at the
    call site, so hot paths that always stamp use this instead. *)

val push_keyed : t -> prio:int -> emitted:int -> tie:int -> int -> unit
(** {!push_stamped} with the full key: among equal (prio, emitted),
    smaller [tie] pops first. The engine derives [tie] from event
    content — (kind, node, port) — so same-instant pop order is
    push-order-independent, the property sharded runs rely on. *)

val pop : t -> (int * int) option
(** Removes and returns the minimum [(prio, payload)] entry (ties:
    emission stamp, then tie key, then FIFO). *)

val pop_value : t -> default:int -> int
(** Allocation-free {!pop}: removes the minimum entry and returns its
    payload, or [default] when the wheel is empty. *)

val popped_tie : t -> int
(** The tie key of the entry the last {!pop} or {!pop_value} removed
    (0 before the first). The engine decodes an event's kind, node and
    port from it, so it stores them nowhere else. *)

val popped_stamp : t -> int
(** The emission stamp of the entry the last {!pop} or {!pop_value}
    removed (0 before the first). *)

val peek_prio : t -> int option

val peek_prio_or : t -> default:int -> int
(** Allocation-free {!peek_prio}: [default] when the wheel is empty.
    Peeking never moves the cursor. *)

val cursor : t -> int
(** The wheel's time position (0 initially): advanced by pops served
    from the wheel levels, and the floor for new pushes. Pops served
    from the overflow heap do not move it. Exposed for tests. *)

val placements : t -> int
(** Entries filed into a level or the overflow since {!create}: one per
    push plus one per cascade move. Divided by the pops, it is the
    wheel's work per event, a count that repeats exactly from run to
    run. *)

val clear : t -> unit
(** Empties the wheel and releases the entry slab, so previously queued
    payloads' slots are reclaimed. Resets the cursor to 0. *)

(** {2 Geometry constants} (exposed for tests and docs) *)

val bits : int
(** Bits per coarse level: log2 of its slots (5). *)

val levels : int
(** Number of wheel levels, the near window included (11). *)

val horizon_bits : int
(** [10 + bits * (levels - 1)] (60), level 0 resolving 10 bits (1024
    one-nanosecond slots): entries at or beyond [2^horizon_bits] ns
    live in the overflow heap. *)
