(** Hierarchical timing wheel over int priorities and int payloads.

    The fast event queue of the discrete-event engine: O(1) push and
    near-O(1) pop against the binary heap's O(log n), with the same
    ordering contract as {!Heap} — pop in nondecreasing priority; among
    equal priorities, by emission stamp, then canonical tie key, then a
    global insertion sequence — across levels, cascades, and the
    overflow heap, so simulations built on it stay bit-for-bit
    deterministic whether events were pushed locally or adopted from
    another shard (the test suite checks that it pops exactly as
    {!Heap} does). Peek and pop select the key minimum by scanning the
    one slot holding the current timestamp (a handful of same-ns
    events); the memoised minimum keeps that to one scan per
    peek-then-pop pair.

    Twelve levels of 32 slots cover bits 0..59 of the absolute
    nanosecond timestamp (ns resolution near the cursor, ~36 s slots at
    the top); entries beyond that horizon wait in a stable-heap overflow
    and pop from there. Placement is digit-based (the highest base-32
    digit where the time differs from the cursor), which makes an
    entry's slot a pure function of (time, cursor prefix) — the property
    that preserves same-timestamp FIFO order across cursor movement.
    Internals are structure-of-arrays with intrusive slot FIFOs and
    per-level occupancy bitmaps: push, pop and cascade allocate
    nothing.

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

val peek_prio : t -> int option

val peek_prio_or : t -> default:int -> int
(** Allocation-free {!peek_prio}: [default] when the wheel is empty.
    Peeking never moves the cursor. *)

val cursor : t -> int
(** The wheel's time position (0 initially): advanced by pops served
    from the wheel levels, and the floor for new pushes. Pops served
    from the overflow heap do not move it. Exposed for tests. *)

val clear : t -> unit
(** Empties the wheel and releases the entry slab, so previously queued
    payloads' slots are reclaimed. Resets the cursor to 0. *)

(** {2 Geometry constants} (exposed for tests and docs) *)

val bits : int
(** Bits per level: log2 of the slots per level (5). *)

val levels : int
(** Number of wheel levels (12). *)

val horizon_bits : int
(** [bits * levels] (60): entries whose time differs from the cursor at
    or above this bit live in the overflow heap. *)
