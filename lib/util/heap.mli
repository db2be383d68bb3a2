(** Stable binary min-heap.

    The event queue of the discrete-event simulator. Ordering is
    lexicographic (priority, emission stamp, tie key, insertion
    sequence): entries with equal priority pop by earlier [emitted]
    stamp first, then by smaller [tie] key, then in insertion order.
    [emitted] and [tie] default to 0, so callers that never pass them
    get plain FIFO among equal priorities — which makes simulations
    with simultaneous events deterministic.

    The stamp exists for the sharded simulator: an event adopted from
    another shard is pushed long after the local events it must
    interleave with, so insertion order alone cannot reproduce the
    sequential schedule. Stamping every push with the simulation clock
    (and adopted events with their original emission time) makes the
    sub-priority order a pure function of the stamp rather than of
    push timing. The tie key finishes the job: events that collide on
    both time and stamp (arrival-clocked protocols quantise emissions
    to shared serialization lattices) order by a content-derived key —
    the engine packs (event kind, node, port) into it — so their pop
    order is independent of push order too. Insertion sequence remains
    only as a last resort for truly identical keys, which the engine
    guarantees belong to commuting events.

    Internally a structure-of-arrays layout: (priority, emit, tie,
    sequence) keys live in unboxed int arrays, so push/pop allocate
    nothing, and popped slots are overwritten with a sentinel so
    completed values can be collected (the heap never pins values it no
    longer holds). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : ?emitted:int -> 'a t -> prio:int -> 'a -> unit
(** [push ?emitted t ~prio v] inserts [v]. [emitted] (default 0) is the
    sub-priority stamp; among equal priorities, smaller stamps pop
    first, and equal stamps pop in insertion order. *)

val push_stamped : 'a t -> prio:int -> emitted:int -> 'a -> unit
(** {!push} with a required stamp (tie key 0). Allocation-free:
    applying the optional [~emitted] boxes the stamp in [Some] at the
    call site, so hot paths that always stamp use this instead. *)

val push_keyed : 'a t -> prio:int -> emitted:int -> tie:int -> 'a -> unit
(** {!push_stamped} with the full key: among equal (prio, emitted),
    smaller [tie] pops first. The engine derives [tie] from event
    content so same-instant pop order is push-order-independent. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum entry (ties: emission stamp, then
    FIFO). *)

val pop_value : 'a t -> default:'a -> 'a
(** Allocation-free {!pop}: removes the minimum entry and returns its
    value, or [default] when the heap is empty. *)

val peek_prio : 'a t -> int option

val peek_prio_or : 'a t -> default:int -> int
(** Allocation-free {!peek_prio}: [default] when the heap is empty. *)

val clear : 'a t -> unit
(** Empties the heap and releases the backing storage, so previously
    queued values become collectable immediately. *)
