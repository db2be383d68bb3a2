(** Discrete-event engine with a typed, allocation-free dataplane core.

    Steady-state dataplane events — frame deliveries, port dequeues,
    fault restarts — are not closures. Each is one entry of a
    hierarchical timing {!Tpp_util.Wheel}: its tie key packs the event
    kind, node and port, and its payload the id of a {!handlers} record
    the dataplane registered once, plus, for a delivery, the cell that
    holds its frame. A single match dispatches them. Dequeues and
    restarts hold no pointer at all; scheduling and firing any of these
    events allocates zero minor words. Control-plane events are
    closures: one-shot timers ({!at}/{!after}, e.g. probe timeouts) and
    {!Loop}, the one periodic timer every end-host controller and
    {!every} run on; a warm {!Loop} firing allocates nothing either.

    Ordering contract: nondecreasing time; among equal timestamps, by
    emission stamp, then by a canonical (kind, node, port) key, then by
    scheduling order. This is the wheel's contract; its overflow queue
    for far-future events and its test oracle are described in
    {!Tpp_util.Wheel}. Node and port ids of typed events must fit in 20
    bits each, as the key packs them.

    Every scheduled event is stamped with an emission time: the engine
    clock at scheduling time, except that {!deliver_at} and
    {!dequeue_at} take their stamp from the caller. The network passes
    the time the event would have been scheduled at had it queued every
    transmission completion: the clock, the end of the transmission for
    a delivery queued when it starts, the start for a completion queued
    late. The sharded simulator passes a delivery's original emission
    time on its peer shard: that reproduces the sequential push order
    among same-timestamp events, which inbox drain order alone
    cannot. *)

module Time_ns = Tpp_util.Time_ns
module Frame = Tpp_isa.Frame

type t

(** Callbacks for the typed event kinds. A dataplane allocates one of
    these per network (not per event) and {!register}s it once; every
    {!deliver_at}/{!dequeue_at}/{!restart_at} then names it by its
    {!handle}, and the engine calls the matching field on dispatch. *)
type handlers = {
  on_deliver : node:int -> port:int -> Frame.t -> unit;
  on_dequeue : node:int -> port:int -> unit;
  on_restart : node:int -> unit;
}

type handle
(** A {!handlers} record registered on one engine: the small id its
    typed events carry. *)

val register : t -> handlers -> handle
(** Registers a handlers record for the typed events of one network or
    fault schedule. Raises [Invalid_argument] past 65535 records. *)

val no_handle : handle
(** Names no record: a placeholder for a structure that is built before
    the handlers that close over it are registered. An event scheduled
    with it raises [Invalid_argument] when it fires. *)

val max_id_bits : int
(** Bits available to a typed event's node id and to its port (20):
    scheduling one outside [0 .. 2^20-1] raises [Invalid_argument]. *)

val create : unit -> t
(** Fresh engine at time 0. *)

val now : t -> Time_ns.t

val deliver_at :
  t -> Time_ns.t -> emitted:Time_ns.t -> handle -> node:int -> port:int ->
  Frame.t -> unit
(** Schedules the arrival of [frame] at ([node], [port]) at an absolute
    time, which must not be in the past (raises [Invalid_argument]).
    Allocation-free. [emitted] is the event's tie-break stamp: the
    current clock for a local delivery, the emission time on the peer
    shard for an adopted one (see the module comment). *)

val dequeue_at :
  t -> Time_ns.t -> emitted:Time_ns.t -> handle -> node:int -> port:int -> unit
(** Schedules the end of ([node], [port])'s current transmission.
    Allocation-free. [emitted] is the event's tie-break stamp: the
    transmission's start. The network queues a completion it first
    elided (see {!Net}) after its start, and the stamp gives it the
    place in the event order it would have had if queued then. *)

val dequeue_fired :
  t -> Time_ns.t -> emitted:Time_ns.t -> node:int -> port:int -> bool
(** Whether a dequeue of ([node], [port]) keyed ([time], [emitted]) is,
    in the ordering contract, at or before the event now firing: the
    key is compared with the clock and the firing event's stamp and tie
    key. Outside {!run}, every event at or before the clock has fired.
    The network asks this of a transmission whose completion it never
    queued, to tell whether it still serialises. *)

val restart_at : t -> Time_ns.t -> handle -> node:int -> unit
(** Schedules the restart of frozen switch [node]. Allocation-free. *)

val at : t -> Time_ns.t -> (unit -> unit) -> unit
(** Schedules a closure at an absolute time, which must not
    be in the past (raises [Invalid_argument]). *)

val after : t -> Time_ns.span -> (unit -> unit) -> unit

(** A restartable periodic callback: the control loop of every
    end-host controller (flow pacing, probe rounds, receiver reports).
    Each firing runs the loop's body, which returns the delay to the
    next firing, or a negative value to end the loop. *)
module Loop : sig
  type engine := t
  type t

  val create : engine -> t
  (** A stopped loop on this engine. *)

  val start : t -> ?at:Time_ns.t -> (unit -> Time_ns.span) -> unit
  (** Runs [body] at [at] (default now; a time in the past is clamped
      to now), then again after each delay it returns. Does nothing
      when the loop is already running. Allocates one closure; a
      re-arm allocates nothing. *)

  val stop : t -> unit
  (** Ends the loop. A firing already in the wheel stays there and
      does nothing when it comes due, also after a later {!start}. *)

  val running : t -> bool
  (** From {!start} until {!stop} or a negative delay. *)
end

val every :
  t -> ?start:Time_ns.t -> period:Time_ns.span -> until:Time_ns.t ->
  (unit -> unit) -> unit
(** Periodic callback from [start] (default one period from now) to
    [until] inclusive, on a {!Loop}. An explicit [start] must lie
    strictly in the future (raises [Invalid_argument] "Engine.every:
    start in the past" when at or before the current clock). *)

val next_event_time : t -> Time_ns.t option
(** Timestamp of the earliest queued event, [None] when the queue is
    empty. *)

val next_event_time_or : t -> default:Time_ns.t -> Time_ns.t
(** Allocation-free {!next_event_time}: [default] when the queue is
    empty. The conservative parallel scheduler ({!Tpp_parsim.Parsim})
    reads this every round to agree on a safe execution window. *)

val run : t -> until:Time_ns.t -> unit
(** Processes events in (time, schedule) order until the queue drains
    or the next event lies beyond [until]; the clock ends at [until].
    Emptiness is tested explicitly — never via a sentinel priority — so
    an event scheduled at [max_int] fires when [until] reaches it
    rather than being mistaken for an empty queue. *)

val events_processed : t -> int
(** The model's events that have fired: every event popped from the
    wheel, plus each {!count_unqueued} source's figure. Exact at any
    horizon. *)

val count_unqueued : t -> (unit -> int) -> unit
(** Registers a correction that {!events_processed} adds whenever it is
    read: the number of the model's events that have fired without a
    wheel entry, less the wheel entries that fired but were no model
    event. The network registers one for the transmission completions
    it elides. *)

val wheel_placements : t -> int
(** {!Tpp_util.Wheel.placements} of the engine's wheel: over
    {!events_processed}, the scheduler's filings per event. *)
