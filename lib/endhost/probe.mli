(** TPP probe round-trips.

    The paper's measurement pattern (§2.2 phase 1): a sender attaches a
    TPP to a probe datagram; switches execute it on the way; "the
    receiver simply echoes a fully executed TPP back to the sender". The
    echo carries the executed TPP section as plain UDP payload — not as
    a live TPP — so it is not executed again on the return path.

    Echoes come back to one demux per host: it decodes each echo once
    and calls, in registration order, every callback whose filter
    accepts it. A filter is a controller's own {!Block} of sequence
    numbers, the source port of a flow that carries the TPP
    ({!Block.on_flow_echo}), or everything ({!install_reply_handler}).
    Callbacks share the decoded TPP, so they must only read it. *)

module Net = Tpp_sim.Net
module Tpp = Tpp_isa.Tpp

val request_port : int
(** UDP port probe requests go to (7777). *)

val reply_port : int
(** UDP port echoes come back on (7778). *)

val install_echo : Stack.t -> unit
(** Makes this stack answer probe requests. *)

val install_echo_on_port : Stack.t -> port:int -> unit
(** Additionally echoes executed TPPs that arrive {e piggybacked} on
    application traffic at [port] (see {!Flow.carry_tpp}); added
    alongside the port's existing handler, so the application still
    receives the data. The echoed seq is the data packet's sequence
    number. *)

val send :
  Stack.t -> dst:Net.host -> tpp:Tpp.t -> seq:int -> unit
(** Sends a probe carrying a fresh copy of [tpp] and a sequence number. *)

val install_reply_handler :
  Stack.t -> (now:int -> seq:int -> Tpp.t -> unit) -> unit
(** Calls back with the executed TPP of every echo this host receives,
    whatever its seq. Controllers that share a host take a {!Block}
    instead, so each sees only its own echoes. *)

val seq_block : int
(** Sequence numbers per block (2^20). *)

(** A controller's block of the host's echo sequence space: its probes
    carry seqs from the block, and its callback sees only the echoes
    that carry them. *)
module Block : sig
  type t

  val take : Stack.t -> t
  (** A fresh block of [seq_block] seqs, disjoint from every other
      block taken on this host. Seqs below [seq_block] are never handed
      out, so they stay free for callers of {!send}. Raises [Failure]
      when the host has used all 4095 blocks the u32 echo seq leaves
      room for. *)

  val seq : t -> int -> int
  (** [seq b n] is the seq a controller's [n]th probe carries: [n]
      wrapped into the block, so any count [n >= 0] stays in it. *)

  val offset : t -> int -> int
  (** [offset b (seq b n)] is [n mod seq_block]. *)

  val on_echo : t -> (now:int -> seq:int -> Tpp.t -> unit) -> unit
  (** Registers the callback for the echoes whose seq lies in the
      block. *)

  val on_flow_echo :
    t -> port:int -> (now:int -> seq:int -> Tpp.t -> unit) -> unit
  (** Registers a callback for TPPs that rode the data flow on [port]
      ({!install_echo_on_port}): echoes from UDP source [port] whose
      seq, the data packet's, lies outside the block. *)
end

(** Probe round-trips hardened against loss: per-probe timeout, bounded
    retransmission with exponential backoff, and loss accounting. The
    paper's probes are idempotent reads, so a retry that races a slow
    echo is harmless — the first echo wins and later ones are counted
    as {!field:stats.late}.

    All timers run on the simulation engine, so retry behavior is
    deterministic and, in a sharded run, stays on the shard owning the
    probing host. *)
module Reliable : sig
  type t

  val create : ?timeout:int -> ?retries:int -> ?backoff:float -> Stack.t -> t
  (** [timeout] (ns, default 1ms) arms a timer per transmission;
      [retries] (default 3) is the number of {e re}transmissions after
      the first attempt; [backoff] (default 2.0, must be >= 1) scales
      the timeout by [backoff^n] for the nth retry. Allocates its own
      block of the echo sequence space. *)

  val send :
    t ->
    dst:Tpp_sim.Net.host ->
    tpp:Tpp_isa.Tpp.t ->
    ?on_reply:(now:int -> Tpp_isa.Tpp.t -> unit) ->
    ?on_fail:(now:int -> unit) ->
    unit ->
    int
  (** Sends a probe to [dst]; returns its sequence number. [on_reply]
      fires once with the first executed echo; [on_fail] fires once if
      all [1 + retries] transmissions time out unanswered. *)

  val outstanding : t -> int
  (** Probes still awaiting an echo or final timeout. *)

  (** Loss evidence as it happens, for telemetry: a retransmission
      fired, or a probe was abandoned. *)
  type event = Retry | Failure

  val set_observer :
    t ->
    (now:int -> event:event -> seq:int -> attempts:int -> unit) option ->
    unit
  (** Called at each retry (after the retransmission is queued) and at
      each final failure (before [on_fail]); [attempts] is the
      transmissions made so far. The streaming-telemetry layer turns
      these into [Probe_retry] / [Probe_failure] postcards. *)

  type stats = {
    probes : int;         (** {!send} calls *)
    transmissions : int;  (** frames sent, including retries *)
    replies : int;        (** probes answered (first echo only) *)
    late : int;           (** echoes after the probe was resolved *)
    failures : int;       (** probes abandoned after all retries *)
  }

  val stats : t -> stats
end
