(** TPP probe round-trips.

    The paper's measurement pattern (§2.2 phase 1): a sender attaches a
    TPP to a probe datagram; switches execute it on the way; "the
    receiver simply echoes a fully executed TPP back to the sender". The
    echo carries the executed TPP section as plain UDP payload — not as
    a live TPP — so it is not executed again on the return path. *)

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

val decode_echo : bytes -> (int * Tpp.t) option
(** Decodes an echo payload into (sequence number, executed TPP);
    building block for custom reply handling (e.g. piggybacked echoes
    demultiplexed by the data flow's port). *)

val install_reply_handler :
  Stack.t -> (now:int -> seq:int -> Tpp.t -> unit) -> unit
(** Calls back with the executed TPP from each echo. Handlers
    accumulate: every registered handler sees every echo, so concurrent
    controllers on one host must partition the sequence-number space
    (each built-in controller takes a block from {!alloc_seq_block}). *)

val seq_block : int
(** Sequence numbers per block (2^20). *)

val alloc_seq_block : Stack.t -> int
(** First sequence number of a fresh block of [seq_block] echo seqs,
    disjoint from every other block taken on this host. Seqs below
    [seq_block] are never handed out, so they stay free for callers of
    {!send}. Raises [Failure] when the host has used all 4095 blocks
    the u32 echo seq leaves room for. *)

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
