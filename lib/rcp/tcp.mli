(** A compact TCP-Reno-style reliable transport — the paper's literal
    status quo ("TCP and its variants still remain the dominant
    congestion control algorithms", §2.2).

    Packet-granularity Reno over the simulator's UDP frames: MSS-sized
    segments, cumulative ACKs, slow start and congestion avoidance,
    fast retransmit on three duplicate ACKs, an RFC 6298-style RTO with
    exponential backoff, and ack-clocked transmission (no pacing). It
    needs nothing from the dataplane, which is the point of comparing
    it with RCP*: it discovers capacity by filling buffers and losing
    packets.

    One {!Transfer} moves [total_bytes] from a sender stack to a
    receiver; create the {!Receiver} side first. *)

module Stack = Tpp_endhost.Stack
module Net = Tpp_sim.Net

type config = {
  mss : int;                (** segment payload bytes *)
  initial_window : int;     (** IW, segments *)
  initial_ssthresh : int;   (** segments *)
  min_rto_ns : int;
  max_rto_ns : int;
}

val default_config : config
(** MSS 1000, IW 4, ssthresh 64, RTO in [200 ms, 5 s]. *)

module Receiver : sig
  type t

  val attach : Stack.t -> port:int -> t
  (** Accepts segments on [port], ACKs every arrival, reassembles
      in-order delivery. One receiver per port. *)

  val bytes_delivered : t -> int
  (** In-order bytes handed to the application so far. *)

  val out_of_order_held : t -> int
  (** Segments buffered above the reassembly point right now. *)
end

module Transfer : sig
  type t

  val start :
    ?config:config ->
    ?on_complete:(now:int -> unit) ->
    src:Stack.t ->
    dst:Net.host ->
    port:int ->
    total_bytes:int ->
    unit ->
    t

  val is_done : t -> bool
  val bytes_acked : t -> int
  val retransmits : t -> int
  val timeouts : t -> int
  val cwnd_segments : t -> float
  val srtt_ns : t -> int
  (** Smoothed RTT estimate; 0 before the first sample. *)
end
