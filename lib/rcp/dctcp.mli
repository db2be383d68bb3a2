(** A DCTCP-style controller over fixed-function ECN — the second
    status-quo baseline.

    The paper's §4 names ECN as the archetypal baked-in dataplane
    feature ("a router stamps a bit ... whenever the egress queue
    occupancy exceeds a configurable threshold"); DCTCP is the best
    practice built on it. The receiver reports the cumulative count of
    CE-marked packets each period; the sender keeps an EWMA [alpha] of
    the marked fraction and scales its rate by [1 - alpha/2] per marked
    window, increasing additively otherwise.

    Compared in experiment E11 against RCP*: ECN delivers one bit of
    congestion information per packet, a TPP delivers the whole queue
    register — which is exactly the paper's generality argument. *)

module Stack = Tpp_endhost.Stack
module Flow = Tpp_endhost.Flow

type config = {
  report_period_ns : int;
  rtt_ns : int;
  gain : float;             (** EWMA gain g (1/16) *)
  min_rate_bps : int;
  max_rate_bps : int;
  initial_rate_bps : int;
}

val default_config : max_rate_bps:int -> config

(** The receiver side is {!Flow.Sink.report} with {!Flow.Sink.rx_pkts}
    and {!Flow.Sink.ce_marked}. *)

val u32_delta : last:int -> cur:int -> int
(** Wrap-aware u32 subtraction: [(cur - last) mod 2^32]. Receiver
    reports carry cumulative counters as u32, which wrap after 2^32
    packets. *)

type t

val create : Stack.t -> config -> flow:Flow.t -> report_port:int -> t
val start : t -> unit
val stop : t -> unit

val current_rate_bps : t -> int
val alpha : t -> float
(** The smoothed marked fraction. *)

val marked_seen : t -> int
