(** A TCP-like AIMD rate controller — the status-quo baseline the paper
    contrasts RCP with ("TCP and its variants still remain the dominant
    congestion control algorithms", §2.2).

    Rate-based additive-increase / multiplicative-decrease: the
    receiver reports its cumulative loss count (sequence holes) once
    per period; on a report showing new losses the sender halves its
    rate, otherwise it adds roughly one packet per RTT. No dataplane
    support is needed — which is exactly why it converges so much more
    slowly than RCP*, and why short flows suffer (experiment E9). *)

module Stack = Tpp_endhost.Stack
module Flow = Tpp_endhost.Flow

type config = {
  report_period_ns : int;   (** receiver report interval (~1 RTT) *)
  rtt_ns : int;
  md_factor : float;        (** rate multiplier on loss (0.5) *)
  min_rate_bps : int;
  max_rate_bps : int;
  initial_rate_bps : int;   (** slow-start stand-in: start low *)
}

val default_config : max_rate_bps:int -> config

(** The receiver side is {!Flow.Sink.report} with {!Flow.Sink.holes}
    and {!Flow.Sink.rx_payload_bytes}. *)

type t

val create : Stack.t -> config -> flow:Flow.t -> report_port:int -> t
(** Listens for loss reports on [report_port] and paces [flow]. *)

val start : t -> unit
val stop : t -> unit

val current_rate_bps : t -> int
val losses_seen : t -> int
val reports_received : t -> int
