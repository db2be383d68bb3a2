module Stack = Tpp_endhost.Stack
module Flow = Tpp_endhost.Flow

type config = {
  report_period_ns : int;
  rtt_ns : int;
  gain : float;
  min_rate_bps : int;
  max_rate_bps : int;
  initial_rate_bps : int;
}

let default_config ~max_rate_bps =
  {
    report_period_ns = 40_000_000;
    rtt_ns = 40_000_000;
    gain = 1.0 /. 16.0;
    min_rate_bps = 50_000;
    max_rate_bps;
    initial_rate_bps = max 50_000 (max_rate_bps / 10);
  }

(* Receiver counters ride the wire as u32, so a long-lived flow wraps
   them after 2^32 packets; deltas must be computed modulo 2^32 or the
   [d_total > 0] guard below freezes the rate forever once [total]
   wraps below [last_total]. *)
let u32_delta ~last ~cur = (cur - last) land 0xFFFF_FFFF

type t = {
  stack : Stack.t;
  config : config;
  flow : Flow.t;
  mutable running : bool;
  mutable last_total : int;
  mutable last_marked : int;
  mutable alpha : float;
  mutable marked : int;
}

let create stack config ~flow ~report_port =
  let t =
    { stack; config; flow; running = false; last_total = 0; last_marked = 0;
      alpha = 0.0; marked = 0 }
  in
  Stack.on_udp stack ~port:report_port (fun ~now:_ frame ->
      if t.running && Tpp_isa.Frame.payload_len frame >= 8 then begin
        let total = Tpp_isa.Frame.payload_u32 frame 0 in
        let marked = Tpp_isa.Frame.payload_u32 frame 4 in
        let d_total = u32_delta ~last:t.last_total ~cur:total in
        let d_marked = u32_delta ~last:t.last_marked ~cur:marked in
        t.last_total <- total;
        t.last_marked <- marked;
        if d_total > 0 then begin
          t.marked <- t.marked + d_marked;
          let fraction = float_of_int d_marked /. float_of_int d_total in
          t.alpha <- ((1.0 -. t.config.gain) *. t.alpha) +. (t.config.gain *. fraction);
          let rate = Flow.rate_bps t.flow in
          let new_rate =
            if d_marked > 0 then
              int_of_float (float_of_int rate *. (1.0 -. (t.alpha /. 2.0)))
            else
              rate + (Flow.wire_pkt_bytes t.flow * 8 * 1_000_000_000 / t.config.rtt_ns)
          in
          Flow.set_rate t.flow
            ~rate_bps:(Int.max t.config.min_rate_bps (Int.min t.config.max_rate_bps new_rate))
        end
      end);
  t

let start t =
  t.running <- true;
  Flow.set_rate t.flow ~rate_bps:t.config.initial_rate_bps

let stop t = t.running <- false

let current_rate_bps t = Flow.rate_bps t.flow
let alpha t = t.alpha
let marked_seen t = t.marked
