module Stack = Tpp_endhost.Stack
module Flow = Tpp_endhost.Flow

type config = {
  report_period_ns : int;
  rtt_ns : int;
  md_factor : float;
  min_rate_bps : int;
  max_rate_bps : int;
  initial_rate_bps : int;
}

let default_config ~max_rate_bps =
  {
    report_period_ns = 40_000_000;
    rtt_ns = 40_000_000;
    md_factor = 0.5;
    min_rate_bps = 50_000;
    max_rate_bps;
    initial_rate_bps = max 50_000 (max_rate_bps / 10);
  }

type t = {
  stack : Stack.t;
  config : config;
  flow : Flow.t;
  mutable running : bool;
  mutable last_holes : int;
  mutable losses : int;
  mutable reports : int;
}

let create stack config ~flow ~report_port =
  let t =
    { stack; config; flow; running = false; last_holes = 0; losses = 0; reports = 0 }
  in
  Stack.on_udp stack ~port:report_port (fun ~now:_ frame ->
      if t.running && Tpp_isa.Frame.payload_len frame >= 8 then begin
        t.reports <- t.reports + 1;
        let holes = Tpp_isa.Frame.payload_u32 frame 0 in
        let rate = Flow.rate_bps t.flow in
        let new_rate =
          if holes > t.last_holes then begin
            t.losses <- t.losses + (holes - t.last_holes);
            int_of_float (float_of_int rate *. t.config.md_factor)
          end
          else begin
            (* Additive increase: one packet's worth of bits per RTT. *)
            let add =
              Flow.wire_pkt_bytes t.flow * 8 * 1_000_000_000 / t.config.rtt_ns
            in
            rate + add
          end
        in
        t.last_holes <- holes;
        let clamped =
          Int.max t.config.min_rate_bps (Int.min t.config.max_rate_bps new_rate)
        in
        Flow.set_rate t.flow ~rate_bps:clamped
      end);
  t

let start t =
  t.running <- true;
  Flow.set_rate t.flow ~rate_bps:t.config.initial_rate_bps

let stop t = t.running <- false

let current_rate_bps t = Flow.rate_bps t.flow
let losses_seen t = t.losses
let reports_received t = t.reports
