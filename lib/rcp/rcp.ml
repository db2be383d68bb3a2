module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Switch = Tpp_asic.Switch
module State = Tpp_asic.State
module Flow = Tpp_endhost.Flow

type config = {
  period_ns : int;
  rtt_ns : int;
  alpha : float;
  beta : float;
  min_rate_bps : int;
}

let default_config =
  { period_ns = 10_000_000; rtt_ns = 50_000_000; alpha = 0.5; beta = 1.0;
    min_rate_bps = 50_000 }

module Router = struct
  type t = {
    config : config;
    port : State.Port.t;
    mutable rate : float;          (* bps *)
    mutable last_offered : int;    (* cumulative bytes at last update *)
  }

  let update t =
    let c = float_of_int t.port.State.Port.capacity_bps in
    if c > 0.0 then begin
      let offered = t.port.State.Port.offered_bytes in
      let y =
        float_of_int (offered - t.last_offered)
        *. 8.0 /. (float_of_int t.config.period_ns /. 1e9)
      in
      t.last_offered <- offered;
      let q = float_of_int t.port.State.Port.queue_bytes in
      let d = float_of_int t.config.rtt_ns /. 1e9 in
      let t_over_d = float_of_int t.config.period_ns /. float_of_int t.config.rtt_ns in
      let feedback = ((t.config.alpha *. (y -. c)) +. (t.config.beta *. q *. 8.0 /. d)) /. c in
      let r_new = t.rate *. (1.0 -. (t_over_d *. feedback)) in
      t.rate <- Float.max (float_of_int t.config.min_rate_bps) (Float.min c r_new)
    end

  let attach net config ~switch_node ~port =
    let sw = Net.switch net switch_node in
    let p = State.port (Switch.state sw) port in
    let t =
      { config; port = p; rate = float_of_int p.State.Port.capacity_bps;
        last_offered = p.State.Port.offered_bytes }
    in
    let eng = Net.engine net in
    Engine.every eng ~period:config.period_ns ~until:max_int (fun () -> update t);
    t

  let rate_bps t = t.rate
  let capacity_bps t = t.port.State.Port.capacity_bps
end

module Controller = struct
  type t = { config : config; flow : Flow.t; path : Router.t list; loop : Engine.Loop.t }

  let create net config ~flow ~path =
    if path = [] then invalid_arg "Rcp.Controller.create: empty path";
    { config; flow; path; loop = Engine.Loop.create (Net.engine net) }

  let tick t () =
    let r =
      List.fold_left (fun acc router -> Float.min acc (Router.rate_bps router))
        infinity t.path
    in
    Flow.set_rate t.flow ~rate_bps:(Int.max t.config.min_rate_bps (int_of_float r));
    t.config.period_ns

  let start t ?at () = Engine.Loop.start t.loop ?at (tick t)
  let stop t = Engine.Loop.stop t.loop
  let current_rate_bps t = Flow.rate_bps t.flow
end
