module Time_ns = Tpp_util.Time_ns
module Stats = Tpp_util.Stats
module Engine = Tpp_sim.Engine
module Net = Tpp_sim.Net
module Topology = Tpp_sim.Topology
module Switch = Tpp_asic.Switch
module State = Tpp_asic.State
module Stack = Tpp_endhost.Stack
module Probe = Tpp_endhost.Probe
module Flow = Tpp_endhost.Flow
module Rcp_star = Tpp_endhost.Rcp_star
module Aimd = Tpp_rcp.Aimd
module Dctcp = Tpp_rcp.Dctcp

type outcome = {
  name : string;
  queue_mean : float;
  queue_p95 : float;
  goodput_bps : float;
  drops : int;
  latency_p95_ms : float;
  queue_series : Tpp_util.Series.t;
}

type result = { aimd : outcome; dctcp : outcome; rcp_star : outcome }

type controller = Aimd_cc | Dctcp_cc | Rcp_cc

let core_bps = 10_000_000
let edge_bps = 100_000_000
let flows = 3
let duration = Time_ns.sec 15
let converged_from = Time_ns.sec 5
let ecn_threshold = 30_000

let run_one controller name =
  let eng = Engine.create () in
  let bell =
    Topology.dumbbell eng ~pairs:flows ~core_bps ~edge_bps ~delay:(Time_ns.ms 2) ()
  in
  let net = bell.Topology.d_net in
  let bottleneck = Net.switch net bell.Topology.left_switch in
  Switch.set_ecn_threshold bottleneck ~port:0 (Some ecn_threshold);
  let slot =
    match controller with
    | Rcp_cc -> (
      match Rcp_star.setup_network net with
      | Ok s ->
        Net.start_utilization_updates net ~period:10_000_000 ~until:duration;
        Some s
      | Error e -> invalid_arg e)
    | Aimd_cc | Dctcp_cc -> None
  in
  let sinks =
    List.init flows (fun i ->
        let src = Stack.create net bell.Topology.senders.(i) in
        let dst_host = bell.Topology.receivers.(i) in
        let dst = Stack.create net dst_host in
        let sink = Flow.Sink.attach dst ~port:9000 in
        let flow =
          Flow.cbr ~src ~dst:dst_host ~dst_port:9000 ~payload_bytes:954
            ~rate_bps:(core_bps / 10)
        in
        (match (controller, slot) with
        | Rcp_cc, Some slot ->
          Probe.install_echo dst;
          let ctl = Rcp_star.create src (Rcp_star.default_config ~slot) ~flow ~dst:dst_host in
          Rcp_star.start ctl ()
        | Aimd_cc, _ ->
          let config = Aimd.default_config ~max_rate_bps:core_bps in
          let ctl = Aimd.create src config ~flow ~report_port:9100 in
          let _ =
            Flow.Sink.report dst sink ~report_to:bell.Topology.senders.(i) ~port:9100
              ~period:config.Aimd.report_period_ns Flow.Sink.holes
              Flow.Sink.rx_payload_bytes
          in
          Aimd.start ctl
        | Dctcp_cc, _ ->
          let config = Dctcp.default_config ~max_rate_bps:core_bps in
          let ctl = Dctcp.create src config ~flow ~report_port:9100 in
          let _ =
            Flow.Sink.report dst sink ~report_to:bell.Topology.senders.(i) ~port:9100
              ~period:config.Dctcp.report_period_ns Flow.Sink.rx_pkts
              Flow.Sink.ce_marked
          in
          Dctcp.start ctl
        | Rcp_cc, None -> assert false);
        Flow.start flow ~at:(Time_ns.ms (i * 100)) ();
        sink)
  in
  let queue = Stats.create () in
  let queue_series = Tpp_util.Series.create ~name in
  Engine.every eng ~period:(Time_ns.ms 10) ~until:duration (fun () ->
      let q = Switch.queue_bytes bottleneck ~port:0 in
      Tpp_util.Series.add queue_series ~time:(Engine.now eng) (float_of_int q);
      if Engine.now eng >= converged_from then Stats.add queue (float_of_int q));
  Engine.run eng ~until:duration;
  let goodput =
    List.fold_left (fun acc s -> acc + Flow.Sink.rx_bytes s) 0 sinks
    |> fun bytes -> float_of_int bytes *. 8.0 /. Time_ns.to_sec_f duration
  in
  {
    name;
    queue_mean = Stats.mean queue;
    queue_p95 = Stats.percentile queue 95.0;
    goodput_bps = goodput;
    drops = State.port_stat (Switch.state bottleneck) ~port:0 Tpp_isa.Vaddr.Port_stat.Drops;
    latency_p95_ms =
      (match sinks with
      | s :: _ -> Stats.percentile (Flow.Sink.latency s) 95.0 /. 1e6
      | [] -> 0.0);
    queue_series;
  }

let run () =
  {
    aimd = run_one Aimd_cc "AIMD (loss only)";
    dctcp = run_one Dctcp_cc "DCTCP (ECN bit)";
    rcp_star = run_one Rcp_cc "RCP* (TPP registers)";
  }
