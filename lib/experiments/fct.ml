module Time_ns = Tpp_util.Time_ns
module Rng = Tpp_util.Rng
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

module Frame = Tpp_isa.Frame
module Fault = Tpp_sim.Fault
module Parsim = Tpp_parsim.Parsim
module Tcp = Tpp_rcp.Tcp
module Dctcp = Tpp_rcp.Dctcp
module Ndp = Tpp_rcp.Ndp
module Tpp_lb = Tpp_rcp.Tpp_lb

(* One flow-completion harness. A pre-drawn Poisson/Pareto workload
   crosses a topology — a k-ary fat-tree or E9's dumbbell — under one
   transport: RCP* (TPP-driven), TCP Reno, DCTCP, NDP (pull/trim,
   receiver-driven), plain AIMD, or TPP-LB (the same AIMD plus
   CONGA-style flowlet steering from TPP path probes). [attach] sets up
   any replica, sequential or one shard's ([Parsim]), and [merge] folds
   their parts: sequential and sharded outcomes must be bit-identical. *)

type transport = Rcp_star_t | Tcp_t | Dctcp_t | Ndp_t | Tpp_lb_t | Aimd_t

let transport_name = function
  | Rcp_star_t -> "rcp_star"
  | Tcp_t -> "tcp"
  | Dctcp_t -> "dctcp"
  | Ndp_t -> "ndp"
  | Tpp_lb_t -> "tpp_lb"
  | Aimd_t -> "aimd"

let all_transports = [ Rcp_star_t; Tcp_t; Dctcp_t; Ndp_t; Tpp_lb_t ]

type topo = Fat_tree of int | Dumbbell of { pairs : int; core_bps : int }

type fabric_params = {
  f_topo : topo;
  f_bps : int;
  f_delay_ns : int;
  f_load : float;
  f_mean_bytes : float;
  f_shape : float;
  f_payload : int;
  f_duration : int;
  f_seed : int;
  f_short_bytes : int;
  f_chaos_drop : float;
  f_max_bytes : int;
}

let fabric_default =
  {
    f_topo = Fat_tree 4;
    f_bps = 200_000_000;
    f_delay_ns = Time_ns.us 5;
    f_load = 0.6;
    f_mean_bytes = 30_000.0;
    f_shape = 1.6;
    f_payload = 1000;
    f_duration = Time_ns.ms 300;
    f_seed = 11;
    f_short_bytes = 20_000;
    f_chaos_drop = 0.0;
    f_max_bytes = max_int;
  }

(* E9: 4 pairs across a 10 Mb/s core; load 0.384 of the core is 8
   arrivals/s of 60 kB flows. *)
let dumbbell_default =
  {
    f_topo = Dumbbell { pairs = 4; core_bps = 10_000_000 };
    f_bps = 100_000_000;
    f_delay_ns = Time_ns.ms 5;
    f_load = 0.384;
    f_mean_bytes = 60_000.0;
    f_shape = 1.5;
    f_payload = 1000;
    f_duration = Time_ns.sec 30;
    f_seed = 7;
    f_short_bytes = 50_000;
    f_chaos_drop = 0.0;
    f_max_bytes = max_int;
  }

(* What the topology decides, so no parameter has to: which hosts draw
   arrivals (hosts [0, sources) after sorting by node id; each sends to
   the host halfway round) and at what rate, the line rate one flow can
   reach (initial and maximum controller rates, NDP pull pacing), and
   the control timing. *)
type layout = {
  build : Engine.t -> Net.t;
  sources : int;
  source_bps : int;     (* offered load is a fraction of this, per source *)
  line_bps : int;
  probe_period : int;   (* RCP* and TPP-LB probes *)
  ctl_rtt : int;        (* controller RTT and receiver report period *)
  util_period : int;    (* switch utilisation register updates *)
}

let layout p =
  match p.f_topo with
  | Fat_tree k ->
    {
      build =
        (fun eng ->
          (Topology.fat_tree eng ~k ~bps:p.f_bps ~delay:p.f_delay_ns ())
            .Topology.f_net);
      sources = k * k * k / 4;
      source_bps = p.f_bps;
      line_bps = p.f_bps;
      probe_period = Time_ns.us 200;
      ctl_rtt = Time_ns.us 200;
      util_period = Time_ns.us 100;
    }
  | Dumbbell { pairs; core_bps } ->
    (* Senders sort before receivers, so sender i sends to receiver i.
       A 25 ms probe period keeps aggregate probe load under ~5% of the
       core. *)
    {
      build =
        (fun eng ->
          (Topology.dumbbell eng ~pairs ~core_bps ~edge_bps:p.f_bps
             ~delay:p.f_delay_ns ())
            .Topology.d_net);
      sources = pairs;
      source_bps = core_bps / pairs;
      line_bps = core_bps;
      probe_period = Time_ns.ms 25;
      ctl_rtt = Time_ns.ms 40;
      util_period = Time_ns.ms 10;
    }

type fabric_outcome = {
  fo_transport : transport;
  fo_started : int;
  fo_completed : int;
  fo_samples : (int * int) list;  (* (flow bytes, fct ns), sorted *)
  fo_drops : int;   (* switch-port drops, owned switches summed *)
  fo_trims : int;   (* trim-to-header events (NDP runs) *)
  fo_events : int;  (* engine events, all shards *)
  fo_ok : bool;     (* transport invariants held (NDP state machine) *)
}

let fingerprint o =
  o.fo_started :: o.fo_completed :: o.fo_drops :: o.fo_trims
  :: List.concat_map (fun (a, b) -> [ a; b ]) o.fo_samples

type fct_summary = {
  fs_n : int;
  fs_mean_ns : float;
  fs_p50_ns : int;
  fs_p99_ns : int;
}

let summarize samples =
  let fcts = List.sort Int.compare (List.map snd samples) in
  let n = List.length fcts in
  if n = 0 then { fs_n = 0; fs_mean_ns = 0.0; fs_p50_ns = 0; fs_p99_ns = 0 }
  else begin
    let arr = Array.of_list fcts in
    let pct q =
      arr.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))
    in
    let sum = Array.fold_left (fun a v -> a +. float_of_int v) 0.0 arr in
    {
      fs_n = n;
      fs_mean_ns = sum /. float_of_int n;
      fs_p50_ns = pct 0.5;
      fs_p99_ns = pct 0.99;
    }
  end

let short_long o ~threshold =
  let part keep = summarize (List.filter (fun (size, _) -> keep size) o.fo_samples) in
  (part (fun size -> size <= threshold), part (fun size -> size > threshold))

(* The workload is drawn once, before any engine exists, so every
   transport (and every shard replica) sees the same flows. Sizes are
   rounded up to whole packets so completion detection can distinguish
   full-size data packets from tiny control datagrams sharing a port. *)
let fabric_schedule p l =
  let mix = Workload.Pareto { shape = p.f_shape; mean_bytes = p.f_mean_bytes } in
  Workload.validate mix;
  let rng = Rng.create ~seed:p.f_seed in
  let per_host =
    Workload.arrival_rate ~load:p.f_load ~link_bps:l.source_bps ~mix
  in
  (* Stop arrivals at 70% of the horizon so the tail can drain. *)
  let window = Time_ns.to_sec_f p.f_duration *. 0.7 in
  let flows = ref [] in
  for i = 0 to l.sources - 1 do
    let rec go now =
      let now = now +. Workload.exp_gap rng ~rate:per_host in
      if now < window then begin
        let size = max p.f_payload (Workload.sample_bytes rng mix) in
        (* [f_max_bytes] truncates the Pareto tail for runs whose gate
           is completion (chaos recovery): an unbounded draw can exceed
           what any transport can finish inside the drain window, which
           would conflate scheduling with loss. *)
        let size = min size p.f_max_bytes in
        let size = (size + p.f_payload - 1) / p.f_payload * p.f_payload in
        flows := (Time_ns.of_sec_f now, i, size) :: !flows;
        go now
      end
    in
    go 0.0
  done;
  List.sort compare !flows

(* Outcome state lives in this closure's refs: each replica keeps its
   own. *)
let attach transport p ~owns net =
  let l = layout p in
  let sched = fabric_schedule p l in
  let init_rate = max 100_000 (l.line_bps / 10) in
  let ndp_config =
    {
      Ndp.default_config with
      Ndp.payload_bytes = p.f_payload;
      (* generous stall timer: trims (not stalls) drive loss recovery,
         so this only matters for outright chaos drops — and a jumpy
         timer floods the control plane with stale NACKs *)
      rtx_timeout_ns = Time_ns.ms 2;
      nack_burst = 4;
      (* one pull per data-packet serialization time on the access link
         (42 wire-header bytes + NDP header + payload), with a 35%
         margin so queues drain and new messages' sprays fit in the
         headroom the pacer leaves *)
      pull_gap_ns =
        (42 + Ndp.header_bytes + p.f_payload) * 8 * 1_000_000_000 / l.line_bps
        * 135 / 100;
    }
  in
  let started = ref 0 and samples = ref [] in
  let eng = Net.engine net in
  let hosts =
    Array.of_list
      (List.sort (fun a b -> Int.compare a.Net.node_id b.Net.node_id) (Net.hosts net))
  in
  let n = Array.length hosts in
  let stacks = Array.map (Stack.create net) hosts in
  (* Fabric-wide switch configuration is engine-free and applied on
     every replica, exactly as a sequential run would. *)
  (match transport with
  | Ndp_t -> Ndp.enable_network net ndp_config
  | Dctcp_t ->
    List.iter
      (fun (_, sw) ->
        for port = 0 to Switch.num_ports sw - 1 do
          Switch.set_ecn_threshold sw ~port (Some 15_000)
        done)
      (Net.switches net)
  | Rcp_star_t | Tcp_t | Tpp_lb_t | Aimd_t -> ());
  if p.f_chaos_drop > 0.0 then begin
    let f = Fault.create ~seed:(p.f_seed + 31) in
    (* The loss episode covers the whole arrival window but ends with
       it: the drain tail is clean. Stall detection alone costs up to
       2x the rtx timeout, so a drop landing within a few ms of the
       horizon is unrecoverable by construction — with loss active to
       the last nanosecond, "every started flow completes" would be
       unachievable for any transport rather than a recovery gate. *)
    let chaos_until =
      Time_ns.of_sec_f (Time_ns.to_sec_f p.f_duration *. 0.7)
    in
    Array.iter
      (fun h ->
        Fault.lossy f ~from_:0 ~until_:chaos_until ~drop:p.f_chaos_drop
          (h.Net.node_id, 0))
      hosts;
    Fault.attach f net
  end;
  let slot =
    match transport with
    | Rcp_star_t -> (
      Array.iter Probe.install_echo stacks;
      Net.start_utilization_updates net ~period:l.util_period
        ~until:p.f_duration;
      match Rcp_star.setup_network net with
      | Ok s -> s
      | Error e -> invalid_arg ("Fct.attach: " ^ e))
    | _ -> -1
  in
  let record size fct = samples := (size, fct) :: !samples in
  let eps =
    match transport with
    | Ndp_t ->
      let eps =
        Array.map (fun st -> Ndp.create ~config:ndp_config st ~port:9000) stacks
      in
      Array.iter
        (fun ep ->
          Ndp.set_on_complete ep (fun ~now ~src:_ ~bytes ~start_ns ->
              record bytes (now - start_ns)))
        eps;
      eps
    | _ -> [||]
  in
  let launch idx (at, src_i, size) =
    let src_h = hosts.(src_i) in
    let dst_i = (src_i + (n / 2)) mod n in
    let dst_h = hosts.(dst_i) in
    let data_port = 10_000 + (4 * idx) in
    let report_port = data_port + 1 in
    let send_done () =
      Stack.send_udp stacks.(dst_i) ~dst:src_h ~src_port:report_port
        ~dst_port:report_port ~payload:(Bytes.make 4 '\000') ()
    in
    match transport with
    | Ndp_t ->
      if owns src_h.Net.node_id then
        Engine.at eng at (fun () ->
            incr started;
            ignore (Ndp.send eps.(src_i) ~dst:dst_h ~bytes:size))
    | Tcp_t ->
      if owns dst_h.Net.node_id then
        Engine.at eng at (fun () ->
            ignore (Tcp.Receiver.attach stacks.(dst_i) ~port:data_port));
      if owns src_h.Net.node_id then
        Engine.at eng at (fun () ->
            incr started;
            ignore
              (Tcp.Transfer.start ~src:stacks.(src_i) ~dst:dst_h
                 ~port:data_port ~total_bytes:size
                 ~on_complete:(fun ~now -> record size (now - at))
                 ()))
    | Rcp_star_t | Dctcp_t | Tpp_lb_t | Aimd_t ->
      if owns src_h.Net.node_id then
        Engine.at eng at (fun () ->
            incr started;
            let flow =
              Flow.transfer ~src:stacks.(src_i) ~dst:dst_h
                ~dst_port:data_port ~payload_bytes:p.f_payload
                ~rate_bps:init_rate ~total_bytes:size
            in
            let stop_ctl =
              match transport with
              | Rcp_star_t ->
                let config =
                  { (Rcp_star.default_config ~slot) with
                    Rcp_star.period_ns = l.probe_period;
                    rtt_ns = l.ctl_rtt;
                    max_hops = 8 }
                in
                let ctl =
                  Rcp_star.create stacks.(src_i) config ~flow ~dst:dst_h
                in
                Rcp_star.start ctl ();
                fun () -> Rcp_star.stop ctl
              | Dctcp_t ->
                let config =
                  { (Dctcp.default_config ~max_rate_bps:l.line_bps) with
                    Dctcp.report_period_ns = l.ctl_rtt;
                    rtt_ns = l.ctl_rtt;
                    initial_rate_bps = init_rate }
                in
                let ctl = Dctcp.create stacks.(src_i) config ~flow ~report_port in
                Dctcp.start ctl;
                fun () -> Dctcp.stop ctl
              | Aimd_t | Tpp_lb_t | Tcp_t | Ndp_t ->
                let config =
                  { (Aimd.default_config ~max_rate_bps:l.line_bps) with
                    Aimd.report_period_ns = l.ctl_rtt;
                    rtt_ns = l.ctl_rtt;
                    initial_rate_bps = init_rate }
                in
                let ctl = Aimd.create stacks.(src_i) config ~flow ~report_port in
                let lb =
                  if transport <> Tpp_lb_t then None
                  else
                    Some
                      (Tpp_lb.create
                         ~config:
                           { Tpp_lb.default_config with
                             Tpp_lb.probe_period_ns = l.probe_period;
                             flowlet_gap_ns = Time_ns.us 100 }
                         stacks.(src_i) ~flow ~dst:dst_h)
                in
                Aimd.start ctl;
                Option.iter (fun lb -> Tpp_lb.start lb ()) lb;
                fun () ->
                  Aimd.stop ctl;
                  Option.iter Tpp_lb.stop lb
            in
            (* The receiver signals completion with a 4-byte datagram
               (too short for any report parser); registered after the
               controller so [on_udp_add] stacks onto its handler. *)
            let stopped = ref false in
            Stack.on_udp_add stacks.(src_i) ~port:report_port
              (fun ~now:_ frame ->
                if Frame.payload_len frame = 4 && not !stopped then begin
                  stopped := true;
                  Flow.stop flow;
                  stop_ctl ()
                end);
            Flow.start flow ());
      if owns dst_h.Net.node_id then
        Engine.at eng at (fun () ->
            match transport with
            | Tpp_lb_t ->
              (* Probes share the data port, so completion counts only
                 full-size data payloads through an added handler; the
                 sink still feeds the loss reports. *)
              let sink = Flow.Sink.attach stacks.(dst_i) ~port:data_port in
              Probe.install_echo_on_port stacks.(dst_i) ~port:data_port;
              let recv =
                Flow.Sink.report stacks.(dst_i) sink ~report_to:src_h
                  ~port:report_port ~period:l.ctl_rtt Flow.Sink.holes
                  Flow.Sink.rx_payload_bytes
              in
              let got = ref 0 in
              let finished = ref false in
              Stack.on_udp_add stacks.(dst_i) ~port:data_port
                (fun ~now frame ->
                  let pl = Frame.payload_len frame in
                  if pl >= p.f_payload && not !finished then begin
                    got := !got + pl;
                    if !got >= size then begin
                      finished := true;
                      record size (now - at);
                      Engine.Loop.stop recv;
                      send_done ()
                    end
                  end)
            | Rcp_star_t | Dctcp_t | Aimd_t ->
              let finished = ref false in
              let sink = ref None in
              let stop_rx = ref (fun () -> ()) in
              let tap ~now =
                match !sink with
                | Some s
                  when (not !finished)
                       && Flow.Sink.rx_payload_bytes s >= size ->
                  finished := true;
                  record size (now - at);
                  !stop_rx ();
                  send_done ()
                | _ -> ()
              in
              let sink_t = Flow.Sink.attach ~tap stacks.(dst_i) ~port:data_port in
              sink := Some sink_t;
              let report first second =
                let recv =
                  Flow.Sink.report stacks.(dst_i) sink_t ~report_to:src_h
                    ~port:report_port ~period:l.ctl_rtt first second
                in
                stop_rx := fun () -> Engine.Loop.stop recv
              in
              (match transport with
              | Dctcp_t -> report Flow.Sink.rx_pkts Flow.Sink.ce_marked
              | Aimd_t -> report Flow.Sink.holes Flow.Sink.rx_payload_bytes
              | _ -> ())
            | Tcp_t | Ndp_t -> ())
  in
  List.iteri launch sched;
  fun () ->
    let drops = ref 0 in
    let trims = ref 0 in
    List.iter
      (fun (id, sw) ->
        if owns id then begin
          trims := !trims + Switch.trims sw;
          for port = 0 to Switch.num_ports sw - 1 do
            drops :=
              !drops
              + State.port_stat (Switch.state sw) ~port
                  Tpp_isa.Vaddr.Port_stat.Drops
          done
        end)
      (Net.switches net);
    let ok = ref true in
    Array.iteri
      (fun i ep ->
        if owns hosts.(i).Net.node_id then
          ok := !ok && Ndp.invariants_ok ep && Ndp.fold_rx_credit ep)
      eps;
    {
      fo_transport = transport;
      fo_started = !started;
      fo_completed = List.length !samples;
      fo_samples = List.sort compare !samples;
      fo_drops = !drops;
      fo_trims = !trims;
      fo_events = Engine.events_processed eng;
      fo_ok = !ok;
    }

let merge parts =
  let sum f = List.fold_left (fun a o -> a + f o) 0 parts in
  let samples = List.sort compare (List.concat_map (fun o -> o.fo_samples) parts) in
  {
    fo_transport = (List.hd parts).fo_transport;
    fo_started = sum (fun o -> o.fo_started);
    fo_completed = List.length samples;
    fo_samples = samples;
    fo_drops = sum (fun o -> o.fo_drops);
    fo_trims = sum (fun o -> o.fo_trims);
    fo_events = sum (fun o -> o.fo_events);
    fo_ok = List.for_all (fun o -> o.fo_ok) parts;
  }

let build p = (layout p).build

let fabric_run ?(shards = 1) transport p =
  let readers = Array.make shards (fun () -> assert false) in
  let _stats, parts =
    Parsim.run ~shards ~until:p.f_duration ~build:(build p)
      ~setup:(fun ~shard ~owns net -> readers.(shard) <- attach transport p ~owns net)
      ~collect:(fun ~shard ~owns:_ _ -> readers.(shard) ())
      ()
  in
  merge (Array.to_list parts)
