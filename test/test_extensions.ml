(* Tests for the extension features: fat-tree fabrics, TPP piggybacking
   on data flows, finite transfers, the AIMD baseline and the FCT
   workload. *)

open Tpp

let check = Alcotest.check
let mbps x = x * 1_000_000

(* --- fat-tree -------------------------------------------------------------- *)

let test_fat_tree_shape () =
  let eng = Engine.create () in
  let ft = Topology.fat_tree eng ~k:4 ~bps:(mbps 100) ~delay:(Time_ns.us 10) () in
  check Alcotest.int "cores" 4 (Array.length ft.Topology.core_ids);
  check Alcotest.int "pods" 4 (Array.length ft.Topology.agg_ids);
  check Alcotest.int "hosts" 16 (Array.length ft.Topology.f_hosts);
  check Alcotest.int "switch count" 20 (List.length (Net.switches ft.Topology.f_net))

let path_hops net src dst =
  (* Count switches on the intended path. *)
  List.length (Verify.control_path net ~src ~dst)

let test_fat_tree_path_lengths () =
  let eng = Engine.create () in
  let ft = Topology.fat_tree eng ~k:4 ~bps:(mbps 100) ~delay:(Time_ns.us 10) () in
  let net = ft.Topology.f_net in
  let host = ft.Topology.f_hosts in
  (* Same edge: hosts 0 and 1. Same pod: 0 and 2 (different edges).
     Cross pod: 0 and 15. *)
  check Alcotest.int "same edge: 1 switch" 1 (path_hops net host.(0) host.(1));
  check Alcotest.int "same pod: 3 switches" 3 (path_hops net host.(0) host.(2));
  check Alcotest.int "cross pod: 5 switches" 5 (path_hops net host.(0) host.(15))

let test_fat_tree_end_to_end () =
  let eng = Engine.create () in
  let ft = Topology.fat_tree eng ~k:4 ~bps:(mbps 100) ~delay:(Time_ns.us 10) () in
  let net = ft.Topology.f_net in
  let src = ft.Topology.f_hosts.(0) and dst = ft.Topology.f_hosts.(15) in
  let hops = ref 0 in
  dst.Net.receive <- (fun ~now:_ frame ->
      match frame.Frame.tpp with Some t -> hops := t.Prog.hop | None -> ());
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:64 "PUSH [Switch:SwitchID]\n") in
  let frame =
    Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip
      ~dst_ip:dst.Net.ip ~src_port:1 ~dst_port:2 ~tpp ~payload:Bytes.empty ()
  in
  Net.host_send net src frame;
  Engine.run eng ~until:(Time_ns.ms 100);
  check Alcotest.int "TPP executed on all 5 switches" 5 !hops

let test_fat_tree_all_pairs_reachable () =
  let eng = Engine.create () in
  let ft = Topology.fat_tree eng ~k:4 ~bps:(mbps 100) ~delay:(Time_ns.us 10) () in
  let net = ft.Topology.f_net in
  let hosts = ft.Topology.f_hosts in
  let received = ref 0 in
  Array.iter
    (fun h ->
      h.Net.receive <- (fun ~now:_ _ -> incr received))
    hosts;
  let sent = ref 0 in
  Array.iteri
    (fun i src ->
      let dst = hosts.((i + 5) mod Array.length hosts) in
      incr sent;
      let frame =
        Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip
          ~dst_ip:dst.Net.ip ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ()
      in
      Net.host_send net src frame)
    hosts;
  Engine.run eng ~until:(Time_ns.ms 100);
  check Alcotest.int "every pair delivered" !sent !received

let test_fat_tree_rejects_odd_k () =
  let eng = Engine.create () in
  Alcotest.check_raises "odd k"
    (Invalid_argument "Topology.fat_tree: k must be even, >= 2") (fun () ->
      ignore (Topology.fat_tree eng ~k:3 ~bps:1000 ~delay:0 ()))

(* --- ECMP ------------------------------------------------------------------- *)

let test_select_path () =
  let ports = [| 3; 5; 9 |] in
  check Alcotest.int "mod" 5 (Tables.select_path ports ~key:7);
  check Alcotest.int "wraps" 3 (Tables.select_path ports ~key:9);
  Alcotest.check_raises "empty" (Invalid_argument "Tables.select_path: no ports")
    (fun () -> ignore (Tables.select_path [||] ~key:0))

let test_flow_hash_stable_and_spreading () =
  let h = Frame.flow_hash_values ~src:1 ~dst:2 ~proto:17 ~src_port:10 ~dst_port:20 in
  let h' = Frame.flow_hash_values ~src:1 ~dst:2 ~proto:17 ~src_port:10 ~dst_port:20 in
  check Alcotest.int "deterministic" h h';
  check Alcotest.bool "non-negative" true (h >= 0);
  (* Consecutive ports should not all land in the same 2-way group. *)
  let groups =
    List.init 16 (fun i ->
        Frame.flow_hash_values ~src:1 ~dst:2 ~proto:17 ~src_port:(1000 + i)
          ~dst_port:20
        mod 2)
  in
  check Alcotest.bool "both groups used" true
    (List.mem 0 groups && List.mem 1 groups)

let test_multipath_pins_flows () =
  let sw = Switch.create ~id:1 ~num_ports:4 () in
  let dst = Ipv4.Addr.of_host_id 2 in
  Switch.install_multipath_route sw (Ipv4.Prefix.host dst) ~ports:[ 1; 2 ]
    ~entry_id:1 ~version:1;
  let frame ~src_port =
    Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
      ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:dst ~src_port ~dst_port:9
      ~payload:Bytes.empty ()
  in
  let out ~src_port =
    match Switch.handle_ingress sw ~now:0 ~in_port:0 (frame ~src_port) with
    | Switch.Queued [ p ] -> p
    | _ -> Alcotest.fail "not forwarded"
  in
  (* Same 5-tuple always takes the same port. *)
  let first = out ~src_port:42 in
  for _ = 1 to 5 do
    check Alcotest.int "pinned" first (out ~src_port:42)
  done;
  (* Across many flows, both ports get used. *)
  let ports = List.init 32 (fun i -> out ~src_port:(100 + i)) in
  check Alcotest.bool "spread across group" true
    (List.mem 1 ports && List.mem 2 ports);
  match Switch.route_action sw dst with
  | Some (Tables.Multipath [| 1; 2 |]) -> ()
  | _ -> Alcotest.fail "route_action should expose the ECMP group"

let test_ecmp_diamond_uses_both_paths () =
  let eng = Engine.create () in
  let dia =
    Topology.diamond eng ~hosts_per_side:1 ~bps:(mbps 100) ~delay:(Time_ns.us 10) ()
  in
  let net = dia.Topology.m_net in
  (* Re-install with ECMP on top of the default routes. *)
  Topology.install_routes ~ecmp:true net;
  let src = dia.Topology.src_hosts.(0) and dst = dia.Topology.dst_hosts.(0) in
  for i = 1 to 40 do
    let frame =
      Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip
        ~dst_ip:dst.Net.ip ~src_port:(5000 + i) ~dst_port:9 ~payload:Bytes.empty ()
    in
    Net.host_send net src frame
  done;
  Engine.run eng ~until:(Time_ns.ms 100);
  let seen node = (Switch.state (Net.switch net node)).Tpp_asic.State.packets_seen in
  check Alcotest.bool "upper path used" true (seen dia.Topology.upper > 0);
  check Alcotest.bool "lower path used" true (seen dia.Topology.lower > 0);
  check Alcotest.int "nothing lost" 40 (seen dia.Topology.upper + seen dia.Topology.lower)

let test_control_route_predicts_ecmp_paths () =
  let eng = Engine.create () in
  let ft = Topology.fat_tree eng ~k:4 ~bps:(mbps 100) ~delay:(Time_ns.us 10) () in
  let net = ft.Topology.f_net in
  let hosts = ft.Topology.f_hosts in
  let results = ref [] in
  Array.iteri
    (fun i h ->
      h.Net.receive <- (fun ~now:_ frame ->
          match frame.Frame.tpp with
          | Some tpp -> results := (i, Trace.parse tpp) :: !results
          | None -> ()))
    hosts;
  let pairs = List.init 10 (fun i -> (i, (i + 7) mod 16)) in
  List.iter
    (fun (s, d) ->
      let frame =
        Frame.udp_frame ~src_mac:hosts.(s).Net.mac ~dst_mac:hosts.(d).Net.mac
          ~src_ip:hosts.(s).Net.ip ~dst_ip:hosts.(d).Net.ip ~src_port:(6000 + s)
          ~dst_port:6100 ~payload:Bytes.empty ()
      in
      Net.host_send net hosts.(s) (Trace.attach frame ~max_hops:6))
    pairs;
  Engine.run eng ~until:(Time_ns.ms 100);
  check Alcotest.int "all arrived" (List.length pairs) (List.length !results);
  List.iter
    (fun (s, d) ->
      let trace = List.assoc d !results in
      let expected =
        Verify.control_route ~src_port:(6000 + s) ~dst_port:6100 net ~src:hosts.(s)
          ~dst:hosts.(d)
      in
      check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        (Printf.sprintf "exact (switch, port) prediction for %d->%d" s d)
        expected
        (List.map (fun h -> (h.Trace.switch_id, h.Trace.out_port)) trace))
    pairs

(* --- piggybacked TPPs -------------------------------------------------------- *)

let two_hosts () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:2 ~hosts_per_switch:1 ~bps:(mbps 100)
      ~delay:(Time_ns.us 100) ()
  in
  (eng, chain.Topology.net, chain.Topology.hosts.(0).(0), chain.Topology.hosts.(1).(0))

let test_piggyback_carries_and_echoes () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let sink = Flow.Sink.attach sb ~port:9000 in
  Probe.install_echo_on_port sb ~port:9000;
  let flow =
    Flow.cbr ~src:sa ~dst:b ~dst_port:9000 ~payload_bytes:954 ~rate_bps:(mbps 10)
  in
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:32 "PUSH [Queue:QueueSize]\n") in
  Flow.carry_tpp flow ~every:3 tpp;
  let samples = ref 0 in
  Probe.install_reply_handler sa (fun ~now:_ ~seq:_ tpp ->
      if tpp.Prog.hop = 2 then incr samples);
  Flow.start flow ();
  Engine.at eng (Time_ns.ms 400) (fun () -> Flow.stop flow);
  Engine.run eng ~until:(Time_ns.ms 500);
  let carried = Flow.tpp_carried flow in
  check Alcotest.bool "some packets carried TPPs" true (carried > 10);
  check Alcotest.int "1 in 3 packets instrumented"
    ((Flow.tx_pkts flow + 2) / 3) carried;
  check Alcotest.int "every carried TPP echoed back" carried !samples;
  check Alcotest.int "data still delivered" (Flow.tx_pkts flow) (Flow.Sink.rx_pkts sink)

let test_piggyback_data_intact () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let sink = Flow.Sink.attach sb ~port:9000 in
  Probe.install_echo_on_port sb ~port:9000;
  let flow =
    Flow.cbr ~src:sa ~dst:b ~dst_port:9000 ~payload_bytes:954 ~rate_bps:(mbps 10)
  in
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:32 "PUSH [Switch:SwitchID]\n") in
  Flow.carry_tpp flow ~every:1 tpp;
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.ms 200);
  Flow.stop flow;
  check Alcotest.int "no reordering" 0 (Flow.Sink.reordered sink);
  check Alcotest.int "no holes" 0 (Flow.Sink.holes sink);
  check Alcotest.bool "latency still measured" true
    (Tpp_util.Stats.count (Flow.Sink.latency sink) > 0)

(* --- transfers ---------------------------------------------------------------- *)

let test_transfer_stops_at_size () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let sink = Flow.Sink.attach sb ~port:9000 in
  let flow =
    Flow.transfer ~src:sa ~dst:b ~dst_port:9000 ~payload_bytes:1000
      ~rate_bps:(mbps 10) ~total_bytes:25_000
  in
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.sec 1);
  check Alcotest.bool "done" true (Flow.is_done flow);
  check Alcotest.int "sent exactly 25 packets" 25 (Flow.tx_pkts flow);
  check Alcotest.int "payload budget met" 25_000 (Flow.payload_sent flow);
  check Alcotest.int "receiver got it all" 25_000 (Flow.Sink.rx_payload_bytes sink);
  (* Restarting a finished transfer is a no-op. *)
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.sec 2);
  check Alcotest.int "no extra packets" 25 (Flow.tx_pkts flow)

let test_sink_tap_fires () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let taps = ref 0 in
  let _sink = Flow.Sink.attach ~tap:(fun ~now:_ -> incr taps) sb ~port:9000 in
  let flow =
    Flow.transfer ~src:sa ~dst:b ~dst_port:9000 ~payload_bytes:1000
      ~rate_bps:(mbps 10) ~total_bytes:5_000
  in
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.sec 1);
  check Alcotest.int "tap per packet" 5 !taps

(* --- stack multi-handler -------------------------------------------------------- *)

let test_on_udp_add_multiplexes () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let first = ref 0 and second = ref 0 in
  Stack.on_udp sb ~port:700 (fun ~now:_ _ -> incr first);
  Stack.on_udp_add sb ~port:700 (fun ~now:_ _ -> incr second);
  Stack.send_udp sa ~dst:b ~src_port:1 ~dst_port:700 ~payload:Bytes.empty ();
  Engine.run eng ~until:(Time_ns.ms 10);
  check Alcotest.int "first handler" 1 !first;
  check Alcotest.int "second handler" 1 !second;
  (* A plain on_udp replaces the whole set again. *)
  Stack.on_udp sb ~port:700 (fun ~now:_ _ -> ());
  Stack.send_udp sa ~dst:b ~src_port:1 ~dst_port:700 ~payload:Bytes.empty ();
  Engine.run eng ~until:(Time_ns.ms 20);
  check Alcotest.int "replaced" 1 !first

(* --- AIMD ------------------------------------------------------------------------ *)

let test_aimd_additive_increase () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let sink = Flow.Sink.attach sb ~port:9000 in
  let flow =
    Flow.cbr ~src:sa ~dst:b ~dst_port:9000 ~payload_bytes:954 ~rate_bps:(mbps 1)
  in
  let config = Aimd.default_config ~max_rate_bps:(mbps 100) in
  let ctl = Aimd.create sa config ~flow ~report_port:9100 in
  let receiver =
    Flow.Sink.report sb sink ~report_to:a ~port:9100
      ~period:config.Aimd.report_period_ns Flow.Sink.holes Flow.Sink.rx_payload_bytes
  in
  Aimd.start ctl;
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.sec 2);
  Engine.Loop.stop receiver;
  (* No losses on an uncongested path: rate must have climbed. *)
  check Alcotest.bool "rate grew" true
    (Aimd.current_rate_bps ctl > config.Aimd.initial_rate_bps);
  check Alcotest.int "no losses" 0 (Aimd.losses_seen ctl);
  check Alcotest.bool "reports flowed" true (Aimd.reports_received ctl > 10)

let test_aimd_backs_off_on_loss () =
  let eng = Engine.create () in
  let bell =
    Topology.dumbbell eng ~pairs:1 ~core_bps:(mbps 5) ~edge_bps:(mbps 100)
      ~delay:(Time_ns.ms 2) ()
  in
  let net = bell.Topology.d_net in
  (* A tiny bottleneck queue forces drops as AIMD overshoots. *)
  Switch.set_queue_limit (Net.switch net bell.Topology.left_switch) ~port:0
    ~bytes:10_000;
  let sa = Stack.create net bell.Topology.senders.(0) in
  let sb = Stack.create net bell.Topology.receivers.(0) in
  let sink = Flow.Sink.attach sb ~port:9000 in
  let flow =
    Flow.cbr ~src:sa ~dst:bell.Topology.receivers.(0) ~dst_port:9000
      ~payload_bytes:954 ~rate_bps:(mbps 1)
  in
  let config = Aimd.default_config ~max_rate_bps:(mbps 100) in
  let ctl = Aimd.create sa config ~flow ~report_port:9100 in
  let _receiver =
    Flow.Sink.report sb sink ~report_to:bell.Topology.senders.(0) ~port:9100
      ~period:config.Aimd.report_period_ns Flow.Sink.holes Flow.Sink.rx_payload_bytes
  in
  Aimd.start ctl;
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.sec 10);
  check Alcotest.bool "losses detected" true (Aimd.losses_seen ctl > 0);
  (* The sawtooth hovers around capacity, not at the configured max. *)
  check Alcotest.bool "rate bounded by congestion" true
    (Aimd.current_rate_bps ctl < mbps 20);
  let goodput = float_of_int (Flow.Sink.rx_bytes sink) *. 8.0 /. 10.0 in
  check Alcotest.bool
    (Printf.sprintf "goodput %.2f Mb/s within (2.5, 5.2)" (goodput /. 1e6))
    true
    (goodput > 2.5e6 && goodput < 5.2e6)

(* --- program library -------------------------------------------------------- *)

let test_programs_assemble_and_run () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  Probe.install_echo sb;
  let outcomes = ref [] in
  Probe.install_reply_handler sa (fun ~now:_ ~seq tpp ->
      outcomes := (seq, Prog.stack_values tpp) :: !outcomes);
  List.iteri
    (fun i (_, source) ->
      let tpp = Result.get_ok (Programs.build source) in
      Probe.send sa ~dst:b ~tpp ~seq:i)
    Programs.all;
  Engine.run eng ~until:(Time_ns.ms 50);
  check Alcotest.int "all canned programs echoed" (List.length Programs.all)
    (List.length !outcomes);
  List.iteri
    (fun i (name, source) ->
      let values = List.assoc i !outcomes in
      check Alcotest.int
        (name ^ ": words for two hops")
        (2 * Programs.words_per_hop source)
        (List.length values))
    Programs.all

let test_record_route_matches_control_route () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  Probe.install_echo sb;
  let got = ref [] in
  Probe.install_reply_handler sa (fun ~now:_ ~seq:_ tpp ->
      let rec pairs = function
        | sw :: port :: rest -> (sw, port) :: pairs rest
        | _ -> []
      in
      got := pairs (Prog.stack_values tpp));
  let tpp = Result.get_ok (Programs.build Programs.record_route) in
  Probe.send sa ~dst:b ~tpp ~seq:1;
  Engine.run eng ~until:(Time_ns.ms 50);
  (* The probe's 5-tuple is (7777, 7777); the predictor must use it. *)
  let expected =
    Verify.control_route ~src_port:Probe.request_port ~dst_port:Probe.request_port
      net ~src:a ~dst:b
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "record route = control route" expected !got

let test_hop_timestamps_monotone () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  Probe.install_echo sb;
  let clocks = ref [] in
  Probe.install_reply_handler sa (fun ~now:_ ~seq:_ tpp ->
      let rec every_other = function
        | _ :: ts :: rest -> ts :: every_other rest
        | _ -> []
      in
      clocks := every_other (Prog.stack_values tpp));
  let tpp = Result.get_ok (Programs.build Programs.hop_timestamps) in
  Engine.at eng (Time_ns.ms 5) (fun () -> Probe.send sa ~dst:b ~tpp ~seq:1);
  Engine.run eng ~until:(Time_ns.ms 50);
  match !clocks with
  | [ t1; t2 ] ->
    check Alcotest.bool "clocks increase along the path" true (t2 > t1);
    check Alcotest.bool "after send time" true (t1 > Time_ns.ms 5)
  | other -> Alcotest.failf "expected 2 timestamps, got %d" (List.length other)

let test_fold_programs () =
  (* Build a 3-switch chain with a known standing queue at switch 2 and
     check the folds compute max/sum/min in one packet-memory word. *)
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:3 ~hosts_per_switch:2 ~bps:(mbps 100)
      ~delay:(Time_ns.us 50) ()
  in
  let net = chain.Topology.net in
  let host i j = chain.Topology.hosts.(i).(j) in
  List.iter
    (fun (si, sj) ->
      let src = Stack.create net (host si sj) in
      let dst = Stack.create net (host 2 sj) in
      let _sink = Flow.Sink.attach dst ~port:9000 in
      let f =
        Flow.cbr ~src ~dst:(host 2 sj) ~dst_port:9000 ~payload_bytes:1000
          ~rate_bps:(mbps 60)
      in
      Flow.start f ())
    [ (0, 1); (1, 1) ];
  let sa = Stack.create net (host 0 0) in
  let sb = Stack.create net (host 2 0) in
  Probe.install_echo sb;
  let results = Hashtbl.create 4 in
  Probe.install_reply_handler sa (fun ~now:_ ~seq tpp ->
      Hashtbl.replace results seq (Programs.fold_result tpp));
  let send seq source =
    Probe.send sa ~dst:(host 2 0) ~tpp:(Result.get_ok (Programs.build_fold source)) ~seq
  in
  Engine.at eng (Time_ns.ms 50) (fun () ->
      send 1 Programs.max_queue;
      send 2 Programs.sum_queues;
      send 3 Programs.min_capacity);
  Engine.run eng ~until:(Time_ns.ms 80);
  let get seq = Hashtbl.find results seq in
  check Alcotest.bool "max queue sees the backlog" true (get 1 > 10_000);
  check Alcotest.bool "sum >= max" true (get 2 >= get 1);
  check Alcotest.int "bottleneck capacity" 100_000 (get 3);
  (* The fold probe's memory is one word regardless of path length. *)
  let tpp = Result.get_ok (Programs.build_fold Programs.max_queue) in
  check Alcotest.int "constant memory" (Prog.section_size tpp) (16 + 4 + 4)

(* --- sweep ----------------------------------------------------------------------- *)

let test_sweep_aggregates_per_switch () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:3 ~hosts_per_switch:1 ~bps:(mbps 100)
      ~delay:(Time_ns.us 50) ()
  in
  let net = chain.Topology.net in
  let stacks = Array.map (fun hs -> Stack.create net hs.(0)) chain.Topology.hosts in
  Array.iter Probe.install_echo stacks;
  let circuits =
    [ { Sweep.src = stacks.(0); dst = chain.Topology.hosts.(2).(0) };
      { Sweep.src = stacks.(2); dst = chain.Topology.hosts.(0).(0) } ]
  in
  let sweep = Sweep.create ~circuits ~period:(Time_ns.ms 10) in
  Sweep.start sweep ();
  Engine.run eng ~until:(Time_ns.ms 500);
  Sweep.stop sweep;
  let views = Sweep.views sweep in
  check Alcotest.int "all three switches observed" 3 (List.length views);
  List.iter
    (fun v ->
      check Alcotest.bool
        (Printf.sprintf "sw%d sampled from both directions" v.Sweep.v_switch_id)
        true (v.Sweep.samples > 50))
    views;
  check Alcotest.bool "replies flowed" true (Sweep.replies_received sweep > 80);
  (* Switch ids ordered. *)
  check (Alcotest.list Alcotest.int) "ordered ids" [ 1; 2; 3 ]
    (List.map (fun v -> v.Sweep.v_switch_id) views)

let test_sweep_sees_congestion () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:2 ~hosts_per_switch:3 ~bps:(mbps 100)
      ~delay:(Time_ns.us 50) ()
  in
  let net = chain.Topology.net in
  let host i j = chain.Topology.hosts.(i).(j) in
  let mon_src = Stack.create net (host 0 0) in
  let mon_dst = Stack.create net (host 1 0) in
  Probe.install_echo mon_dst;
  (* Two 60 Mb/s sources converge on the 100 Mb/s spine link. *)
  List.iter
    (fun j ->
      let bg_src = Stack.create net (host 0 j) in
      let bg_dst = Stack.create net (host 1 j) in
      let _sink = Flow.Sink.attach bg_dst ~port:9000 in
      let f =
        Flow.cbr ~src:bg_src ~dst:(host 1 j) ~dst_port:9000 ~payload_bytes:1000
          ~rate_bps:(mbps 60)
      in
      Flow.start f ())
    [ 1; 2 ];
  let sweep =
    Sweep.create
      ~circuits:[ { Sweep.src = mon_src; dst = host 1 0 } ]
      ~period:(Time_ns.ms 5)
  in
  Sweep.start sweep ~at:(Time_ns.ms 100) ();
  Engine.run eng ~until:(Time_ns.sec 2);
  match Sweep.view sweep ~switch_id:1 with
  | None -> Alcotest.fail "first switch unobserved"
  | Some v ->
    check Alcotest.bool "queue pressure visible" true
      (Tpp_util.Stats.max v.Sweep.queue > 1000.0)

(* --- FCT workload ------------------------------------------------------------------ *)

let test_fct_smoke () =
  let p =
    { Fct.dumbbell_default with
      Fct.f_load = 0.144;
      f_duration = Time_ns.sec 8;
      f_mean_bytes = 30_000.0 }
  in
  let run t = Fct.fabric_run t p in
  let star = run Fct.Rcp_star_t and aimd = run Fct.Aimd_t and tcp = run Fct.Tcp_t in
  check Alcotest.bool "flows started" true (star.Fct.fo_started > 10);
  check Alcotest.int "same schedule both runs" star.Fct.fo_started
    aimd.Fct.fo_started;
  check Alcotest.bool "most complete under RCP*" true
    (10 * star.Fct.fo_completed >= 8 * star.Fct.fo_started);
  let short o = (fst (Fct.short_long o ~threshold:p.Fct.f_short_bytes)).Fct.fs_mean_ns in
  check Alcotest.bool "rcp* short flows faster than AIMD and TCP" true
    (short star < short aimd && short star < short tcp)

let suite =
  [
    Alcotest.test_case "fat-tree shape" `Quick test_fat_tree_shape;
    Alcotest.test_case "fat-tree path lengths" `Quick test_fat_tree_path_lengths;
    Alcotest.test_case "fat-tree end to end" `Quick test_fat_tree_end_to_end;
    Alcotest.test_case "fat-tree all pairs" `Quick test_fat_tree_all_pairs_reachable;
    Alcotest.test_case "fat-tree odd k" `Quick test_fat_tree_rejects_odd_k;
    Alcotest.test_case "ecmp select_path" `Quick test_select_path;
    Alcotest.test_case "ecmp flow hash" `Quick test_flow_hash_stable_and_spreading;
    Alcotest.test_case "ecmp pins flows" `Quick test_multipath_pins_flows;
    Alcotest.test_case "ecmp diamond both paths" `Quick test_ecmp_diamond_uses_both_paths;
    Alcotest.test_case "ecmp control-route prediction" `Quick
      test_control_route_predicts_ecmp_paths;
    Alcotest.test_case "piggyback carries+echoes" `Quick test_piggyback_carries_and_echoes;
    Alcotest.test_case "piggyback data intact" `Quick test_piggyback_data_intact;
    Alcotest.test_case "transfer stops at size" `Quick test_transfer_stops_at_size;
    Alcotest.test_case "sink tap" `Quick test_sink_tap_fires;
    Alcotest.test_case "on_udp_add multiplexes" `Quick test_on_udp_add_multiplexes;
    Alcotest.test_case "canned programs run" `Quick test_programs_assemble_and_run;
    Alcotest.test_case "record route = control route" `Quick
      test_record_route_matches_control_route;
    Alcotest.test_case "hop timestamps monotone" `Quick test_hop_timestamps_monotone;
    Alcotest.test_case "fold programs aggregate in-dataplane" `Quick test_fold_programs;
    Alcotest.test_case "sweep aggregates per switch" `Quick
      test_sweep_aggregates_per_switch;
    Alcotest.test_case "sweep sees congestion" `Quick test_sweep_sees_congestion;
    Alcotest.test_case "aimd additive increase" `Quick test_aimd_additive_increase;
    Alcotest.test_case "aimd backs off on loss" `Slow test_aimd_backs_off_on_loss;
    Alcotest.test_case "fct smoke" `Slow test_fct_smoke;
  ]
