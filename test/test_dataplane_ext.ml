(* Tests for the dataplane realism extensions: TTL handling, ECN
   marking, the DCTCP controller, and pcap capture. *)

open Tpp
module State = Tpp_asic.State

let check = Alcotest.check
let mbps x = x * 1_000_000

let dst_ip = Ipv4.Addr.of_host_id 2

let frame_with_ttl ttl =
  Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
    ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip ~src_port:5 ~dst_port:6 ~ttl
    ~payload:(Bytes.create 64) ()

let routed_switch () =
  let sw = Switch.create ~id:1 ~num_ports:4 () in
  Switch.install_route sw (Ipv4.Prefix.host dst_ip) ~port:2 ~entry_id:1 ~version:1;
  sw

(* --- TTL ---------------------------------------------------------------- *)

let test_ttl_decremented_on_routing () =
  let sw = routed_switch () in
  let frame = frame_with_ttl 64 in
  (match Switch.handle_ingress sw ~now:0 ~in_port:0 frame with
  | Switch.Queued _ -> ()
  | Switch.Dropped r -> Alcotest.failf "dropped: %s" r);
  check Alcotest.int "decremented" 63 (Frame.ip_ttl frame)

let test_ttl_expiry_drops () =
  let sw = routed_switch () in
  (match Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_ttl 1) with
  | Switch.Dropped "TTL expired" -> ()
  | _ -> Alcotest.fail "ttl 1 should expire");
  check Alcotest.int "counted" 1 (Switch.state sw).State.drops;
  check Alcotest.int "not queued" 0 (Switch.queue_packets sw ~port:2)

let test_ttl_not_touched_by_l2 () =
  let sw = Switch.create ~id:1 ~num_ports:4 () in
  Switch.install_l2 sw (Mac.of_host_id 2) ~port:1 ~entry_id:1 ~version:1;
  let frame = frame_with_ttl 7 in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  check Alcotest.int "L2 hop keeps TTL" 7 (Frame.ip_ttl frame)

let test_forwarding_loop_terminates () =
  (* Two switches routing the prefix at each other: the packet must die
     of TTL expiry rather than bounce forever. *)
  let eng = Engine.create () in
  let net = Net.create eng in
  let a = Net.add_switch net (Switch.create ~id:1 ~num_ports:2 ()) in
  let b = Net.add_switch net (Switch.create ~id:2 ~num_ports:2 ()) in
  let h = Net.add_host net ~name:"h" in
  Net.connect net (h.Net.node_id, 0) (a, 1) ~bps:(mbps 100) ~delay:0;
  Net.connect net (a, 0) (b, 0) ~bps:(mbps 100) ~delay:(Time_ns.us 10);
  let victim = Ipv4.Prefix.host (Ipv4.Addr.of_string "10.9.9.9") in
  Switch.install_route (Net.switch net a) victim ~port:0 ~entry_id:1 ~version:1;
  Switch.install_route (Net.switch net b) victim ~port:0 ~entry_id:1 ~version:1;
  let frame =
    Frame.udp_frame ~src_mac:h.Net.mac ~dst_mac:(Mac.of_host_id 99) ~src_ip:h.Net.ip
      ~dst_ip:(Ipv4.Addr.of_string "10.9.9.9") ~src_port:1 ~dst_port:2 ~ttl:32
      ~payload:Bytes.empty ()
  in
  Net.host_send net h frame;
  Engine.run eng ~until:(Time_ns.sec 1);
  let drops = (Switch.state (Net.switch net a)).State.drops
              + (Switch.state (Net.switch net b)).State.drops in
  check Alcotest.int "loop broken by TTL" 1 drops

(* --- ECN ------------------------------------------------------------------ *)

let test_ecn_marks_above_threshold () =
  let sw = routed_switch () in
  Switch.set_ecn_threshold sw ~port:2 (Some 150);
  let first = frame_with_ttl 64 in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 first);
  check Alcotest.int "below threshold: unmarked" 0
    (Frame.ip_ecn first);
  (* The first frame (>= 150 wire bytes? it is 110) -- add more until
     occupancy crosses. *)
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_ttl 64));
  let marked = frame_with_ttl 64 in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 marked);
  check Alcotest.int "above threshold: CE" Ipv4.Header.ecn_ce
    (Frame.ip_ecn marked)

let test_ecn_disabled_by_default () =
  let sw = routed_switch () in
  for _ = 1 to 20 do
    ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_ttl 64))
  done;
  let last = frame_with_ttl 64 in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 last);
  check Alcotest.int "never marked" 0 (Frame.ip_ecn last)

let test_ecn_survives_serialization () =
  let frame = frame_with_ttl 64 in
  Frame.set_ip_ecn frame Ipv4.Header.ecn_ce;
  match Frame.parse (Frame.serialize frame) with
  | Ok got -> check Alcotest.int "CE on the wire" 3 (Frame.ip_ecn got)
  | Error e -> Alcotest.fail e

(* --- DCTCP ------------------------------------------------------------------ *)

let test_dctcp_reacts_to_marks () =
  let eng = Engine.create () in
  let bell =
    Topology.dumbbell eng ~pairs:1 ~core_bps:(mbps 5) ~edge_bps:(mbps 100)
      ~delay:(Time_ns.ms 2) ()
  in
  let net = bell.Topology.d_net in
  Switch.set_ecn_threshold (Net.switch net bell.Topology.left_switch) ~port:0
    (Some 15_000);
  let sa = Stack.create net bell.Topology.senders.(0) in
  let sb = Stack.create net bell.Topology.receivers.(0) in
  let sink = Flow.Sink.attach sb ~port:9000 in
  let flow =
    Flow.cbr ~src:sa ~dst:bell.Topology.receivers.(0) ~dst_port:9000
      ~payload_bytes:954 ~rate_bps:(mbps 1)
  in
  let config = Dctcp.default_config ~max_rate_bps:(mbps 50) in
  let ctl = Dctcp.create sa config ~flow ~report_port:9100 in
  let _rx =
    Flow.Sink.report sb sink ~report_to:bell.Topology.senders.(0) ~port:9100
      ~period:config.Dctcp.report_period_ns Flow.Sink.rx_pkts Flow.Sink.ce_marked
  in
  Dctcp.start ctl;
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.sec 10);
  check Alcotest.bool "marks observed" true (Dctcp.marked_seen ctl > 0);
  check Alcotest.bool "alpha moved" true (Dctcp.alpha ctl > 0.0);
  (* The controller must settle near the 5 Mb/s capacity, not the 50 max. *)
  let rate = Dctcp.current_rate_bps ctl in
  check Alcotest.bool
    (Printf.sprintf "rate %.1f Mb/s tracks capacity" (float_of_int rate /. 1e6))
    true
    (rate > mbps 2 && rate < mbps 10);
  (* And the queue should hover near the threshold, not the 150 kB limit. *)
  let q =
    Switch.queue_bytes (Net.switch net bell.Topology.left_switch) ~port:0
  in
  check Alcotest.bool "queue bounded by marking" true (q < 60_000)

(* --- multi-queue ports and priority scheduling ------------------------------- *)

let frame_with_dscp dscp =
  let frame = frame_with_ttl 64 in
  Frame.set_ip_dscp frame dscp;
  frame

let test_default_single_queue_unchanged () =
  let sw = routed_switch () in
  check Alcotest.int "one queue" 1 (Switch.num_queues sw ~port:2);
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_dscp 46));
  check Alcotest.int "queued in queue 0" 1 (Switch.queue_packets sw ~port:2)

let test_classifier_spreads_by_dscp () =
  let sw = routed_switch () in
  Switch.configure_queues sw ~port:2 ~count:4;
  check Alcotest.int "four queues" 4 (Switch.num_queues sw ~port:2);
  let q_of frame =
    ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
    frame.Frame.meta.Tpp_isa.Meta.queue_id
  in
  check Alcotest.int "best effort -> q0" 0 (q_of (frame_with_dscp 0));
  check Alcotest.int "mid -> q1" 1 (q_of (frame_with_dscp 24));
  check Alcotest.int "EF -> q2" 2 (q_of (frame_with_dscp 46));
  check Alcotest.int "network control -> q3" 3 (q_of (frame_with_dscp 56))

let test_strict_priority_scheduling () =
  let sw = routed_switch () in
  Switch.configure_queues sw ~port:2 ~count:2;
  (* Enqueue three bulk frames, then one EF frame: the EF frame must be
     transmitted first despite arriving last. *)
  for _ = 1 to 3 do
    ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_dscp 0))
  done;
  let ef = frame_with_dscp 46 in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 ef);
  (match Switch.dequeue sw ~port:2 with
  | Some first -> check Alcotest.int "EF jumps the line" ef.Frame.id first.Frame.id
  | None -> Alcotest.fail "queue empty");
  (* The remaining three drain in FIFO order from the bulk queue. *)
  check Alcotest.int "three left" 3 (Switch.queue_packets sw ~port:2);
  ignore (Switch.dequeue sw ~port:2);
  ignore (Switch.dequeue sw ~port:2);
  ignore (Switch.dequeue sw ~port:2);
  check Alcotest.int "drained" 0 (Switch.queue_packets sw ~port:2)

let test_wrr_scheduling_ratio () =
  let sw = routed_switch () in
  Switch.configure_queues sw ~port:2 ~count:2;
  Switch.set_scheduler sw ~port:2 (Switch.Wrr [| 1; 3 |]);
  (* Backlog both queues with 12 frames each. *)
  for _ = 1 to 12 do
    ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_dscp 0));
    ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_dscp 46))
  done;
  (* Drain 16 packets: the 3:1 weights give 12 EF : 4 bulk. *)
  let ef = ref 0 and bulk = ref 0 in
  for _ = 1 to 16 do
    match Switch.dequeue sw ~port:2 with
    | Some f ->
      if Frame.ip_dscp f = 46 then incr ef else incr bulk
    | None -> Alcotest.fail "queue ran dry"
  done;
  check Alcotest.int "weighted share for EF" 12 !ef;
  check Alcotest.int "weighted share for bulk" 4 !bulk;
  (* Once EF empties, bulk gets everything. *)
  let rec drain n =
    match Switch.dequeue sw ~port:2 with Some _ -> drain (n + 1) | None -> n
  in
  check Alcotest.int "remainder drains" 8 (drain 0)

let test_wrr_validation () =
  let sw = routed_switch () in
  Alcotest.check_raises "needs a positive weight"
    (Invalid_argument "Switch.set_scheduler: WRR needs a positive weight") (fun () ->
      Switch.set_scheduler sw ~port:2 (Switch.Wrr [| 0; 0 |]))

let test_per_queue_stats_and_isolation () =
  let sw = routed_switch () in
  Switch.configure_queues sw ~port:2 ~count:2;
  Switch.set_queue_limit sw ~port:2 ~bytes:200;
  let wire = Frame.wire_size (frame_with_dscp 0) in
  (* Fill the bulk queue to its limit; EF queue must stay open. *)
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_dscp 0));
  (match Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_dscp 0) with
  | Switch.Dropped "queue full" -> ()
  | _ -> Alcotest.fail "bulk queue should be full");
  (match Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_dscp 46) with
  | Switch.Queued _ -> ()
  | Switch.Dropped r -> Alcotest.failf "EF queue should be open: %s" r);
  let st = Switch.state sw in
  let q queue stat = Tpp_asic.State.queue_stat st ~port:2 ~queue stat in
  check Alcotest.int "q0 occupancy" wire (q 0 Vaddr.Queue_stat.Q_bytes);
  check Alcotest.int "q0 dropped bytes" wire (q 0 Vaddr.Queue_stat.Q_dropped);
  check Alcotest.int "q0 enqueued bytes" wire (q 0 Vaddr.Queue_stat.Q_enqueued);
  check Alcotest.int "q1 occupancy" wire (q 1 Vaddr.Queue_stat.Q_bytes);
  check Alcotest.int "q1 clean" 0 (q 1 Vaddr.Queue_stat.Q_dropped);
  check Alcotest.int "port aggregate" (2 * wire)
    (Tpp_asic.State.port_stat st ~port:2 Vaddr.Port_stat.Queue_bytes)

let test_tpp_reads_its_own_queue () =
  let sw = routed_switch () in
  Switch.configure_queues sw ~port:2 ~count:2;
  (* Backlog in the bulk queue only. *)
  for _ = 1 to 3 do
    ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (frame_with_dscp 0))
  done;
  let probe dscp =
    let tpp =
      Result.get_ok (Asm.to_tpp ~mem_len:16 "PUSH [Queue:QueueSize]\nPUSH [Queue:QueueID]\n")
    in
    let frame = frame_with_dscp dscp in
    let frame = Frame.with_tpp frame (Some tpp) in
    ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
    Prog.stack_values (Option.get frame.Frame.tpp)
  in
  (match probe 0 with
  | [ q_bytes; qid ] ->
    check Alcotest.int "bulk probe in q0" 0 qid;
    check Alcotest.bool "sees the backlog" true (q_bytes > 100)
  | _ -> Alcotest.fail "bulk probe");
  match probe 46 with
  | [ q_bytes; qid ] ->
    check Alcotest.int "EF probe in q1" 1 qid;
    (* Only the previous EF probe could be ahead of it. *)
    check Alcotest.bool "EF queue nearly empty" true (q_bytes < 100)
  | _ -> Alcotest.fail "EF probe"

let test_priority_latency_end_to_end () =
  (* Under heavy bulk load, EF traffic keeps low latency through a
     2-queue switch while bulk queues up. *)
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:2 ~hosts_per_switch:3 ~bps:(mbps 100)
      ~delay:(Time_ns.us 50) ()
  in
  let net = chain.Topology.net in
  let host i j = chain.Topology.hosts.(i).(j) in
  List.iter
    (fun (_, sw) ->
      for p = 0 to Switch.num_ports sw - 1 do
        Switch.configure_queues sw ~port:p ~count:2
      done)
    (Net.switches net);
  (* Two bulk flows oversubscribe the spine. *)
  List.iter
    (fun j ->
      let src = Stack.create net (host 0 j) in
      let dst = Stack.create net (host 1 j) in
      let _sink = Flow.Sink.attach dst ~port:9000 in
      let f =
        Flow.cbr ~src ~dst:(host 1 j) ~dst_port:9000 ~payload_bytes:1000
          ~rate_bps:(mbps 60)
      in
      Flow.start f ())
    [ 1; 2 ];
  (* An EF probe flow measures latency. DSCP rides in the IP header the
     stack builds, so mark via a custom classifier keyed on UDP port. *)
  List.iter
    (fun (_, sw) ->
      Switch.set_queue_classifier sw (fun frame ->
          if Frame.has_udp frame && Frame.udp_dst_port frame = 9001 then 46
          else 0))
    (Net.switches net);
  let ef_src = Stack.create net (host 0 0) in
  let ef_dst = Stack.create net (host 1 0) in
  let ef_sink = Flow.Sink.attach ef_dst ~port:9001 in
  let ef =
    Flow.cbr ~src:ef_src ~dst:(host 1 0) ~dst_port:9001 ~payload_bytes:200
      ~rate_bps:(mbps 1)
  in
  Flow.start ef ();
  Engine.run eng ~until:(Time_ns.sec 2);
  let p95_ms =
    Tpp_util.Stats.percentile (Flow.Sink.latency ef_sink) 95.0 /. 1e6
  in
  check Alcotest.bool
    (Printf.sprintf "EF p95 latency %.2f ms stays low under bulk overload" p95_ms)
    true (p95_ms < 2.0)

(* --- link failures and localisation ------------------------------------------ *)

let test_link_down_blackholes () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:2 ~hosts_per_switch:1 ~bps:(mbps 100)
      ~delay:(Time_ns.us 10) ()
  in
  let net = chain.Topology.net in
  let a = chain.Topology.hosts.(0).(0) and b = chain.Topology.hosts.(1).(0) in
  let spine = (chain.Topology.switch_ids.(0), 1) in
  let fault = Fault.create ~seed:1 in
  Fault.link_down fault ~at:(Time_ns.ms 10) spine;
  Fault.link_up fault ~at:(Time_ns.ms 20) spine;
  Fault.attach fault net;
  let got = ref 0 in
  b.Net.receive <- (fun ~now:_ _ -> incr got);
  let send () =
    Net.host_send net a
      (Frame.udp_frame ~src_mac:a.Net.mac ~dst_mac:b.Net.mac ~src_ip:a.Net.ip
         ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ())
  in
  send ();
  Engine.run eng ~until:(Time_ns.ms 10);
  check Alcotest.int "delivered while up" 1 !got;
  check Alcotest.bool "was up" true (Fault.up fault spine ~now:(Time_ns.ms 10 - 1));
  check Alcotest.bool "down from 10 ms" false (Fault.up fault spine ~now:(Engine.now eng));
  send ();
  Engine.run eng ~until:(Time_ns.ms 20);
  check Alcotest.int "blackholed while down" 1 !got;
  check Alcotest.bool "up again from 20 ms" true (Fault.up fault spine ~now:(Engine.now eng));
  send ();
  Engine.run eng ~until:(Time_ns.ms 30);
  check Alcotest.int "flows again after restore" 2 !got;
  check Alcotest.int "counted lost" 1 (Fault.stats fault).Fault.lost_down

let test_faultfind_localises_chain_link () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:3 ~hosts_per_switch:2 ~bps:(mbps 100)
      ~delay:(Time_ns.us 10) ()
  in
  let net = chain.Topology.net in
  (* The second spine link (sw2 -> sw3) dies at 200 ms. *)
  let fault = Fault.create ~seed:1 in
  Fault.link_down fault ~at:(Time_ns.ms 200) (chain.Topology.switch_ids.(1), 1);
  Fault.attach fault net;
  let h i j = chain.Topology.hosts.(i).(j) in
  let stacks = Array.init 3 (fun i -> Array.init 2 (fun j -> Stack.create net (h i j))) in
  Array.iter (Array.iter Probe.install_echo) stacks;
  (* Circuit 1 crosses both spine links and will fail; circuit 2 covers
     only the first spine; circuit 3 stays inside the last switch and
     exonerates the destination's access link. *)
  let finder =
    Faultfind.create
      ~circuits:
        [ (stacks.(0).(0), h 2 0); (stacks.(0).(0), h 1 0); (stacks.(2).(1), h 2 0) ]
      ~period:(Time_ns.ms 5) ~timeout:(Time_ns.ms 25) ()
  in
  Faultfind.start finder ();
  Engine.run eng ~until:(Time_ns.ms 200);
  check (Alcotest.list Alcotest.bool) "all healthy before" [ true; true; true ]
    (Faultfind.healthy finder ~now:(Engine.now eng));
  check (Alcotest.list Alcotest.bool) "no suspects before" []
    (List.map (fun _ -> true) (Faultfind.suspects finder ~now:(Engine.now eng)));
  Engine.run eng ~until:(Time_ns.ms 400);
  let now = Engine.now eng in
  check (Alcotest.list Alcotest.bool) "only the crossing circuit fails"
    [ false; true; true ]
    (Faultfind.healthy finder ~now);
  match Faultfind.suspects finder ~now with
  | [ suspect ] ->
    check Alcotest.bool "the dead cable" true
      (Faultfind.same_cable finder suspect
         { Faultfind.from_switch = 2; egress_port = 1 })
  | other -> Alcotest.failf "expected one suspect, got %d" (List.length other)

(* A probe's seq offset names its (round, circuit) exactly, also once
   the rounds have wrapped around the seq block many times over. *)
let test_faultfind_seq_wraps () =
  List.iter
    (fun circuits ->
      let rounds = Probe.seq_block / circuits in
      List.iter
        (fun round ->
          List.iter
            (fun i ->
              let offset = Faultfind.probe_offset ~circuits ~round i in
              check Alcotest.bool "offset in the block" true
                (offset >= 0 && offset < Probe.seq_block);
              List.iter
                (fun late ->
                  check
                    Alcotest.(pair int int)
                    (Printf.sprintf "%d circuits, round %d, circuit %d, %d late"
                       circuits round i late)
                    (round, i)
                    (Faultfind.echo_round ~circuits ~last_round:(round + late)
                       offset))
                [ 0; 1; 7; rounds - 1 ])
            [ 0; circuits - 1 ])
        [ 0; 1; rounds - 1; rounds; rounds + 1; (3 * rounds) + 7; 1 lsl 22 ])
    [ 1; 3; 1000; 4096 ]

(* --- pcap -------------------------------------------------------------------- *)

let test_pcap_roundtrip () =
  let cap = Pcap.create () in
  let f1 = frame_with_ttl 64 in
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:16 "PUSH [Switch:SwitchID]\n") in
  let f2 =
    Frame.udp_frame ~src_mac:(Mac.of_host_id 3) ~dst_mac:(Mac.of_host_id 4)
      ~src_ip:(Ipv4.Addr.of_host_id 3) ~dst_ip:(Ipv4.Addr.of_host_id 4) ~src_port:7
      ~dst_port:8 ~tpp ~payload:(Bytes.create 10) ()
  in
  Pcap.record cap ~now:1_500_000 f1;
  Pcap.record cap ~now:2_000_001_000 f2;
  check Alcotest.int "two records" 2 (Pcap.length cap);
  let image = Pcap.to_bytes cap in
  match Pcap.parse image with
  | Error e -> Alcotest.fail e
  | Ok records ->
    check Alcotest.int "parsed both" 2 (List.length records);
    (match records with
    | [ a; b ] ->
      check Alcotest.int "ts 1 (us resolution)" 1_500_000 a.Pcap.ts_ns;
      check Alcotest.int "ts 2" 2_000_001_000 b.Pcap.ts_ns;
      check Alcotest.bool "payload bytes equal" true
        (Bytes.equal a.Pcap.data (Frame.serialize f1));
      (* The captured bytes re-parse as the original frame. *)
      (match Frame.parse b.Pcap.data with
      | Ok got -> check Alcotest.bool "tpp frame survives" true (Option.is_some got.Frame.tpp)
      | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "wrong record count")

(* The streaming writer must emit the exact bytes of the in-memory
   image, through to_channel and through write_file. *)
let test_pcap_streaming_matches_to_bytes () =
  let cap = Pcap.create ~snaplen:96 () in
  for i = 1 to 20 do
    Pcap.record cap
      ~now:(i * 1_000_000)
      (Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
         ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2)
         ~src_port:1 ~dst_port:2
         ~payload:(Bytes.make (40 + (i mod 5)) 'x')
         ())
  done;
  let image = Pcap.to_bytes cap in
  let path = Filename.temp_file "tpp_pcap" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pcap.write_file cap path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let streamed = Bytes.create len in
      really_input ic streamed 0 len;
      close_in ic;
      check Alcotest.bool "write_file emits to_bytes image" true
        (Bytes.equal image streamed));
  match Pcap.parse image with
  | Ok records -> check Alcotest.int "all records parse back" 20 (List.length records)
  | Error e -> Alcotest.fail e

let test_pcap_rejects_garbage () =
  check Alcotest.bool "short" true (Result.is_error (Pcap.parse (Bytes.create 4)));
  let bad = Pcap.to_bytes (Pcap.create ()) in
  Bytes.set_uint8 bad 0 0xFF;
  check Alcotest.bool "magic" true (Result.is_error (Pcap.parse bad))

let test_pcap_snaplen () =
  let cap = Pcap.create ~snaplen:20 () in
  Pcap.record cap ~now:0 (frame_with_ttl 64);
  match Pcap.records cap with
  | [ r ] -> check Alcotest.int "truncated" 20 (Bytes.length r.Pcap.data)
  | _ -> Alcotest.fail "one record"

let test_pcap_tap_host () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:1 ~hosts_per_switch:2 ~bps:(mbps 100)
      ~delay:(Time_ns.us 10) ()
  in
  let net = chain.Topology.net in
  let a = chain.Topology.hosts.(0).(0) and b = chain.Topology.hosts.(0).(1) in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let hits = ref 0 in
  Stack.on_udp sb ~port:9000 (fun ~now:_ _ -> incr hits);
  let cap = Pcap.create () in
  Pcap.tap_host cap net b;
  for _ = 1 to 5 do
    Stack.send_udp sa ~dst:b ~src_port:9000 ~dst_port:9000 ~payload:Bytes.empty ()
  done;
  Engine.run eng ~until:(Time_ns.ms 10);
  check Alcotest.int "captured all" 5 (Pcap.length cap);
  check Alcotest.int "app still sees traffic" 5 !hits

let suite =
  [
    Alcotest.test_case "ttl decrement" `Quick test_ttl_decremented_on_routing;
    Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry_drops;
    Alcotest.test_case "ttl untouched by l2" `Quick test_ttl_not_touched_by_l2;
    Alcotest.test_case "loop killed by ttl" `Quick test_forwarding_loop_terminates;
    Alcotest.test_case "ecn marks above threshold" `Quick test_ecn_marks_above_threshold;
    Alcotest.test_case "ecn off by default" `Quick test_ecn_disabled_by_default;
    Alcotest.test_case "ecn on the wire" `Quick test_ecn_survives_serialization;
    Alcotest.test_case "dctcp reacts to marks" `Slow test_dctcp_reacts_to_marks;
    Alcotest.test_case "default single queue" `Quick test_default_single_queue_unchanged;
    Alcotest.test_case "dscp classifier" `Quick test_classifier_spreads_by_dscp;
    Alcotest.test_case "strict priority scheduling" `Quick test_strict_priority_scheduling;
    Alcotest.test_case "wrr scheduling ratio" `Quick test_wrr_scheduling_ratio;
    Alcotest.test_case "wrr validation" `Quick test_wrr_validation;
    Alcotest.test_case "per-queue stats and isolation" `Quick
      test_per_queue_stats_and_isolation;
    Alcotest.test_case "tpp reads its own queue" `Quick test_tpp_reads_its_own_queue;
    Alcotest.test_case "EF latency under load" `Quick test_priority_latency_end_to_end;
    Alcotest.test_case "link down blackholes" `Quick test_link_down_blackholes;
    Alcotest.test_case "faultfind localises" `Quick test_faultfind_localises_chain_link;
    Alcotest.test_case "faultfind seq wraps" `Quick test_faultfind_seq_wraps;
    Alcotest.test_case "pcap roundtrip" `Quick test_pcap_roundtrip;
    Alcotest.test_case "pcap streaming writer" `Quick
      test_pcap_streaming_matches_to_bytes;
    Alcotest.test_case "pcap rejects garbage" `Quick test_pcap_rejects_garbage;
    Alcotest.test_case "pcap snaplen" `Quick test_pcap_snaplen;
    Alcotest.test_case "pcap tap" `Quick test_pcap_tap_host;
  ]
