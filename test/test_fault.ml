(* Deterministic fault injection (Tpp_sim.Fault): timeline semantics,
   corruption containment, switch freeze-restart, retry hardening, and
   the load-bearing property that a chaotic schedule produces
   bit-identical results on the sequential and sharded engines. *)

open Tpp

let check = Alcotest.check

let ms = Time_ns.ms
let us = Time_ns.us

(* One switch, two hosts, already routed. *)
let tiny () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:1 ~hosts_per_switch:2 ~bps:1_000_000_000
      ~delay:(Time_ns.us 1) ()
  in
  let net = chain.Topology.net in
  (eng, net, chain.Topology.switch_ids.(0), chain.Topology.hosts.(0))

let send_at net (src : Net.host) (dst : Net.host) t =
  Engine.at (Net.engine net) t (fun () ->
      let frame =
        Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac
          ~src_ip:src.Net.ip ~dst_ip:dst.Net.ip ~src_port:1 ~dst_port:2
          ~payload:(Bytes.create 100) ()
      in
      Net.host_send net src frame)

(* --- timeline semantics --------------------------------------------- *)

let test_timeline () =
  let _eng, net, sw, hosts = tiny () in
  let h0 = hosts.(0) in
  let link = (h0.Net.node_id, 0) in
  let f = Fault.create ~seed:1 in
  Fault.link_down f ~at:(ms 10) link;
  Fault.link_up f ~at:(ms 20) link;
  Fault.flap f ~from_:(ms 30) ~until_:(ms 50) ~period:(ms 4) ~down_for:(ms 1) link;
  Fault.attach f net;
  let expect t v = check Alcotest.bool (Printf.sprintf "t=%dns" t) v (Fault.up f link ~now:t) in
  expect 0 true;
  expect (ms 10) false;
  expect (ms 15) false;
  expect (ms 20) true;
  expect (ms 30) false;          (* flap phase: first down_for of each period *)
  expect (ms 31) true;
  expect (ms 34) false;
  expect (ms 35) true;
  expect (ms 50) true;           (* window is half-open *)
  (* Either end names the same cable (chain wires host j to switch
     port 2 + j). *)
  check Alcotest.bool "peer endpoint, same cable" false
    (Fault.up f (sw, 2) ~now:(ms 12));
  (* The real dataplane agrees with the oracle: a frame sent into the
     dark window is lost, one after restoration is delivered. *)
  let h1 = hosts.(1) in
  send_at net h0 h1 (ms 12);
  send_at net h0 h1 (ms 22);
  Engine.run (Net.engine net) ~until:(ms 25);
  check Alcotest.int "one delivered" 1 (Net.frames_delivered net);
  check Alcotest.int "one lost to the dark wire" 1 (Fault.stats f).Fault.lost_down

let test_validation () =
  let _eng, net, _sw, hosts = tiny () in
  let link = (hosts.(0).Net.node_id, 0) in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "bad flap" (fun () ->
      Fault.flap (Fault.create ~seed:0) ~from_:0 ~until_:(ms 1) ~period:(ms 1)
        ~down_for:(ms 2) link);
  raises "bad rate" (fun () ->
      Fault.degrade (Fault.create ~seed:0) ~from_:0 ~until_:(ms 1)
        ~rate_factor:1.5 link);
  raises "bad probability" (fun () ->
      Fault.lossy (Fault.create ~seed:0) ~from_:0 ~until_:(ms 1) ~drop:0.8
        ~corrupt:0.4 link);
  raises "empty window" (fun () ->
      Fault.freeze (Fault.create ~seed:0) ~from_:(ms 2) ~until_:(ms 2) 0);
  raises "unlinked port" (fun () ->
      let f = Fault.create ~seed:0 in
      Fault.link_down f ~at:0 (hosts.(0).Net.node_id, 3);
      Fault.attach f net);
  (* Freezing a host is rejected at attach (hosts have no SRAM). *)
  raises "freeze host" (fun () ->
      let f = Fault.create ~seed:0 in
      Fault.freeze f ~from_:0 ~until_:(ms 1) hosts.(0).Net.node_id;
      Fault.attach f net)

(* --- loss and corruption -------------------------------------------- *)

let test_corruption_never_delivered () =
  let eng, net, _sw, hosts = tiny () in
  let h0 = hosts.(0) and h1 = hosts.(1) in
  let f = Fault.create ~seed:7 in
  Fault.lossy f ~from_:0 ~until_:(ms 100) ~corrupt:1.0 (h0.Net.node_id, 0);
  Fault.attach f net;
  let n = 50 in
  for j = 0 to n - 1 do
    send_at net h0 h1 (1 + (j * 10_000))
  done;
  Engine.run eng ~until:(ms 100);
  let s = Fault.stats f in
  check Alcotest.int "nothing delivered" 0 (Net.frames_delivered net);
  check Alcotest.int "every frame corrupted and caught" n
    (s.Fault.corrupt_header + s.Fault.corrupt_fcs);
  (* Both detection layers fire across 50 random bit positions: headers
     catch flips in parsed bytes, the FCS catches the rest. *)
  check Alcotest.bool "header checks caught some" true (s.Fault.corrupt_header > 0);
  check Alcotest.bool "frame check caught some" true (s.Fault.corrupt_fcs > 0)

let test_drop_probability () =
  let eng, net, _sw, hosts = tiny () in
  let h0 = hosts.(0) and h1 = hosts.(1) in
  let f = Fault.create ~seed:11 in
  Fault.lossy f ~from_:0 ~until_:(Time_ns.sec 1) ~drop:0.5 (h0.Net.node_id, 0);
  Fault.attach f net;
  let n = 200 in
  for j = 0 to n - 1 do
    send_at net h0 h1 (1 + (j * 10_000))
  done;
  Engine.run eng ~until:(Time_ns.sec 1);
  let s = Fault.stats f in
  check Alcotest.int "conservation" n (Net.frames_delivered net + s.Fault.dropped);
  check Alcotest.bool "roughly half dropped" true
    (s.Fault.dropped > 60 && s.Fault.dropped < 140)

let test_freeze_restart () =
  let eng, net, sw_node, hosts = tiny () in
  let h0 = hosts.(0) and h1 = hosts.(1) in
  let f = Fault.create ~seed:3 in
  Fault.freeze f ~from_:(ms 5) ~until_:(ms 10) sw_node;
  Fault.attach f net;
  let st = Switch.state (Net.switch net sw_node) in
  ignore (Switch_state.sram_set st 0 42);
  send_at net h0 h1 (ms 6);   (* arrives at the frozen switch: vanishes *)
  send_at net h0 h1 (ms 12);  (* after restart: delivered *)
  Engine.run eng ~until:(ms 20);
  check Alcotest.bool "frozen inside window" true (Fault.frozen f sw_node ~now:(ms 7));
  check Alcotest.bool "thawed after" false (Fault.frozen f sw_node ~now:(ms 10));
  let s = Fault.stats f in
  check Alcotest.int "arrival vanished" 1 s.Fault.frozen_arrivals;
  check Alcotest.int "one restart" 1 s.Fault.restarts;
  check Alcotest.int "SRAM wiped" 0
    (Switch_state.sram_get st 0);
  check Alcotest.int "post-restart frame delivered" 1 (Net.frames_delivered net)

(* The net and the fault schedule each register one handlers record on
   the same engine, and every typed event must reach the record that
   scheduled it: a frame misrouted to the schedule's no-op dequeue or
   delivery would never arrive, a restart misrouted to the net's no-op
   would wipe nothing. Each frame costs five events (its send thunk,
   two dequeues, two deliveries); the second is sent at the restart's
   nanosecond. *)
let test_two_handler_records () =
  let eng, net, sw_node, hosts = tiny () in
  let h0 = hosts.(0) and h1 = hosts.(1) in
  let f = Fault.create ~seed:3 in
  Fault.freeze f ~from_:(ms 5) ~until_:(ms 10) sw_node;
  Fault.attach f net;
  send_at net h0 h1 (ms 1);
  send_at net h0 h1 (ms 10);
  Engine.run eng ~until:(ms 20);
  check Alcotest.int "the net's frames arrive" 2 (Net.frames_delivered net);
  check Alcotest.int "the schedule's restart runs" 1 (Fault.stats f).Fault.restarts;
  check Alcotest.int "no other event" 11 (Engine.events_processed eng)

let test_degrade_slows () =
  (* Same frame, with and without degradation: the degraded copy must
     arrive strictly later (slower serialisation + extra propagation),
     and never earlier than the healthy one (lookahead safety). *)
  let arrival_with schedule =
    let eng, net, _sw, hosts = tiny () in
    let h0 = hosts.(0) and h1 = hosts.(1) in
    schedule net h0;
    let arrived = ref 0 in
    let prev = h1.Net.receive in
    h1.Net.receive <- (fun ~now frame -> arrived := now; prev ~now frame);
    send_at net h0 h1 (ms 1);
    Engine.run eng ~until:(ms 10);
    !arrived
  in
  let healthy = arrival_with (fun net _ -> ignore net) in
  let degraded =
    arrival_with (fun net h0 ->
        let f = Fault.create ~seed:5 in
        Fault.degrade f ~from_:0 ~until_:(ms 10) ~rate_factor:0.1
          ~extra_delay:(us 30) (h0.Net.node_id, 0);
        Fault.attach f net)
  in
  check Alcotest.bool "healthy frame arrived" true (healthy > 0);
  check Alcotest.bool "degraded arrives later" true (degraded > healthy + us 30)

(* --- retry hardening ------------------------------------------------ *)

let probe_tpp () =
  Result.get_ok (Asm.to_tpp ~mem_len:32 "PUSH [Switch:SwitchID]\n")

let test_reliable_retries_through_outage () =
  let eng, net, _sw, hosts = tiny () in
  let src = Stack.create net hosts.(0) in
  let sink = Stack.create net hosts.(1) in
  Probe.install_echo sink;
  let f = Fault.create ~seed:2 in
  (* Dark for the first 5 ms: attempt 1 (t=0) and attempt 2 (t=2ms) are
     lost; attempt 3 (t=2+3=5ms) goes through. *)
  Fault.link_down f ~at:0 (hosts.(0).Net.node_id, 0);
  Fault.link_up f ~at:(ms 5) (hosts.(0).Net.node_id, 0);
  Fault.attach f net;
  let rel = Probe.Reliable.create ~timeout:(ms 2) ~retries:3 ~backoff:1.5 src in
  let got_reply = ref false in
  ignore
    (Probe.Reliable.send rel ~dst:hosts.(1) ~tpp:(probe_tpp ())
       ~on_reply:(fun ~now:_ _ -> got_reply := true)
       ());
  Engine.run eng ~until:(ms 50);
  let s = Probe.Reliable.stats rel in
  check Alcotest.bool "reply callback fired" true !got_reply;
  check Alcotest.int "one probe" 1 s.Probe.Reliable.probes;
  check Alcotest.int "three transmissions" 3 s.Probe.Reliable.transmissions;
  check Alcotest.int "answered" 1 s.Probe.Reliable.replies;
  check Alcotest.int "no failure" 0 s.Probe.Reliable.failures;
  check Alcotest.int "nothing outstanding" 0 (Probe.Reliable.outstanding rel);
  (* The stack counters see the retries and the one echo. *)
  check Alcotest.int "src sent = transmissions" 3 (Stack.udp_sent src);
  check Alcotest.int "src received the echo" 1 (Stack.udp_received src)

let test_reliable_gives_up () =
  let eng, net, _sw, hosts = tiny () in
  let src = Stack.create net hosts.(0) in
  let sink = Stack.create net hosts.(1) in
  Probe.install_echo sink;
  let f = Fault.create ~seed:2 in
  Fault.link_down f ~at:0 (hosts.(0).Net.node_id, 0);
  Fault.attach f net;
  let rel = Probe.Reliable.create ~timeout:(ms 2) ~retries:2 src in
  let failed = ref false in
  ignore
    (Probe.Reliable.send rel ~dst:hosts.(1) ~tpp:(probe_tpp ())
       ~on_fail:(fun ~now:_ -> failed := true)
       ());
  Engine.run eng ~until:(ms 50);
  let s = Probe.Reliable.stats rel in
  check Alcotest.bool "failure callback fired" true !failed;
  check Alcotest.int "1 + retries transmissions" 3 s.Probe.Reliable.transmissions;
  check Alcotest.int "abandoned" 1 s.Probe.Reliable.failures;
  check Alcotest.int "no replies" 0 s.Probe.Reliable.replies;
  check Alcotest.int "nothing outstanding" 0 (Probe.Reliable.outstanding rel)

(* --- determinism under sharding ------------------------------------- *)

(* Flaps, loss with corruption, freeze-restart and degradation at once
   ({!Scenario.chaos_schedule}): every fault class must fire, and the
   sharded runs must reproduce the sequential one, fault counters
   included. *)
let chaos =
  Scenario.spec "chaos-k4" (Fat_tree 4) Collect ~packets:60 ~chaos:Chaotic
    ~shards:[ 2; 4; 8 ] ~asserts:[ Scenario.faults_fire ]
    ~why:"every fault class at once stays bit-identical sequential vs sharded"

(* --- localisation scenario matrix ------------------------------------ *)

let scenario_case scenario ~max_detection_ms () =
  let r = Faults.run_scenario ~seed:42 scenario in
  let name = Faults.scenario_name scenario in
  check Alcotest.bool (name ^ ": circuits degraded") true
    (r.Faults.sc_degraded_circuits > 0);
  check Alcotest.bool
    (Printf.sprintf "%s: detected within %.0f ms" name max_detection_ms)
    true
    (r.Faults.sc_detection_ms <= max_detection_ms);
  check Alcotest.bool (name ^ ": suspects nonempty") true
    (r.Faults.sc_suspects <> []);
  check Alcotest.bool (name ^ ": suspect set stays small") true
    (List.length r.Faults.sc_suspects <= 4);
  check Alcotest.bool (name ^ ": true link(s) localised") true
    r.Faults.sc_localised

let suite =
  [
    Alcotest.test_case "timeline: down/up/flap" `Quick test_timeline;
    Alcotest.test_case "rule validation" `Quick test_validation;
    Alcotest.test_case "corruption is always caught" `Quick
      test_corruption_never_delivered;
    Alcotest.test_case "drop probability" `Quick test_drop_probability;
    Alcotest.test_case "freeze wipes SRAM on restart" `Quick test_freeze_restart;
    Alcotest.test_case "net and fault handlers on one engine" `Quick
      test_two_handler_records;
    Alcotest.test_case "degrade only slows" `Quick test_degrade_slows;
    Alcotest.test_case "reliable probe retries through outage" `Quick
      test_reliable_retries_through_outage;
    Alcotest.test_case "reliable probe gives up cleanly" `Quick
      test_reliable_gives_up;
    Alcotest.test_case "chaos matches sequential (2/4/8 shards)" `Quick
      (Test_scenario.case chaos);
    Alcotest.test_case "localise: permanent failure" `Quick
      (scenario_case Faults.Permanent ~max_detection_ms:100.0);
    Alcotest.test_case "localise: flapping link" `Quick
      (scenario_case Faults.Flap ~max_detection_ms:500.0);
    Alcotest.test_case "localise: two simultaneous failures" `Quick
      (scenario_case Faults.Dual_failure ~max_detection_ms:100.0);
    Alcotest.test_case "localise: lossy link" `Quick
      (scenario_case Faults.Lossy_link ~max_detection_ms:500.0);
  ]
