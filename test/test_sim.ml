(* Simulator tests: the event engine, link timing, delivery through
   switches, topology builders and route installation. *)

open Tpp

let check = Alcotest.check

(* --- Engine -------------------------------------------------------------- *)

let test_engine_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.at eng 30 (fun () -> log := 30 :: !log);
  Engine.at eng 10 (fun () -> log := 10 :: !log);
  Engine.at eng 20 (fun () -> log := 20 :: !log);
  Engine.run eng ~until:100;
  check (Alcotest.list Alcotest.int) "time order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "clock advanced to until" 100 (Engine.now eng);
  check Alcotest.int "events counted" 3 (Engine.events_processed eng)

let test_engine_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  List.iter (fun i -> Engine.at eng 5 (fun () -> log := i :: !log)) [ 1; 2; 3 ];
  Engine.run eng ~until:10;
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3 ] (List.rev !log)

let test_engine_no_past_scheduling () =
  let eng = Engine.create () in
  Engine.at eng 50 (fun () -> ());
  Engine.run eng ~until:100;
  Alcotest.check_raises "past" (Invalid_argument "Engine.at: scheduling in the past")
    (fun () -> Engine.at eng 50 (fun () -> ()))

let test_engine_nested_scheduling () =
  let eng = Engine.create () in
  let fired = ref 0 in
  Engine.at eng 10 (fun () ->
      Engine.after eng 5 (fun () -> fired := Engine.now eng));
  Engine.run eng ~until:100;
  check Alcotest.int "nested event at 15" 15 !fired

let test_engine_every () =
  let eng = Engine.create () in
  let count = ref 0 in
  Engine.every eng ~period:10 ~until:55 (fun () -> incr count);
  Engine.run eng ~until:100;
  check Alcotest.int "five periods fit before 55" 5 !count

let test_engine_every_past_start () =
  let eng = Engine.create () in
  Engine.at eng 10 (fun () -> ());
  Engine.run eng ~until:50;
  let expect_raise start =
    Alcotest.check_raises "every start rejected"
      (Invalid_argument "Engine.every: start in the past") (fun () ->
        Engine.every eng ~start ~period:10 ~until:200 (fun () -> ()))
  in
  expect_raise 20;
  (* strictly before the clock *)
  expect_raise 50;
  (* exactly at the clock is also rejected *)
  let fired = ref 0 in
  Engine.every eng ~start:60 ~period:10 ~until:80 (fun () -> incr fired);
  Engine.run eng ~until:100;
  check Alcotest.int "future start fires" 3 !fired

(* --- Engine.Loop ----------------------------------------------------------- *)

(* A loop firing every 10 ns from 0 that logs its firing times. *)
let logging_loop eng log () =
  log := Engine.now eng :: !log;
  10

let test_loop_restart_fires_once_per_period () =
  let eng = Engine.create () in
  let loop = Engine.Loop.create eng in
  let log = ref [] in
  Engine.Loop.start loop (logging_loop eng log);
  (* At 15, stop and start again: the firing still queued for 20 must
     stay a no-op, so the restarted loop alone fires, at 15, 25, 35. *)
  Engine.at eng 15 (fun () ->
      Engine.Loop.stop loop;
      Engine.Loop.start loop (logging_loop eng log));
  Engine.run eng ~until:40;
  check (Alcotest.list Alcotest.int) "firing times" [ 0; 10; 15; 25; 35 ]
    (List.rev !log);
  check Alcotest.bool "running" true (Engine.Loop.running loop);
  (* A start while running changes nothing. *)
  Engine.Loop.start loop (logging_loop eng log);
  Engine.run eng ~until:50;
  check (Alcotest.list Alcotest.int) "no second loop" [ 0; 10; 15; 25; 35; 45 ]
    (List.rev !log)

let test_loop_past_start_clamps_to_now () =
  let eng = Engine.create () in
  Engine.run eng ~until:100;
  let loop = Engine.Loop.create eng in
  let log = ref [] in
  Engine.Loop.start loop ~at:40 (logging_loop eng log);
  Engine.run eng ~until:125;
  check (Alcotest.list Alcotest.int) "from now" [ 100; 110; 120 ] (List.rev !log)

let test_loop_negative_delay_ends () =
  let eng = Engine.create () in
  let loop = Engine.Loop.create eng in
  let fired = ref 0 in
  Engine.Loop.start loop ~at:5 (fun () ->
      incr fired;
      if !fired < 3 then 10 else -1);
  check Alcotest.bool "running before the first firing" true
    (Engine.Loop.running loop);
  Engine.run eng ~until:1_000;
  check Alcotest.int "three firings" 3 !fired;
  check Alcotest.bool "ended" false (Engine.Loop.running loop);
  check Alcotest.int "nothing left queued" 3 (Engine.events_processed eng);
  Engine.Loop.start loop (fun () -> incr fired; -1);
  Engine.run eng ~until:2_000;
  check Alcotest.int "restartable" 4 !fired

(* Re-arming pushes the loop's one closure again: once the slab and
   wheel are warm, 10k firings allocate nothing. *)
let test_loop_warm_rearm_allocates_nothing () =
  let eng = Engine.create () in
  let loop = Engine.Loop.create eng in
  let fired = ref 0 in
  Engine.Loop.start loop (fun () -> incr fired; 7);
  Engine.run eng ~until:1_000;
  let w0 = Gc.minor_words () in
  Engine.run eng ~until:71_000;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "firings" 10_143 !fired;
  check (Alcotest.float 0.0) "minor words of warm firings" 0.0 words

let test_engine_next_event_time () =
  let eng = Engine.create () in
  check (Alcotest.option Alcotest.int) "empty" None (Engine.next_event_time eng);
  Engine.at eng 42 (fun () -> ());
  Engine.at eng 17 (fun () -> ());
  check (Alcotest.option Alcotest.int) "min pending" (Some 17)
    (Engine.next_event_time eng);
  Engine.run eng ~until:30;
  check (Alcotest.option Alcotest.int) "after partial run" (Some 42)
    (Engine.next_event_time eng)

let test_engine_run_until_is_exclusive_of_later_events () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.at eng 100 (fun () -> fired := true);
  Engine.run eng ~until:50;
  check Alcotest.bool "not yet" false !fired;
  Engine.run eng ~until:150;
  check Alcotest.bool "then fires" true !fired

(* An event at max_int must be a real event, not an empty-queue
   sentinel: the run loop tests emptiness explicitly. *)
let test_engine_max_int_event () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.at eng max_int (fun () -> fired := true);
  Engine.run eng ~until:(max_int - 1);
  check Alcotest.bool "not an empty-queue sentinel" false !fired;
  check
    (Alcotest.option Alcotest.int)
    "still queued" (Some max_int)
    (Engine.next_event_time eng);
  Engine.run eng ~until:max_int;
  check Alcotest.bool "fires at the end of time" true !fired

(* Typed events round-trip through the wheel: node, port and the frame
   come back through the registered handlers record. Same-timestamp events fire in
   the canonical (kind, node, port) tie order — thunks, then deliveries,
   then dequeues — not push order (DESIGN.md §11). *)
let test_engine_typed_dispatch () =
  let eng = Engine.create () in
  let log = ref [] in
  let h =
    Engine.register eng
      {
        Engine.on_deliver =
          (fun ~node ~port frame ->
            log := ("deliver", node, port, Frame.payload_len frame) :: !log);
        on_dequeue = (fun ~node ~port -> log := ("dequeue", node, port, 0) :: !log);
        on_restart = (fun ~node -> log := ("restart", node, 0, 0) :: !log);
      }
  in
  let frame =
    Frame.udp_frame ~src_mac:(Tpp_packet.Mac.of_host_id 1)
      ~dst_mac:(Tpp_packet.Mac.of_host_id 2)
      ~src_ip:(Tpp_packet.Ipv4.Addr.of_host_id 1)
      ~dst_ip:(Tpp_packet.Ipv4.Addr.of_host_id 2) ~src_port:1 ~dst_port:2
      ~payload:(Bytes.create 7) ()
  in
  Engine.dequeue_at eng 10 ~emitted:(Engine.now eng) h ~node:3 ~port:1;
  Engine.deliver_at eng 10 ~emitted:(Engine.now eng) h ~node:4 ~port:0 frame;
  Engine.at eng 10 (fun () -> log := ("thunk", 0, 0, 0) :: !log);
  Engine.restart_at eng 20 h ~node:9;
  Engine.dequeue_at eng 30 ~emitted:(Engine.now eng) h ~node:5 ~port:2;
  Engine.run eng ~until:100;
  check
    (Alcotest.list
       (Alcotest.pair
          (Alcotest.pair Alcotest.string Alcotest.int)
          (Alcotest.pair Alcotest.int Alcotest.int)))
    "typed dispatch order"
    [
      (("thunk", 0), (0, 0));
      (("deliver", 4), (0, 7));
      (("dequeue", 3), (1, 0));
      (("restart", 9), (0, 0));
      (("dequeue", 5), (2, 0));
    ]
    (List.rev_map (fun (k, a, b, c) -> ((k, a), (b, c))) !log);
  check Alcotest.int "all five processed" 5 (Engine.events_processed eng)

(* Node and port take 20 bits each of the event's tie key. An id beyond
   them would spill into the next field — a delivery to node 2^20 would
   fire as a dequeue — so scheduling one fails loudly instead. *)
let test_engine_id_range () =
  let eng = Engine.create () in
  let log = ref [] in
  let h =
    Engine.register eng
      {
        Engine.on_deliver = (fun ~node ~port _ -> log := ("deliver", node, port) :: !log);
        on_dequeue = (fun ~node ~port -> log := ("dequeue", node, port) :: !log);
        on_restart = (fun ~node -> log := ("restart", node, 0) :: !log);
      }
  in
  let frame = Frame.placeholder () in
  let top = (1 lsl Engine.max_id_bits) - 1 in
  let refused name f =
    Alcotest.check_raises name
      (Invalid_argument "Engine: node or port id outside 0 .. 2^20-1") f
  in
  refused "delivery to node 2^20" (fun () ->
      Engine.deliver_at eng 10 ~emitted:0 h ~node:(top + 1) ~port:0 frame);
  refused "dequeue on port 2^20" (fun () ->
      Engine.dequeue_at eng 10 ~emitted:0 h ~node:0 ~port:(top + 1));
  refused "restart of a negative node" (fun () -> Engine.restart_at eng 10 h ~node:(-1));
  Engine.deliver_at eng 10 ~emitted:0 h ~node:top ~port:top frame;
  Engine.restart_at eng 20 h ~node:top;
  Engine.run eng ~until:100;
  check
    (Alcotest.list
       (Alcotest.triple Alcotest.string Alcotest.int Alcotest.int))
    "the largest ids keep their kind" [ ("deliver", top, top); ("restart", top, 0) ]
    (List.rev !log)

(* The typed event core allocates nothing: 64 self-rescheduling port
   dequeues, each on its own stride so the wheel always holds events at
   mixed horizons and cascades, fire 200k times inside one [Engine.run].
   [Gc.minor_words] is exact (unlike [Gc.quick_stat], which only moves
   at minor collections), so the budget is exactly zero words. *)
let test_engine_typed_core_allocates_nothing () =
  let eng = Engine.create () in
  let events = 200_000 in
  let budget = ref events in
  let stride node = 1 + ((node * 7919) land 0xFFFF) in
  let h = ref Engine.no_handle in
  h :=
    Engine.register eng
      {
        Engine.on_deliver = (fun ~node:_ ~port:_ _ -> ());
        on_dequeue =
          (fun ~node ~port ->
            if !budget > 0 then begin
              decr budget;
              Engine.dequeue_at eng (Engine.now eng + stride node)
                ~emitted:(Engine.now eng) !h ~node ~port
            end);
        on_restart = (fun ~node:_ -> ());
      };
  for node = 0 to 63 do
    Engine.dequeue_at eng (stride node) ~emitted:0 !h ~node ~port:0
  done;
  let w0 = Gc.minor_words () in
  Engine.run eng ~until:max_int;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "events fired" (events + 64) (Engine.events_processed eng);
  check (Alcotest.float 0.0) "minor words across Engine.run" 0.0 words

(* The wheel's work per event, as a count that repeats exactly: every
   host of a k=4 fat-tree (10 Gb/s, 1 us links) sends 200 pooled 64-byte
   UDP frames, one every 4 us, to a host in another pod. Every port is
   idle when a frame comes, so a hop is a cut-through with no completion
   event (two events in the model, one wheel entry): a 1-us delivery,
   filed twice, as the wheel's 1024-ns near window is shorter. A model
   that queued every completion, each filed once, read 1.57 filings per
   event; a level 0 only 32 ns wide, 2.54. *)
let test_wheel_placements_per_event () =
  let eng = Engine.create () in
  let ft = Topology.fat_tree eng ~k:4 ~bps:10_000_000_000 ~delay:1_000 () in
  let net = ft.Topology.f_net and hosts = ft.Topology.f_hosts in
  let n = Array.length hosts and frames = 200 in
  let payload = Bytes.create 64 in
  Array.iteri
    (fun i (s : Net.host) ->
      let d = hosts.((i + (n / 2)) mod n) and pool = Frame.Pool.create () in
      let rec tick j () =
        Net.host_send net s
          (Frame.Pool.udp_frame pool ~src_mac:s.Net.mac ~dst_mac:d.Net.mac
             ~src_ip:s.Net.ip ~dst_ip:d.Net.ip ~src_port:(1000 + i) ~dst_port:7
             ~payload ());
        if j + 1 < frames then Engine.after eng 4_000 (tick (j + 1))
      in
      Engine.at eng (i * 397 mod 4_000) (tick 0))
    hosts;
  Engine.run eng ~until:(Time_ns.ms 2);
  check Alcotest.int "every frame delivered" (n * frames) (Net.frames_delivered net);
  let per_event =
    float_of_int (Engine.wheel_placements eng)
    /. float_of_int (Engine.events_processed eng)
  in
  if per_event > 1.2 then
    Alcotest.failf "%.3f wheel placements per event (pin: <= 1.2)" per_event;
  (* What carries it: completions queued per transmission and the share
     of switch hops that skipped the egress ring, 1.0 and 0 when every
     frame queued and every transmission queued its completion. *)
  let hops =
    List.fold_left
      (fun a (_, sw) -> a + (Switch.state sw).Tpp_asic.State.packets_seen)
      0 (Net.switches net)
  in
  let queued =
    float_of_int (Net.completions_queued net) /. float_of_int (Net.transmissions net)
  and cut = float_of_int (Net.cut_through net) /. float_of_int hops in
  if queued > 0.05 then
    Alcotest.failf "%.3f completions queued per transmission (pin: <= 0.05)" queued;
  if cut < 0.95 then
    Alcotest.failf "%.3f of switch hops cut through (pin: >= 0.95)" cut

(* --- Net forwarding allocation ------------------------------------------- *)

let ignore_card _ ~off:_ = ()

(* Forwarding rounds in a warm k=4 fat-tree. Each round sends one
   pooled frame from every host to the host opposite it, from a loop
   outside the engine, then runs the engine until all are delivered.
   [tpp i] is host [i]'s TPP option; [tap] installs a binary postcard
   tap on every switch and drains it after each round. A first round
   warms the pools, NIC rings, wire-check shapes, compile caches and
   the switches' lazily built port state; the minor words of the 200
   rounds after it are returned with the frames they sent and the net. *)
let warm_forwarding_words ?tap ?(tpp = fun _ -> None) () =
  let rounds = 200 in
  let eng = Engine.create () in
  let ft =
    Topology.fat_tree eng ~k:4 ~bps:1_000_000_000 ~delay:1_000 ()
  in
  let net = ft.Topology.f_net and hosts = ft.Topology.f_hosts in
  let n = Array.length hosts in
  let pools = Array.map (fun _ -> Frame.Pool.create ()) hosts in
  let payload = Bytes.create 64 in
  let drain =
    match tap with
    | None -> ignore
    | Some sink ->
      Telemetry_emit.tap_switches sink net;
      fun () -> Telemetry_sink.drain sink ignore_card
  in
  let round r =
    for i = 0 to n - 1 do
      let s = hosts.(i) and d = hosts.((i + (n / 2)) mod n) in
      Net.host_send net s
        (Frame.Pool.udp_frame pools.(i) ~src_mac:s.Net.mac ~dst_mac:d.Net.mac
           ~src_ip:s.Net.ip ~dst_ip:d.Net.ip ~src_port:(1000 + i) ~dst_port:7
           ?tpp:(tpp i) ~payload ())
    done;
    Engine.run eng ~until:(Time_ns.ms (r + 1));
    drain ()
  in
  round 0;
  let w0 = Gc.minor_words () in
  for r = 1 to rounds do
    round r
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "every frame delivered" ((rounds + 1) * n)
    (Net.frames_delivered net);
  check Alcotest.int "one frame per pool" n
    (Array.fold_left (fun a p -> a + Frame.Pool.created p) 0 pools);
  (words, rounds * n, net)

(* A warm frame hop through [Net] allocates nothing: host NIC, links,
   switch ingress and egress, delivery and recycling, 5 switch hops per
   frame here. Together with the engine, switch and TPP tests this pins
   the whole sequential dataplane at zero words per hop. *)
let test_warm_net_forwarding_allocates_nothing () =
  let words, _, _ = warm_forwarding_words () in
  check (Alcotest.float 0.0) "minor words across warm forwarding" 0.0 words

let test_warm_net_postcards_allocate_nothing () =
  let sink = Telemetry_sink.create () in
  let words, sends, _ = warm_forwarding_words ~tap:sink () in
  check Alcotest.bool "cards emitted" true (Telemetry_sink.emitted sink >= sends);
  check Alcotest.int "no card dropped" 0 (Telemetry_sink.dropped sink);
  check (Alcotest.float 0.0) "minor words across tapped forwarding" 0.0 words

(* Pooled TPP frames: the only allocation is the [Some] the sender boxes
   its copy of the template in, 2 words per send. *)
let test_warm_net_tpp_forwarding_allocates_only_the_option () =
  let templates =
    Array.of_list
      (List.map
         (fun (name, src) ->
           match Programs.build src with
           | Ok tpp -> tpp
           | Error e -> Alcotest.failf "%s: %s" name e)
         Programs.all)
  in
  let tpp i = Some (Prog.copy templates.(i mod Array.length templates)) in
  let words, sends, net = warm_forwarding_words ~tpp () in
  let execs =
    List.fold_left
      (fun a (_, sw) -> a + (Switch.state sw).Switch_state.tpp_execs)
      0 (Net.switches net)
  in
  (* Every frame, the warm round's 16 included, crosses the core: 5
     switch hops, each running its TPP. *)
  check Alcotest.int "a TPP ran on every switch hop" (5 * (sends + 16)) execs;
  check (Alcotest.float 0.0) "minor words across warm TPP forwarding"
    (float_of_int (2 * sends)) words

(* --- Net timing ------------------------------------------------------------ *)

(* One switch between two hosts; both links 100 Mb/s, 1 ms propagation. *)
let two_hosts () =
  let eng = Engine.create () in
  let net = Net.create eng in
  let sw = Switch.create ~id:1 ~num_ports:2 () in
  let sw_id = Net.add_switch net sw in
  let a = Net.add_host net ~name:"a" in
  let b = Net.add_host net ~name:"b" in
  Net.connect net (a.Net.node_id, 0) (sw_id, 0) ~bps:100_000_000 ~delay:(Time_ns.ms 1);
  Net.connect net (b.Net.node_id, 0) (sw_id, 1) ~bps:100_000_000 ~delay:(Time_ns.ms 1);
  Topology.install_routes net;
  (eng, net, a, b)

let test_delivery_and_latency () =
  let eng, net, a, b = two_hosts () in
  let arrival = ref (-1) in
  b.Net.receive <- (fun ~now _ -> arrival := now);
  let frame =
    Frame.udp_frame ~src_mac:a.Net.mac ~dst_mac:b.Net.mac ~src_ip:a.Net.ip
      ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2 ~payload:(Bytes.create 954) ()
  in
  let wire = Frame.wire_size frame in
  check Alcotest.int "1000B on the wire" 1000 wire;
  Net.host_send net a frame;
  Engine.run eng ~until:(Time_ns.ms 10);
  (* Two store-and-forward hops: 2 x (80us serialisation + 1ms delay). *)
  check Alcotest.int "latency" (2 * (80_000 + 1_000_000)) !arrival;
  check Alcotest.int "delivered counter" 1 (Net.frames_delivered net)

let test_fifo_no_reordering () =
  let eng, net, a, b = two_hosts () in
  let seen = ref [] in
  b.Net.receive <- (fun ~now:_ frame ->
      seen := Frame.payload_u32 frame 0 :: !seen);
  for i = 1 to 50 do
    let payload = Bytes.create 100 in
    Tpp_util.Buf.set_u32i payload 0 i;
    let frame =
      Frame.udp_frame ~src_mac:a.Net.mac ~dst_mac:b.Net.mac ~src_ip:a.Net.ip
        ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2 ~payload ()
    in
    Net.host_send net a frame
  done;
  Engine.run eng ~until:(Time_ns.sec 1);
  check (Alcotest.list Alcotest.int) "in order" (List.init 50 (fun i -> i + 1))
    (List.rev !seen);
  check Alcotest.int "all delivered" 50 (Net.frames_delivered net)

(* The event path pinned to literal goldens: 50 frames of varying size
   through a store-and-forward switch, with plenty of same-timestamp
   ties between NIC, switch and delivery events. The arrival times,
   delivery count and event count were recorded when the closure-event
   and binary-heap engines still existed to agree with this one; any
   change to event ordering or timing shows up here. *)
let event_path_golden_arrivals =
  [ 2017120; 2025840; 2034640; 2043520; 2052480; 2061520; 2070000; 2078560;
    2087200; 2095920; 2104720; 2113600; 2122560; 2131040; 2139600; 2148240;
    2156960; 2165760; 2174640; 2183600; 2192080; 2200640; 2209280; 2218000;
    2226800; 2235680; 2244640; 2253120; 2261680; 2270320; 2279040; 2287840;
    2296720; 2305680; 2314160; 2322720; 2331360; 2340080; 2348880; 2357760;
    2366720; 2375200; 2383760; 2392400; 2401120; 2409920; 2418800; 2427760;
    2436240; 2444800 ]

let test_event_path_goldens () =
  let eng, net, a, b = two_hosts () in
  let arrivals = ref [] in
  b.Net.receive <- (fun ~now _ -> arrivals := now :: !arrivals);
  for i = 1 to 50 do
    let payload = Bytes.create (60 + (i mod 7)) in
    let frame =
      Frame.udp_frame ~src_mac:a.Net.mac ~dst_mac:b.Net.mac ~src_ip:a.Net.ip
        ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2 ~payload ()
    in
    Net.host_send net a frame
  done;
  Engine.run eng ~until:(Time_ns.sec 1);
  check (Alcotest.list Alcotest.int) "arrival timestamps"
    event_path_golden_arrivals (List.rev !arrivals);
  check Alcotest.int "delivered" 50 (Net.frames_delivered net);
  check Alcotest.int "events" 200 (Engine.events_processed eng)

let test_wire_check_exercised () =
  (* host_send round-trips the first frame of each header layout; a
     frame that round-trips fine must arrive, and the parse error path
     is covered by test_isa. *)
  let eng, net, a, b = two_hosts () in
  let got_tpp = ref false in
  b.Net.receive <- (fun ~now:_ frame -> got_tpp := Option.is_some frame.Frame.tpp);
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:16 "PUSH [Switch:SwitchID]\n") in
  let frame =
    Frame.udp_frame ~src_mac:a.Net.mac ~dst_mac:b.Net.mac ~src_ip:a.Net.ip
      ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2 ~tpp ~payload:Bytes.empty ()
  in
  Net.host_send net a frame;
  Engine.run eng ~until:(Time_ns.ms 10);
  check Alcotest.bool "TPP survived the wire" true !got_tpp

(* A frame whose headers cannot round-trip (IPv4 ethertype announced but
   the IP header ripped out, so the wire image truncates) must be
   rejected at the NIC: its header layout is new, so it gets the full
   round trip, as the first frame sent and after a healthy layout
   alike. *)
let corrupted_frame a b =
  let frame =
    Frame.udp_frame ~src_mac:a.Net.mac ~dst_mac:b.Net.mac ~src_ip:a.Net.ip
      ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ()
  in
  (* Truncate the wire image to the Ethernet header while the
     ethertype still announces IPv4: the parse must fail. *)
  frame.Frame.len <- 14;
  frame.Frame.ip_off <- -1;
  frame.Frame.udp_off <- -1;
  frame.Frame.pay_off <- 14;
  frame

let expect_wire_check_failure net a frame =
  match Net.host_send net a frame with
  | () -> Alcotest.fail "corrupted frame passed the wire check"
  | exception Failure msg ->
    check Alcotest.bool "diagnostic names the round-trip" true
      (String.length msg > 0
      && String.sub msg 0 (min 17 (String.length msg)) = "Net.host_send: fr")

let test_wire_check_catches_corruption () =
  let _eng, net, a, b = two_hosts () in
  expect_wire_check_failure net a (corrupted_frame a b)

let test_wire_check_catches_new_shape () =
  let _eng, net, a, b = two_hosts () in
  (* Warm the cache with a healthy frame of a different shape first. *)
  let ok =
    Frame.udp_frame ~src_mac:a.Net.mac ~dst_mac:b.Net.mac ~src_ip:a.Net.ip
      ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2 ~payload:(Bytes.create 8) ()
  in
  Net.host_send net a ok;
  expect_wire_check_failure net a (corrupted_frame a b)

(* The reference injection: the frame's parsed wire image travels in
   its place, as a byte-faithful network would carry it. *)
let send_wire_image net host frame =
  match Frame.parse (Frame.serialize frame) with
  | Ok wire -> Net.host_send net host wire
  | Error e -> Alcotest.failf "frame failed its wire round trip: %s" e

(* Forwarding the sender's own frame must not change what the
   simulation computes: same workload, same deliveries at the same
   instants, the same TPP packet memory on arrival and the same switch
   registers as sending every frame's parsed wire image. *)
let test_forwarding_matches_wire_images () =
  let tpp =
    Result.get_ok
      (Asm.to_tpp ~mem_len:16
         "PUSH [Switch:SwitchID]\nPUSH [Link:QueueSize]\nADD [Sram:7], 1\n")
  in
  let run send =
    let eng, net, a, b = two_hosts () in
    let arrivals = ref [] in
    b.Net.receive <-
      (fun ~now frame ->
        let memory =
          match frame.Frame.tpp with
          | Some s -> List.map string_of_int (s.Prog.hop :: Prog.words s)
          | None -> []
        in
        arrivals :=
          Printf.sprintf "%d %d [%s]" now (Frame.payload_len frame)
            (String.concat " " memory)
          :: !arrivals);
    for i = 1 to 30 do
      let frame =
        Frame.udp_frame ~src_mac:a.Net.mac ~dst_mac:b.Net.mac ~src_ip:a.Net.ip
          ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2
          ?tpp:(if i mod 3 = 0 then Some (Prog.copy tpp) else None)
          ~payload:(Bytes.make (100 + (i mod 3)) (Char.chr i))
          ()
      in
      send net a frame
    done;
    Engine.run eng ~until:(Time_ns.sec 1);
    let registers =
      List.concat_map
        (fun (_, sw) -> Array.to_list (Switch_state.sram_array (Switch.state sw)))
        (Net.switches net)
    in
    (List.rev !arrivals, registers)
  in
  let arrivals, registers = run Net.host_send in
  let wire_arrivals, wire_registers = run send_wire_image in
  check Alcotest.int "all delivered" 30 (List.length arrivals);
  check (Alcotest.list Alcotest.string) "arrivals, TPP memory included"
    wire_arrivals arrivals;
  check Alcotest.bool "TPPs wrote a register" true
    (List.exists (fun r -> r <> 0) registers);
  check (Alcotest.list Alcotest.int) "switch registers" wire_registers registers

(* The net forwards the frame the sender handed over, never a copy: the
   receiver gets the pooled frame itself, which goes back to its pool
   once received, so 100 sends in turn reuse one buffer. *)
let test_net_forwards_senders_frame () =
  let eng, net, a, b = two_hosts () in
  let pool = Frame.Pool.create ~frame_bytes:256 () in
  let sent = ref None and same = ref 0 in
  b.Net.receive <-
    (fun ~now:_ f -> match !sent with Some s when s == f -> incr same | _ -> ());
  let sends = 100 in
  for i = 1 to sends do
    let f =
      Frame.Pool.udp_frame pool ~src_mac:a.Net.mac ~dst_mac:b.Net.mac
        ~src_ip:a.Net.ip ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2
        ~payload:(Bytes.create 64) ()
    in
    sent := Some f;
    Net.host_send net a f;
    Engine.run eng ~until:(Time_ns.ms (10 * i));
    check Alcotest.int "received and recycled" 0 (Frame.Pool.outstanding pool)
  done;
  check Alcotest.int "all delivered" sends (Net.frames_delivered net);
  check Alcotest.int "the receiver got the sender's frame" sends !same;
  check Alcotest.int "one buffer created" 1 (Frame.Pool.created pool);
  check Alcotest.int "reused for every later send" (sends - 1)
    (Frame.Pool.reused pool)

(* An edge port that strips TPPs forwards an unpooled copy; the pooled
   original must still go back to its pool. *)
let test_strip_tpp_recycles_pooled () =
  let eng, net, a, b = two_hosts () in
  List.iter (fun (_, sw) -> Switch.set_strip_tpp sw ~port:0 true) (Net.switches net);
  let tpp = Prog.make ~program:[ Instr.Push (Instr.Sw 0) ] ~mem_len:8 () in
  let pool = Frame.Pool.create ~frame_bytes:256 () in
  let bare = ref 0 in
  b.Net.receive <-
    (fun ~now:_ f -> if Option.is_none f.Frame.tpp then incr bare);
  let sends = 10 in
  for _ = 1 to sends do
    Net.host_send net a
      (Frame.Pool.udp_frame pool ~src_mac:a.Net.mac ~dst_mac:b.Net.mac
         ~src_ip:a.Net.ip ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2
         ~tpp:(Prog.copy tpp) ~payload:(Bytes.create 64) ())
  done;
  Engine.run eng ~until:(Time_ns.sec 1);
  check Alcotest.int "all delivered without their TPP" sends !bare;
  check Alcotest.int "nothing outstanding" 0 (Frame.Pool.outstanding pool)

let test_deliver_hooks_in_registration_order () =
  let eng, net, a, b = two_hosts () in
  let order = ref [] in
  for i = 1 to 5 do
    Net.on_host_deliver net (fun _ _ -> order := i :: !order)
  done;
  let frame =
    Frame.udp_frame ~src_mac:a.Net.mac ~dst_mac:b.Net.mac ~src_ip:a.Net.ip
      ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ()
  in
  Net.host_send net a frame;
  Engine.run eng ~until:(Time_ns.ms 10);
  check (Alcotest.list Alcotest.int) "hooks fire in registration order"
    [ 1; 2; 3; 4; 5 ] (List.rev !order)

(* --- transmission time ------------------------------------------------------ *)

let test_tx_time_integer_ceiling () =
  let rates =
    [ 1_000_000; 10_000_000; 100_000_000; 1_000_000_000; 9_999_999;
      10_000_000_000; 40_000_000_000; 100_000_000_000; 400_000_000_000 ]
  in
  let sizes = [ 64; 65; 100; 999; 1000; 1234; 1500; 9000; 65535 ] in
  List.iter
    (fun bps ->
      List.iter
        (fun bytes ->
          let bits = bytes * 8 in
          let t = Net.tx_time_of_bits ~bps bits in
          let label what =
            Printf.sprintf "%s (%dB at %d bps)" what bytes bps
          in
          (* Exact ceiling of bits * 1e9 / bps. *)
          check Alcotest.bool (label "upper") true
            (t * bps >= bits * 1_000_000_000);
          check Alcotest.bool (label "tight") true
            ((t - 1) * bps < bits * 1_000_000_000);
          (* And it never drifts more than a float-rounding ns from the
             seed's float implementation. *)
          let f =
            int_of_float (ceil (float_of_int bits *. 1e9 /. float_of_int bps))
          in
          check Alcotest.bool (label "near float") true (abs (t - f) <= 1))
        sizes)
    rates

(* --- node/attachment lookup on randomized topologies ------------------------ *)

let prop_net_lookup_consistent =
  let qtest = QCheck_alcotest.to_alcotest in
  qtest
    (QCheck.Test.make ~name:"net node/attachment lookup on random topologies"
       ~count:25
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let eng = Engine.create () in
         let r =
           Topology.random eng ~switches:6 ~hosts:8 ~extra_links:4 ~seed
             ~bps:1_000_000 ~delay:(Time_ns.us 10) ()
         in
         let net = r.Topology.r_net in
         let ok = ref (Net.node_count net = 6 + 8) in
         (* Node ids resolve to the exact object that was registered:
            Topology.random numbers its switch ASICs 1..n in creation
            order, so id lookup must recover that numbering. *)
         Array.iteri
           (fun i sid ->
             ok := !ok && Switch.id (Net.switch net sid) = i + 1;
             match Net.host_of net sid with
             | _ -> ok := false
             | exception Invalid_argument _ -> ())
           r.Topology.r_switch_ids;
         Array.iter
           (fun h ->
             ok := !ok && Net.host_of net h.Net.node_id == h;
             match Net.switch net h.Net.node_id with
             | _ -> ok := false
             | exception Invalid_argument _ -> ())
           r.Topology.r_hosts;
         (* switches/hosts enumerate in registration order. *)
         let sw_ids = List.map fst (Net.switches net) in
         ok := !ok && sw_ids = Array.to_list r.Topology.r_switch_ids;
         let host_ids = List.map (fun h -> h.Net.node_id) (Net.hosts net) in
         ok :=
           !ok
           && host_ids
              = Array.to_list
                  (Array.map (fun h -> h.Net.node_id) r.Topology.r_hosts);
         (* Links are symmetric. *)
         for id = 0 to Net.node_count net - 1 do
           List.iter
             (fun (port, peer, pport) ->
               ok :=
                 !ok
                 && List.exists
                      (fun (p', n', pp') -> p' = pport && n' = id && pp' = port)
                      (Net.neighbors net peer))
             (Net.neighbors net id)
         done;
         (* Out-of-range ids are rejected, not silently resolved. *)
         (match Net.host_of net (Net.node_count net) with
         | _ -> ok := false
         | exception Invalid_argument _ -> ());
         !ok))

let test_connect_validation () =
  let eng = Engine.create () in
  let net = Net.create eng in
  let sw = Net.add_switch net (Switch.create ~id:1 ~num_ports:2 ()) in
  let a = Net.add_host net ~name:"a" in
  Net.connect net (a.Net.node_id, 0) (sw, 0) ~bps:1000 ~delay:0;
  Alcotest.check_raises "double link" (Invalid_argument "Net.connect: port already linked")
    (fun () -> Net.connect net (a.Net.node_id, 0) (sw, 1) ~bps:1000 ~delay:0);
  Alcotest.check_raises "bad port" (Invalid_argument "Net: port out of range")
    (fun () -> Net.connect net (sw, 5) (sw, 1) ~bps:1000 ~delay:0)

let test_capacity_set_on_connect () =
  let eng = Engine.create () in
  let net = Net.create eng in
  let sw = Switch.create ~id:1 ~num_ports:2 () in
  let sw_id = Net.add_switch net sw in
  let a = Net.add_host net ~name:"a" in
  Net.connect net (a.Net.node_id, 0) (sw_id, 1) ~bps:42_000_000 ~delay:0;
  check Alcotest.int "capacity register" 42_000
    (Tpp_asic.State.port_stat (Switch.state sw) ~port:1 Vaddr.Port_stat.Capacity_kbps)

(* --- Topology ---------------------------------------------------------------- *)

let test_chain_end_to_end () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:4 ~hosts_per_switch:1 ~bps:100_000_000
      ~delay:(Time_ns.us 10) ()
  in
  let net = chain.Topology.net in
  let src = chain.Topology.hosts.(0).(0) in
  let dst = chain.Topology.hosts.(3).(0) in
  let hops = ref 0 in
  dst.Net.receive <- (fun ~now:_ frame ->
      match frame.Frame.tpp with Some tpp -> hops := tpp.Prog.hop | None -> ());
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:64 "PUSH [Switch:SwitchID]\n") in
  let frame =
    Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip
      ~dst_ip:dst.Net.ip ~src_port:1 ~dst_port:2 ~tpp ~payload:Bytes.empty ()
  in
  Net.host_send net src frame;
  Engine.run eng ~until:(Time_ns.ms 100);
  check Alcotest.int "traversed all four switches" 4 !hops

let test_chain_bidirectional () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:3 ~hosts_per_switch:1 ~bps:100_000_000
      ~delay:(Time_ns.us 10) ()
  in
  let net = chain.Topology.net in
  let src = chain.Topology.hosts.(2).(0) in
  let dst = chain.Topology.hosts.(0).(0) in
  let got = ref false in
  dst.Net.receive <- (fun ~now:_ _ -> got := true);
  let frame =
    Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip
      ~dst_ip:dst.Net.ip ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ()
  in
  Net.host_send net src frame;
  Engine.run eng ~until:(Time_ns.ms 100);
  check Alcotest.bool "reverse direction routed" true !got

let test_dumbbell_pairs () =
  let eng = Engine.create () in
  let bell =
    Topology.dumbbell eng ~pairs:2 ~core_bps:10_000_000 ~edge_bps:100_000_000
      ~delay:(Time_ns.us 10) ()
  in
  let net = bell.Topology.d_net in
  let delivered = Array.make 2 false in
  Array.iteri
    (fun i receiver ->
      receiver.Net.receive <- (fun ~now:_ _ -> delivered.(i) <- true))
    bell.Topology.receivers;
  Array.iteri
    (fun i sender ->
      let dst = bell.Topology.receivers.(i) in
      let frame =
        Frame.udp_frame ~src_mac:sender.Net.mac ~dst_mac:dst.Net.mac
          ~src_ip:sender.Net.ip ~dst_ip:dst.Net.ip ~src_port:1 ~dst_port:2
          ~payload:Bytes.empty ()
      in
      Net.host_send net sender frame)
    bell.Topology.senders;
  Engine.run eng ~until:(Time_ns.ms 100);
  check Alcotest.bool "pair 0" true delivered.(0);
  check Alcotest.bool "pair 1" true delivered.(1)

let test_diamond_prefers_upper_path () =
  let eng = Engine.create () in
  let dia =
    Topology.diamond eng ~hosts_per_side:1 ~bps:100_000_000 ~delay:(Time_ns.us 10) ()
  in
  let upper = Net.switch dia.Topology.m_net dia.Topology.upper in
  let lower = Net.switch dia.Topology.m_net dia.Topology.lower in
  let src = dia.Topology.src_hosts.(0) in
  let dst = dia.Topology.dst_hosts.(0) in
  let frame =
    Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip
      ~dst_ip:dst.Net.ip ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ()
  in
  Net.host_send dia.Topology.m_net src frame;
  Engine.run eng ~until:(Time_ns.ms 100);
  check Alcotest.int "upper saw it" 1 (Switch.state upper).Tpp_asic.State.packets_seen;
  check Alcotest.int "lower idle" 0 (Switch.state lower).Tpp_asic.State.packets_seen

let test_utilization_updates_started () =
  let eng, net, a, b = two_hosts () in
  Net.start_utilization_updates net ~period:(Time_ns.ms 10) ~until:(Time_ns.ms 100);
  (* 100 packets of 1000B in the first window toward b. *)
  for _ = 1 to 100 do
    let frame =
      Frame.udp_frame ~src_mac:a.Net.mac ~dst_mac:b.Net.mac ~src_ip:a.Net.ip
        ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2 ~payload:(Bytes.create 954) ()
    in
    Net.host_send net a frame
  done;
  Engine.run eng ~until:(Time_ns.ms 100);
  let sw = List.hd (Net.switches net) |> snd in
  let util =
    Tpp_asic.State.port_stat (Switch.state sw) ~port:1 Vaddr.Port_stat.Rx_util
  in
  (* 100 x 1000B over some 10ms window of a 100 Mb/s link: the windows the
     packets fell into must have shown real utilisation at some point;
     after the traffic stops the register decays to 0. We assert the
     mechanism ran by checking the tx counters instead of racing it. *)
  check Alcotest.bool "util register is a sane ppm" true (util >= 0 && util <= 1_000_000);
  check Alcotest.int "all forwarded" 100
    (Tpp_asic.State.port_stat (Switch.state sw) ~port:1 Vaddr.Port_stat.Tx_pkts)

(* A warm utilisation tick walks the node table and updates every
   port's registers in place: after every port of a k=4 fat-tree has
   carried a frame, 90 ticks allocate nothing. *)
let test_utilization_tick_allocates_nothing () =
  let eng = Engine.create () in
  let ft = Topology.fat_tree eng ~k:4 ~bps:10_000_000_000 ~delay:1_000 () in
  let net = ft.Topology.f_net and hosts = ft.Topology.f_hosts in
  let n = Array.length hosts in
  Net.start_utilization_updates net ~period:(Time_ns.us 10) ~until:(Time_ns.ms 1);
  Array.iteri
    (fun i (s : Net.host) ->
      Array.iteri
        (fun j (d : Net.host) ->
          if i <> j then
            Net.host_send net s
              (Frame.udp_frame ~src_mac:s.Net.mac ~dst_mac:d.Net.mac ~src_ip:s.Net.ip
                 ~dst_ip:d.Net.ip ~src_port:(1000 + j) ~dst_port:7 ~payload:Bytes.empty
                 ()))
        hosts)
    hosts;
  Engine.run eng ~until:(Time_ns.us 100);
  check Alcotest.int "every frame delivered" (n * (n - 1)) (Net.frames_delivered net);
  let w0 = Gc.minor_words () in
  Engine.run eng ~until:(Time_ns.ms 1);
  check (Alcotest.float 0.0) "minor words across 90 ticks" 0.0 (Gc.minor_words () -. w0)

let suite =
  [
    Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine same-time fifo" `Quick test_engine_same_time_fifo;
    Alcotest.test_case "engine rejects the past" `Quick test_engine_no_past_scheduling;
    Alcotest.test_case "engine nested scheduling" `Quick test_engine_nested_scheduling;
    Alcotest.test_case "engine every" `Quick test_engine_every;
    Alcotest.test_case "engine every rejects past start" `Quick
      test_engine_every_past_start;
    Alcotest.test_case "loop restart fires once per period" `Quick
      test_loop_restart_fires_once_per_period;
    Alcotest.test_case "loop start in the past clamps to now" `Quick
      test_loop_past_start_clamps_to_now;
    Alcotest.test_case "loop negative delay ends it" `Quick
      test_loop_negative_delay_ends;
    Alcotest.test_case "loop warm re-arm allocates nothing" `Quick
      test_loop_warm_rearm_allocates_nothing;
    Alcotest.test_case "engine next event time" `Quick test_engine_next_event_time;
    Alcotest.test_case "engine max_int event" `Quick test_engine_max_int_event;
    Alcotest.test_case "engine typed dispatch" `Quick test_engine_typed_dispatch;
    Alcotest.test_case "engine refuses ids beyond 20 bits" `Quick test_engine_id_range;
    Alcotest.test_case "wheel placements per event" `Quick
      test_wheel_placements_per_event;
    Alcotest.test_case "engine typed core allocates nothing" `Quick
      test_engine_typed_core_allocates_nothing;
    Alcotest.test_case "event path goldens" `Quick test_event_path_goldens;
    Alcotest.test_case "warm Net forwarding allocates nothing" `Quick
      test_warm_net_forwarding_allocates_nothing;
    Alcotest.test_case "warm Net forwarding with postcard taps allocates nothing"
      `Quick test_warm_net_postcards_allocate_nothing;
    Alcotest.test_case "warm Net TPP forwarding allocates only the option box"
      `Quick test_warm_net_tpp_forwarding_allocates_only_the_option;
    Alcotest.test_case "engine until boundary" `Quick
      test_engine_run_until_is_exclusive_of_later_events;
    Alcotest.test_case "delivery and latency" `Quick test_delivery_and_latency;
    Alcotest.test_case "fifo ordering" `Quick test_fifo_no_reordering;
    Alcotest.test_case "wire check" `Quick test_wire_check_exercised;
    Alcotest.test_case "wire check catches corruption (always)" `Quick
      test_wire_check_catches_corruption;
    Alcotest.test_case "wire check catches corruption (cached)" `Quick
      test_wire_check_catches_new_shape;
    Alcotest.test_case "wire check modes agree" `Quick
      test_forwarding_matches_wire_images;
    Alcotest.test_case "Net forwards the sender's frame" `Quick
      test_net_forwards_senders_frame;
    Alcotest.test_case "stripped TPP frames go back to their pool" `Quick
      test_strip_tpp_recycles_pooled;
    Alcotest.test_case "deliver hooks in order" `Quick
      test_deliver_hooks_in_registration_order;
    Alcotest.test_case "tx time integer ceiling" `Quick test_tx_time_integer_ceiling;
    prop_net_lookup_consistent;
    Alcotest.test_case "connect validation" `Quick test_connect_validation;
    Alcotest.test_case "capacity on connect" `Quick test_capacity_set_on_connect;
    Alcotest.test_case "chain end to end" `Quick test_chain_end_to_end;
    Alcotest.test_case "chain bidirectional" `Quick test_chain_bidirectional;
    Alcotest.test_case "dumbbell pairs" `Quick test_dumbbell_pairs;
    Alcotest.test_case "diamond prefers upper" `Quick test_diamond_prefers_upper_path;
    Alcotest.test_case "utilization updates" `Quick test_utilization_updates_started;
    Alcotest.test_case "warm utilisation tick allocates nothing" `Quick
      test_utilization_tick_allocates_nothing;
  ]
