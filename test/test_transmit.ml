(* The transmitter model's exactness: cut-through and elided completion
   events must reproduce the always-queue, always-complete model event
   for event. Every golden below was recorded by running the same
   scenario on the model that queued every frame on its egress ring and
   queued one completion event per transmission. *)

open Tpp

let check = Alcotest.check
let ints = Alcotest.(list int)

module SS = Switch_state

(* One switch, one host per port; every link 1 Gb/s, port [p]'s with
   propagation delay [delays.(p)]. *)
let star delays =
  let eng = Engine.create () in
  let net = Net.create eng in
  let sw = Switch.create ~id:1 ~num_ports:(Array.length delays) () in
  let sid = Net.add_switch net sw in
  let hosts =
    Array.mapi
      (fun p delay ->
        let h = Net.add_host net in
        Net.connect net (h.Net.node_id, 0) (sid, p) ~bps:1_000_000_000 ~delay;
        h)
      delays
  in
  Topology.install_routes net;
  (eng, net, sw, sid, hosts)

(* 54 payload bytes: 100 bytes on the wire, 800 ns at 1 Gb/s. *)
let payload = Bytes.create 54

let frame_to ?pool ?tpp (s : Net.host) (d : Net.host) =
  match pool with
  | Some p ->
    Frame.Pool.udp_frame p ~src_mac:s.Net.mac ~dst_mac:d.Net.mac ~src_ip:s.Net.ip
      ~dst_ip:d.Net.ip ~src_port:1 ~dst_port:2 ?tpp ~payload ()
  | None ->
    Frame.udp_frame ~src_mac:s.Net.mac ~dst_mac:d.Net.mac ~src_ip:s.Net.ip
      ~dst_ip:d.Net.ip ~src_port:1 ~dst_port:2 ?tpp ~payload ()

let send_at eng net time ?pool ?tpp s d =
  Engine.at eng time (fun () -> Net.host_send net s (frame_to ?pool ?tpp s d))

(* Each receiver logs its node id and the arrival time. *)
let log_arrivals hosts =
  let log = ref [] in
  Array.iter
    (fun (h : Net.host) ->
      h.Net.receive <- (fun ~now _ -> log := now :: h.Net.node_id :: !log))
    hosts;
  log

let registers sw =
  let st = Switch.state sw in
  Array.to_list st.SS.ports
  |> List.concat_map (fun (p : SS.Port.t) ->
         [ p.SS.Port.rx_bytes; p.rx_pkts; p.tx_bytes; p.tx_pkts; p.drops; p.trims;
           p.offered_bytes; p.queue_bytes ]
         @ List.concat_map
             (fun (q : SS.Subqueue.t) ->
               [ q.SS.Subqueue.q_bytes; q.q_enqueued; q.q_dropped ])
             (Array.to_list p.SS.Port.queues))

(* --- frames arriving in the nanosecond an elided transmission ends --- *)

(* A's frame leaves the switch for B over [5800, 6600): the switch's
   port 3 finds its egress empty, so its completion is elided. Frames
   from C and D reach the switch at exactly 6600, their deliveries
   stamped 6600 - dC and 6600 - dD: before the elided completion's key
   (6600, stamp 5800) when the delay exceeds 800 ns, after it when it
   is shorter, and tied on the stamp at 800 (a delivery's tie key sorts
   before a dequeue's). The tap records the queue each frame joins. *)
let same_nanosecond ~dc ~dd =
  let eng, net, sw, _, hosts = star [| 5000; dc; dd; 1000 |] in
  let taps = ref [] in
  Switch.set_bin_tap sw
    (Some
       (fun ~now ~in_port ~out_port ~queue_bytes ~version:_ ~frame_id:_
            ~flow_hash:_ ~wire_bytes:_ ~entry:_ ->
         taps := queue_bytes :: out_port :: in_port :: now :: !taps));
  let arrivals = log_arrivals hosts in
  let a = hosts.(0) and c = hosts.(1) and d = hosts.(2) and b = hosts.(3) in
  send_at eng net 0 a b;
  send_at eng net (5800 - dc) c b;
  send_at eng net (5800 - dd) d b;
  Engine.run eng ~until:6599;
  let e1 = Engine.events_processed eng in
  Engine.run eng ~until:6600;
  let e2 = Engine.events_processed eng in
  Engine.run eng ~until:(Time_ns.ms 1);
  (List.rev !taps @ List.rev !arrivals)
  @ [ e1; e2; Engine.events_processed eng ]
  @ registers sw

let same_nanosecond_cases = [ (900, 850); (900, 700); (700, 650); (800, 800) ]

let same_nanosecond_golden =
  [
    [ 5800; 0; 3; 0; 6600; 1; 3; 0; 6600; 2; 3; 100; 4; 7600; 4; 8400; 4; 9200; 7; 10;
      15; 100; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 100; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 100; 1;
      0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 300; 3; 0; 0; 300; 0; 0; 300; 0 ];
    [ 5800; 0; 3; 0; 6600; 1; 3; 0; 6600; 2; 3; 0; 4; 7600; 4; 8400; 4; 9200; 7; 10; 15;
      100; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 100; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 100; 1; 0;
      0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 300; 3; 0; 0; 300; 0; 0; 300; 0 ];
    [ 5800; 0; 3; 0; 6600; 1; 3; 0; 6600; 2; 3; 0; 4; 7600; 4; 8400; 4; 9200; 7; 10; 15;
      100; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 100; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 100; 1; 0;
      0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 300; 3; 0; 0; 300; 0; 0; 300; 0 ];
    [ 5800; 0; 3; 0; 6600; 1; 3; 0; 6600; 2; 3; 100; 4; 7600; 4; 8400; 4; 9200; 7; 10;
      15; 100; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 100; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 100; 1;
      0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 300; 3; 0; 0; 300; 0; 0; 300; 0 ] ]

let test_same_nanosecond () =
  List.iter2
    (fun (dc, dd) golden ->
      check ints (Printf.sprintf "dC=%d dD=%d" dc dd) golden (same_nanosecond ~dc ~dd))
    same_nanosecond_cases same_nanosecond_golden

(* --- a link that changes while a frame serialises -------------------- *)

(* A's pooled frame leaves the switch for B over [5800, 6600), then a
   second at 8000 after every link change. [changes] are (time,
   endpoint, up) link flips, scheduled at time 0 unless [late] (then
   from a thunk at 6000, so a flip at 6600 fires after the completion
   key). Reads events at several horizons, deliveries and the pool. *)
let link_flips ?(late = false) changes =
  let eng, net, _, sid, hosts = star [| 5000; 1000 |] in
  let a = hosts.(0) and b = hosts.(1) in
  let pool = Frame.Pool.create () in
  let arrivals = log_arrivals hosts in
  send_at eng net 0 ~pool a b;
  send_at eng net 8000 ~pool a b;
  List.iter
    (fun (time, on_host, up) ->
      let endpoint = if on_host then (b.Net.node_id, 0) else (sid, 1) in
      let flip () = Net.set_link_up net endpoint up in
      if late then Engine.at eng 6000 (fun () -> Engine.at eng time flip)
      else Engine.at eng time flip)
    changes;
  let events =
    List.map
      (fun h ->
        Engine.run eng ~until:h;
        Engine.events_processed eng)
      [ 5999; 6600; 7000; 7599; 7600; Time_ns.ms 1 ]
  in
  List.rev !arrivals @ events
  @ [ Net.frames_delivered net; Frame.Pool.outstanding pool ]

let link_flips_cases =
  [ ("down and up within the transmission", false,
     [ (6000, false, false); (6200, false, true) ]);
    ("the same at the host's end", false, [ (6000, true, false); (6200, true, true) ]);
    ("down across the end", false, [ (6000, false, false); (7000, false, true) ]);
    ("down at the end, before its completion", false,
     [ (6600, false, false); (7000, false, true) ]);
    ("down at the end, after its completion", true,
     [ (6600, false, false); (7000, false, true) ]);
    ("down before it starts", false, [ (5000, false, false); (7000, false, true) ]) ]

let link_flips_golden =
  [
    [ 2; 7600; 2; 15600; 3; 6; 6; 6; 7; 12; 2; 0 ];
    [ 2; 7600; 2; 15600; 3; 6; 6; 6; 7; 12; 2; 0 ];
    [ 2; 15600; 3; 5; 6; 6; 6; 11; 1; 0 ];
    [ 2; 15600; 3; 5; 6; 6; 6; 11; 1; 0 ];
    [ 2; 7600; 2; 15600; 3; 7; 8; 8; 9; 14; 2; 0 ];
    [ 2; 15600; 4; 5; 6; 6; 6; 11; 1; 0 ] ]

let test_link_flips () =
  List.iter2
    (fun (name, late, changes) golden -> check ints name golden (link_flips ~late changes))
    link_flips_cases link_flips_golden

(* --- horizons that cut transmissions --------------------------------- *)

(* Every host of a k=4 fat-tree (1 Gb/s, 1 us links) sends 40 pooled
   frames, one every 1000 ns, to rotating peers: 880-ns transmissions
   that sometimes queue behind each other. *)
let fabric eng =
  (Topology.fat_tree eng ~k:4 ~bps:1_000_000_000 ~delay:1_000 ()).Topology.f_net

let traffic ~owns net =
  let eng = Net.engine net in
  let hosts = Array.of_list (Net.hosts net) in
  let n = Array.length hosts in
  Array.iteri
    (fun i (s : Net.host) ->
      if owns s.Net.node_id then begin
        let pool = Frame.Pool.create () in
        for j = 0 to 39 do
          let d = hosts.((i + 1 + (j mod (n - 1))) mod n) in
          send_at eng net ((i * 397 mod 1000) + (j * 1000)) ~pool s d
        done
      end)
    hosts

(* [events_processed] read after every nanosecond of [lo, hi], folded
   into one hash, and at a few horizons. *)
let horizon_hash ~lo ~hi =
  let eng = Engine.create () in
  let net = fabric eng in
  traffic ~owns:(fun _ -> true) net;
  let h = ref 0 in
  for until = lo to hi do
    Engine.run eng ~until;
    h := (!h * 31) + Engine.events_processed eng
  done;
  !h

let horizons = [ 3_000; 7_001; 12_345; 20_000; 44_444 ]

let events_at ~shards until =
  if shards = 0 then begin
    let eng = Engine.create () in
    let net = fabric eng in
    traffic ~owns:(fun _ -> true) net;
    Engine.run eng ~until;
    Engine.events_processed eng
  end
  else
    (fst
       (Parsim.run ~shards ~until ~build:fabric
          ~setup:(fun ~shard:_ ~owns net -> traffic ~owns net)
          ~collect:(fun ~shard:_ ~owns:_ _ -> ())
          ()))
      .Parsim.events

let horizon_events_golden = [ 112; 464; 1174; 2498; 6615 ]
let horizon_hash_golden = 4502235402245191570

let test_horizon_cuts () =
  check ints "sequential" horizon_events_golden (List.map (events_at ~shards:0) horizons);
  check ints "2 shards" horizon_events_golden (List.map (events_at ~shards:2) horizons);
  check Alcotest.int "every nanosecond of [9000, 12000]" horizon_hash_golden
    (horizon_hash ~lo:9_000 ~hi:12_000)

(* --- ports and frames that always queue ------------------------------ *)

(* A's frames to B and C's TPP frames to D, all 1 us apart so every
   port is idle when they come, plus one flood; [config] sets up the
   switch. *)
let always_queue config =
  let eng, net, sw, _, hosts = star [| 1000; 1000; 1000; 1000 |] in
  config sw;
  let arrivals = log_arrivals hosts in
  let a = hosts.(0) and c = hosts.(1) and b = hosts.(2) and d = hosts.(3) in
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:8 "PUSH [Switch:SwitchID]\n") in
  for j = 0 to 3 do
    send_at eng net (j * 5000) a b;
    send_at eng net ((j * 5000) + 100) ~tpp:(Prog.copy tpp) c d
  done;
  let nowhere = Net.add_host net in
  Engine.at eng 30_000 (fun () -> Net.host_send net a (frame_to a nowhere));
  Engine.run eng ~until:(Time_ns.ms 1);
  (net, List.rev !arrivals @ [ Engine.events_processed eng ] @ registers sw)

(* A burst of 12 frames from A and C to D into a 2-queue port whose data
   queue holds 2 frames: the rest are trimmed into the top queue. *)
let trim_burst () =
  let eng, net, sw, _, hosts = star [| 1000; 1000; 1000; 1000 |] in
  Switch.configure_queues sw ~port:3 ~count:2;
  Switch.set_subqueue_limit sw ~port:3 ~queue:0 ~bytes:200;
  Switch.set_trim_keep sw ~keep:0;
  let arrivals = log_arrivals hosts in
  let a = hosts.(0) and c = hosts.(1) and d = hosts.(3) in
  for j = 0 to 5 do
    send_at eng net (j * 10) a d;
    send_at eng net ((j * 10) + 5) c d
  done;
  Engine.run eng ~until:(Time_ns.ms 1);
  List.rev !arrivals @ [ Engine.events_processed eng; Switch.trims sw ] @ registers sw

let wrr sw =
  Switch.configure_queues sw ~port:2 ~count:2;
  Switch.set_scheduler sw ~port:2 (Switch.Wrr [| 1; 1 |])

let strip sw = Switch.set_strip_tpp sw ~port:1 true

(* Each configuration with the switch hops it lets cut through: only
   A's frames on a Strict port to B and C's unstripped frames to D. *)
let always_queue_cases =
  [ ("plain", ignore, 8); ("WRR port to B", wrr, 4); ("stripping port from C", strip, 4);
    ("both", (fun sw -> wrr sw; strip sw), 0) ]

let always_queue_golden =
  [
    [ 3; 3600; 4; 4148; 3; 8600; 4; 9148; 3; 13600; 4; 14148; 3; 18600; 4; 19148; 2;
      33600; 3; 33600; 4; 33600; 49; 500; 5; 0; 0; 0; 0; 0; 0; 0; 0; 0; 512; 4; 100; 1;
      0; 0; 100; 0; 0; 100; 0; 0; 0; 500; 5; 0; 0; 500; 0; 0; 500; 0; 0; 0; 612; 5; 0;
      0; 612; 0; 0; 612; 0 ];
    [ 3; 3600; 4; 4148; 3; 8600; 4; 9148; 3; 13600; 4; 14148; 3; 18600; 4; 19148; 2;
      33600; 3; 33600; 4; 33600; 49; 500; 5; 0; 0; 0; 0; 0; 0; 0; 0; 0; 512; 4; 100; 1;
      0; 0; 100; 0; 0; 100; 0; 0; 0; 500; 5; 0; 0; 500; 0; 0; 500; 0; 0; 0; 0; 0; 0;
      612; 5; 0; 0; 612; 0; 0; 612; 0 ];
    [ 3; 3600; 4; 3924; 3; 8600; 4; 8924; 3; 13600; 4; 13924; 3; 18600; 4; 18924; 2;
      33600; 3; 33600; 4; 33600; 49; 500; 5; 0; 0; 0; 0; 0; 0; 0; 0; 0; 400; 4; 100; 1;
      0; 0; 100; 0; 0; 100; 0; 0; 0; 500; 5; 0; 0; 500; 0; 0; 500; 0; 0; 0; 500; 5; 0;
      0; 500; 0; 0; 500; 0 ];
    [ 3; 3600; 4; 3924; 3; 8600; 4; 8924; 3; 13600; 4; 13924; 3; 18600; 4; 18924; 2;
      33600; 3; 33600; 4; 33600; 49; 500; 5; 0; 0; 0; 0; 0; 0; 0; 0; 0; 400; 4; 100; 1;
      0; 0; 100; 0; 0; 100; 0; 0; 0; 500; 5; 0; 0; 500; 0; 0; 500; 0; 0; 0; 0; 0; 0;
      500; 5; 0; 0; 500; 0; 0; 500; 0 ] ]
let trim_golden =
  [ 4; 3600; 4; 4400; 4; 4912; 4; 5424; 4; 5936; 4; 6448; 4; 6960; 4; 7472; 4; 7984; 4;
    8496; 4; 9296; 4; 10096; 60; 8; 600; 6; 0; 0; 0; 0; 0; 0; 0; 0; 0; 600; 6; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 912; 12; 0; 8; 1200; 0; 0;
    400; 0; 0; 512; 0 ]

let test_always_queue () =
  List.iter2
    (fun (name, config, cut) golden ->
      let net, got = always_queue config in
      check ints name golden got;
      check Alcotest.int (name ^ ": switch hops cut through") cut (Net.cut_through net))
    always_queue_cases always_queue_golden;
  check ints "trimmed frames" trim_golden (trim_burst ())

let suite =
  [ Alcotest.test_case "frames in an elided transmission's last nanosecond" `Quick
      test_same_nanosecond;
    Alcotest.test_case "link flips while a frame serialises" `Quick test_link_flips;
    Alcotest.test_case "horizons that cut transmissions" `Quick test_horizon_cuts;
    Alcotest.test_case "WRR, stripped, trimmed and flooded frames queue" `Quick
      test_always_queue ]
