(* The transmitter model's exactness: cut-through and elided completion
   events must reproduce the always-queue, always-complete model event
   for event. That model is Net's own queued path, which queues every
   frame on its egress ring and one completion event per transmission
   ({!Scenario.queue_everything} puts a whole net on it). Every golden
   below was recorded on that model and must hold on both paths; a
   differential fuzz then compares the two paths on random scenarios. *)

open Tpp

let check = Alcotest.check
let ints = Alcotest.(list int)

module SS = Switch_state

(* One switch (node 0), one host per port (port [p]'s is node [p + 1]);
   every link 1 Gb/s, port [p]'s with propagation delay [delays.(p)];
   [fault] attached, then on the reference path if [reference]. *)
let star ?fault ~reference delays =
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
  Option.iter (fun f -> Fault.attach f net) fault;
  if reference then Scenario.queue_everything net;
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

(* The switch logs (time, in port, out port, depth of the queue joined)
   of every frame it bins. *)
let tap_queues sw =
  let taps = ref [] in
  Switch.set_bin_tap sw
    (Some
       (fun ~now ~in_port ~out_port ~queue_bytes ~version:_ ~frame_id:_
            ~flow_hash:_ ~wire_bytes:_ ~entry:_ ->
         taps := queue_bytes :: out_port :: in_port :: now :: !taps));
  taps

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
let same_nanosecond ~dc ~dd ~reference =
  let eng, net, sw, _, hosts = star ~reference [| 5000; dc; dd; 1000 |] in
  let taps = tap_queues sw in
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
  ( net,
    (List.rev !taps @ List.rev !arrivals)
    @ [ e1; e2; Engine.events_processed eng ]
    @ registers sw )

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

(* Each scenario equals its golden on both paths, and cuts [cut] switch
   hops through on the elided path, none on the reference path. *)
let on_both_paths ?cut name golden scenario =
  List.iter
    (fun reference ->
      let net, got = scenario ~reference in
      let name = if reference then name ^ " (reference path)" else name in
      check ints name golden got;
      Option.iter
        (fun cut ->
          check Alcotest.int (name ^ ": switch hops cut through") cut (Net.cut_through net))
        (if reference then Some 0 else cut))
    [ false; true ]

let test_same_nanosecond () =
  List.iter2
    (fun (dc, dd) golden ->
      on_both_paths (Printf.sprintf "dC=%d dD=%d" dc dd) golden (same_nanosecond ~dc ~dd))
    same_nanosecond_cases same_nanosecond_golden

(* --- a link that changes while a frame serialises -------------------- *)

(* A's pooled frame leaves the switch for B over [5800, 6600), then a
   second at 8000 after every link change. [changes] are (time,
   endpoint, up) link flips, the rules of a fault schedule: a flip at
   time T holds from T on, its own nanosecond included. Reads events at
   several horizons, deliveries and the pool. *)
let link_flips changes ~reference =
  let fault = Fault.create ~seed:1 in
  List.iter
    (fun (at, on_host, up) ->
      (* B is node 2, on the switch's port 1. *)
      let endpoint = if on_host then (2, 0) else (0, 1) in
      (if up then Fault.link_up else Fault.link_down) fault ~at endpoint)
    changes;
  let eng, net, _, _, hosts = star ~fault ~reference [| 5000; 1000 |] in
  let a = hosts.(0) and b = hosts.(1) in
  let pool = Frame.Pool.create () in
  let arrivals = log_arrivals hosts in
  send_at eng net 0 ~pool a b;
  send_at eng net 8000 ~pool a b;
  let events =
    List.map
      (fun h ->
        Engine.run eng ~until:h;
        Engine.events_processed eng)
      [ 5999; 6600; 7000; 7599; 7600; Time_ns.ms 1 ]
  in
  (net, List.rev !arrivals @ events @ [ Net.frames_delivered net; Frame.Pool.outstanding pool ])

let link_flips_cases =
  [ ("down and up within the transmission", [ (6000, false, false); (6200, false, true) ]);
    ("the same at the host's end", [ (6000, true, false); (6200, true, true) ]);
    ("down across the end", [ (6000, false, false); (7000, false, true) ]);
    ("down in the nanosecond it ends", [ (6600, false, false); (7000, false, true) ]);
    ("down before it starts", [ (5000, false, false); (7000, false, true) ]) ]

let link_flips_golden =
  [
    [ 2; 7600; 2; 15600; 3; 4; 4; 4; 5; 10; 2; 0 ];
    [ 2; 7600; 2; 15600; 3; 4; 4; 4; 5; 10; 2; 0 ];
    [ 2; 15600; 3; 4; 4; 4; 4; 9; 1; 0 ];
    [ 2; 15600; 3; 4; 4; 4; 4; 9; 1; 0 ];
    [ 2; 15600; 3; 4; 4; 4; 4; 9; 1; 0 ] ]

let test_link_flips () =
  List.iter2
    (fun (name, changes) golden -> on_both_paths name golden (link_flips changes))
    link_flips_cases link_flips_golden

(* --- horizons that cut transmissions --------------------------------- *)

(* Every host of a k=4 fat-tree (1 Gb/s links) sends [frames] pooled
   frames, one every [gap] ns, to rotating peers: 880-ns transmissions
   that sometimes queue behind each other. The goldens use 1-us links,
   40 frames and a 1000-ns gap. *)
let fabric ?(delay = 1_000) eng =
  (Topology.fat_tree eng ~k:4 ~bps:1_000_000_000 ~delay ()).Topology.f_net

let traffic ?(frames = 40) ?(gap = 1000) ~reference ~owns net =
  if reference then Scenario.queue_everything net;
  let eng = Net.engine net in
  let hosts = Array.of_list (Net.hosts net) in
  let n = Array.length hosts in
  Array.iteri
    (fun i (s : Net.host) ->
      if owns s.Net.node_id then begin
        let pool = Frame.Pool.create () in
        for j = 0 to frames - 1 do
          let d = hosts.((i + 1 + (j mod (n - 1))) mod n) in
          send_at eng net ((i * 397 mod 1000) + (j * gap)) ~pool s d
        done
      end)
    hosts

(* [events_processed] read after every nanosecond of [lo, hi], folded
   into one hash, and at a few horizons. *)
let horizon_hash ~reference ~lo ~hi =
  let eng = Engine.create () in
  let net = fabric eng in
  traffic ~reference ~owns:(fun _ -> true) net;
  let h = ref 0 in
  for until = lo to hi do
    Engine.run eng ~until;
    h := (!h * 31) + Engine.events_processed eng
  done;
  !h

let horizons = [ 3_000; 7_001; 12_345; 20_000; 44_444 ]

let events_at ~reference ~shards until =
  if shards = 0 then begin
    let eng = Engine.create () in
    let net = fabric eng in
    traffic ~reference ~owns:(fun _ -> true) net;
    Engine.run eng ~until;
    Engine.events_processed eng
  end
  else
    (fst
       (Parsim.run ~shards ~until ~build:fabric
          ~setup:(fun ~shard:_ ~owns net -> traffic ~reference ~owns net)
          ~collect:(fun ~shard:_ ~owns:_ _ -> ())
          ()))
      .Parsim.events

let horizon_events_golden = [ 112; 464; 1174; 2498; 6615 ]
let horizon_hash_golden = 4502235402245191570

let test_horizon_cuts () =
  List.iter
    (fun reference ->
      let path = if reference then " (reference path)" else "" in
      check ints ("sequential" ^ path) horizon_events_golden
        (List.map (events_at ~reference ~shards:0) horizons);
      check ints ("2 shards" ^ path) horizon_events_golden
        (List.map (events_at ~reference ~shards:2) horizons);
      check Alcotest.int ("every nanosecond of [9000, 12000]" ^ path) horizon_hash_golden
        (horizon_hash ~reference ~lo:9_000 ~hi:12_000))
    [ false; true ]

(* --- ports and frames that always queue ------------------------------ *)

let prog = lazy (Result.get_ok (Asm.to_tpp ~mem_len:8 "PUSH [Switch:SwitchID]\n"))

(* A's frames to B and C's TPP frames to D, all 1 us apart so every
   port is idle when they come, plus one flood; [config] sets up the
   switch. *)
let always_queue config ~reference =
  let eng, net, sw, _, hosts = star ~reference [| 1000; 1000; 1000; 1000 |] in
  config sw;
  let arrivals = log_arrivals hosts in
  let a = hosts.(0) and c = hosts.(1) and b = hosts.(2) and d = hosts.(3) in
  for j = 0 to 3 do
    send_at eng net (j * 5000) a b;
    send_at eng net ((j * 5000) + 100) ~tpp:(Prog.copy (Lazy.force prog)) c d
  done;
  let nowhere = Net.add_host net in
  Engine.at eng 30_000 (fun () -> Net.host_send net a (frame_to a nowhere));
  Engine.run eng ~until:(Time_ns.ms 1);
  (net, List.rev !arrivals @ [ Engine.events_processed eng ] @ registers sw)

(* A burst of 12 frames from A and C to D into a 2-queue port whose data
   queue holds 2 frames: the rest are trimmed into the top queue. *)
let trim_burst ~reference =
  let eng, net, sw, _, hosts = star ~reference [| 1000; 1000; 1000; 1000 |] in
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
  (net, List.rev !arrivals @ [ Engine.events_processed eng; Switch.trims sw ] @ registers sw)

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
      on_both_paths ~cut name golden (always_queue config))
    always_queue_cases always_queue_golden;
  on_both_paths "trimmed frames" trim_golden trim_burst

(* --- fault hooks behind a completion queued late ---------------------- *)

(* A's frame leaves the switch for B over [900, 1700) with its delivery
   queued at its start; C's frame queues behind it at 1300, which queues
   its completion. Hooks installed at 1400 would decide its fate on the
   reference path but not here, so they are refused until it is over. *)
let test_hooks_behind_queued_completion () =
  let eng, net, _, _, hosts = star ~reference:false [| 100; 100; 100 |] in
  let a = hosts.(0) and c = hosts.(1) and b = hosts.(2) in
  send_at eng net 0 a b;
  send_at eng net 400 c b;
  let drop_all =
    Some
      { Scenario.no_faults with
        Net.f_transit = (fun ~node:_ ~port:_ ~now:_ _ -> false);
        f_clean = (fun ~node:_ ~port:_ -> false) }
  in
  Engine.run eng ~until:1400;
  Alcotest.check_raises "installed at 1400"
    (Invalid_argument "Net.set_fault_hooks: transmissions in flight")
    (fun () -> Net.set_fault_hooks net drop_all);
  Engine.run eng ~until:(Time_ns.ms 1);
  Net.set_fault_hooks net drop_all;
  check Alcotest.int "both frames delivered" 2 (Net.frames_delivered net)

(* --- frames lost on a dark link ---------------------------------------- *)

(* A sends ten frames through the switch to B, 1 us apart; a fault
   schedule takes B's link down over [3000, 7000), when four of them
   end their transmissions (the first while it serialises). Each of the
   ten is delivered or counted lost. *)
let test_dark_link_losses () =
  List.iter
    (fun reference ->
      let fault = Fault.create ~seed:1 in
      Fault.link_down fault ~at:3000 (0, 1);
      Fault.link_up fault ~at:7000 (0, 1);
      let eng, net, _, _, hosts = star ~fault ~reference [| 1000; 1000 |] in
      for j = 0 to 9 do
        send_at eng net (j * 1000) hosts.(0) hosts.(1)
      done;
      Engine.run eng ~until:(Time_ns.ms 1);
      let path = if reference then " (reference path)" else "" in
      check ints ("delivered, lost, events" ^ path) [ 6; 4; 46 ]
        [ Net.frames_delivered net; (Fault.stats fault).Fault.lost_down;
          Engine.events_processed eng ])
    [ false; true ]

(* --- a differential fuzz of the elided path against the reference ---- *)

(* A star scenario. Ports and hosts share indices; a send to the port
   count goes to an unknown host and floods. Flips and rules make one
   fault schedule. *)
type send = { at : int; src : int; dst : int; tpp : bool }
type flip = { flip_at : int; port : int; on_host : bool; up : bool }

type rule =
  | Lossy of { wire : int; from_ : int; until_ : int; drop : float; corrupt : float }
  | Degrade of { wire : int; from_ : int; until_ : int; rate_factor : float; extra_delay : int }

type star_case = {
  delays : int array;
  sends : send list;
  flips : flip list;
  wrr : int list;  (* ports with two WRR queues *)
  strip : int list;  (* ingress ports that strip TPPs *)
  trim : int list;  (* ports that trim into a second queue past 200 bytes *)
  rules : rule list;  (* on the wire behind each named switch port *)
  horizons : int list;  (* events read at each, then after a drain *)
}

let show_star c =
  let list f l = "[" ^ String.concat "; " (List.map f l) ^ "]" in
  let nums = list string_of_int in
  Printf.sprintf
    "{ delays = %s;\n  sends = %s;\n  flips = %s;\n  wrr = %s; strip = %s; trim = %s;\n\
    \  rules = %s;\n  horizons = %s }"
    (nums (Array.to_list c.delays))
    (list
       (fun s -> Printf.sprintf "%d: %d->%d%s" s.at s.src s.dst (if s.tpp then " tpp" else ""))
       c.sends)
    (list
       (fun f ->
         Printf.sprintf "%d: port %d %s end %s" f.flip_at f.port
           (if f.on_host then "host" else "switch") (if f.up then "up" else "down"))
       c.flips)
    (nums c.wrr) (nums c.strip) (nums c.trim)
    (list
       (function
         | Lossy r ->
           Printf.sprintf "lossy %d [%d, %d) drop %g corrupt %g" r.wire r.from_ r.until_ r.drop
             r.corrupt
         | Degrade r ->
           Printf.sprintf "degrade %d [%d, %d) x%g +%d" r.wire r.from_ r.until_ r.rate_factor
             r.extra_delay)
       c.rules)
    (nums c.horizons)

(* Times on a 100-ns grid land in the last nanosecond of 800-ns
   transmissions over 700-, 800- and 900-ns links; off the grid they
   land anywhere. *)
let gen_time =
  QCheck2.Gen.(oneof [ map (fun t -> 100 * t) (int_range 0 100); int_range 0 10_000 ])

let gen_star =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let port = int_range 0 (n - 1) and ports = list_size (int_range 0 2) (int_range 0 (n - 1)) in
  let window = pair gen_time (int_range 1 5_000) in
  let rule =
    oneof
      [ (let+ wire = port and+ from_, len = window
         and+ drop, corrupt = oneofl [ (0.5, 0.); (0., 0.5); (1., 0.); (0.3, 0.3) ] in
         Lossy { wire; from_; until_ = from_ + len; drop; corrupt });
        (let+ wire = port and+ from_, len = window
         and+ rate_factor = oneofl [ 0.5; 0.8; 1. ] and+ extra_delay = oneofl [ 0; 50; 300 ] in
         Degrade { wire; from_; until_ = from_ + len; rate_factor; extra_delay }) ]
  in
  let+ delays = array_repeat n (oneofl [ 700; 800; 900 ])
  and+ sends =
    list_size (int_range 1 12)
      (let+ at = gen_time and+ src = port and+ dst = int_range 0 n and+ tpp = bool in
       { at; src; dst; tpp })
  and+ flips =
    list_size (int_range 0 3)
      (let+ flip_at = gen_time and+ port = port and+ on_host = bool and+ up = bool in
       { flip_at; port; on_host; up })
  and+ wrr = ports and+ strip = ports and+ trim = ports
  and+ rules = list_size (int_range 0 2) rule
  and+ horizons = list_size (int_range 0 3) gen_time in
  { delays; sends; flips; wrr; strip; trim; rules; horizons = List.sort compare horizons }

(* Bin-tap queue depths, arrivals, events at every horizon, registers,
   deliveries, pool outstanding and fault counters of one run. *)
let run_star c ~reference =
  let fault =
    if c.rules = [] && c.flips = [] then None
    else begin
      let f = Fault.create ~seed:5 in
      List.iter
        (fun fl ->
          let endpoint = if fl.on_host then (fl.port + 1, 0) else (0, fl.port) in
          (if fl.up then Fault.link_up else Fault.link_down) f ~at:fl.flip_at endpoint)
        c.flips;
      List.iter
        (function
          | Lossy r ->
            Fault.lossy f ~from_:r.from_ ~until_:r.until_ ~drop:r.drop ~corrupt:r.corrupt
              (0, r.wire)
          | Degrade r ->
            Fault.degrade f ~from_:r.from_ ~until_:r.until_ ~rate_factor:r.rate_factor
              ~extra_delay:r.extra_delay (0, r.wire))
        c.rules;
      Some f
    end
  in
  let eng, net, sw, _, hosts = star ?fault ~reference c.delays in
  let n = Array.length hosts in
  Array.iteri
    (fun port _ ->
      let wrr = List.mem port c.wrr and trim = List.mem port c.trim in
      if wrr || trim then Switch.configure_queues sw ~port ~count:2;
      if wrr then Switch.set_scheduler sw ~port (Switch.Wrr [| 1; 1 |]);
      if trim then Switch.set_subqueue_limit sw ~port ~queue:0 ~bytes:200;
      if List.mem port c.strip then Switch.set_strip_tpp sw ~port true)
    hosts;
  if c.trim <> [] then Switch.set_trim_keep sw ~keep:0;
  let taps = tap_queues sw and arrivals = log_arrivals hosts in
  let nowhere = Net.add_host net and pool = Frame.Pool.create () in
  List.iter
    (fun s ->
      let tpp = if s.tpp then Some (Prog.copy (Lazy.force prog)) else None in
      send_at eng net s.at ~pool ?tpp hosts.(s.src) (if s.dst = n then nowhere else hosts.(s.dst)))
    c.sends;
  let events =
    List.map
      (fun until ->
        Engine.run eng ~until;
        Engine.events_processed eng)
      (c.horizons @ [ Time_ns.ms 1 ])
  in
  let faults =
    match fault with
    | None -> []
    | Some f ->
      let s = Fault.stats f in
      [ s.Fault.lost_down; s.dropped; s.corrupt_header; s.corrupt_fcs ]
  in
  List.rev !taps @ List.rev !arrivals @ events @ registers sw
  @ [ Net.frames_delivered net; Frame.Pool.outstanding pool ]
  @ faults

(* A k=4 fat-tree scenario, run sequentially (0 shards) or on 2. *)
type fabric_case = {
  shards : int;
  delay : int;
  frames : int;
  gap : int;
  f_horizons : int list;
}

let show_fabric c =
  Printf.sprintf "{ shards = %d; delay = %d; frames = %d; gap = %d; horizons = [%s] }"
    c.shards c.delay c.frames c.gap
    (String.concat "; " (List.map string_of_int c.f_horizons))

let gen_fabric =
  let open QCheck2.Gen in
  let+ shards = oneofl [ 0; 2 ]
  and+ delay = oneofl [ 700; 800; 900 ]
  and+ frames = int_range 1 8
  and+ gap = oneofl [ 700; 800; 880; 1000 ]
  and+ horizons = list_size (int_range 0 2) (int_range 0 12_000) in
  { shards; delay; frames; gap; f_horizons = List.sort compare horizons }

(* Events at every horizon and deliveries: arrivals too when sequential,
   where one engine runs through every horizon; one sharded run per
   horizon otherwise. *)
let run_fabric c ~reference =
  let traffic = traffic ~frames:c.frames ~gap:c.gap ~reference in
  let horizons = c.f_horizons @ [ 40_000 ] in
  if c.shards = 0 then begin
    let eng = Engine.create () in
    let net = fabric ~delay:c.delay eng in
    let arrivals = log_arrivals (Array.of_list (Net.hosts net)) in
    traffic ~owns:(fun _ -> true) net;
    let events =
      List.map
        (fun until ->
          Engine.run eng ~until;
          Engine.events_processed eng)
        horizons
    in
    events @ (Net.frames_delivered net :: List.rev !arrivals)
  end
  else
    List.concat_map
      (fun until ->
        let stats, delivered =
          Parsim.run ~shards:c.shards ~until ~build:(fabric ~delay:c.delay)
            ~setup:(fun ~shard:_ ~owns net -> traffic ~owns net)
            ~collect:(fun ~shard:_ ~owns:_ net -> Net.frames_delivered net)
            ()
        in
        [ stats.Parsim.events; Array.fold_left ( + ) 0 delivered ])
      horizons

(* --- forward's result code against handle_ingress's verdict ---------- *)

(* Twin switches with the same routes, queues and ports see the same
   random frames: one through [Switch.forward], the other through
   [Switch.handle_ingress], which always queues. A frame to host [d] in
   [1, n] is routed out of port [d - 1] (TTL 1 expires there), [n + 1]
   is unknown and floods, and [n + 2] hits a TCAM drop rule. *)
type twin_op =
  | Arrive of { in_port : int; dst : int; tpp : bool; ttl : int; top : bool; len : int }
  | Drain of int

type twin_case = {
  t_ports : int;
  t_wrr : int list;    (* two queues, round-robin *)
  t_strip : int list;  (* strip TPPs arriving here *)
  t_trim : int list;   (* two queues, a 200-byte data queue, trimming *)
  t_tiny : int list;   (* a 300-byte queue limit: tail drops *)
  t_ops : twin_op list;
}

let show_twins c =
  let nums l = "[" ^ String.concat "; " (List.map string_of_int l) ^ "]" in
  Printf.sprintf "{ ports = %d; wrr = %s; strip = %s; trim = %s; tiny = %s;\n  ops = [%s] }"
    c.t_ports (nums c.t_wrr) (nums c.t_strip) (nums c.t_trim) (nums c.t_tiny)
    (String.concat "; "
       (List.map
          (function
            | Arrive a ->
              Printf.sprintf "%d->%d%s ttl %d%s len %d" a.in_port a.dst
                (if a.tpp then " tpp" else "") a.ttl (if a.top then " top" else "") a.len
            | Drain p -> Printf.sprintf "drain %d" p)
          c.t_ops))

let gen_twins =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let port = int_range 0 (n - 1) and ports = list_size (int_range 0 2) (int_range 0 (n - 1)) in
  let arrive =
    let+ in_port = port and+ dst = int_range 1 (n + 2) and+ tpp = bool
    and+ ttl = oneofl [ 1; 64; 64; 64 ] and+ top = bool and+ len = oneofl [ 10; 54; 300 ] in
    Arrive { in_port; dst; tpp; ttl; top; len }
  in
  let+ t_wrr = ports and+ t_strip = ports and+ t_trim = ports and+ t_tiny = ports
  and+ t_ops = list_size (int_range 1 40) (frequency [ (3, arrive); (1, map (fun p -> Drain p) port) ]) in
  { t_ports = n; t_wrr; t_strip; t_trim; t_tiny; t_ops }

let twin c =
  let sw = Switch.create ~id:3 ~num_ports:c.t_ports () in
  for d = 1 to c.t_ports do
    Switch.install_route sw (Ipv4.Prefix.host (Ipv4.Addr.of_host_id d)) ~port:(d - 1)
      ~entry_id:d ~version:1
  done;
  Switch.install_tcam sw
    { Tables.Tcam.any with
      Tables.Tcam.priority = 1;
      dst_ip = Some (Ipv4.Addr.of_host_id (c.t_ports + 2), 0xFFFFFFFF) }
    { Tables.action = Tables.Drop; entry_id = 99; version = 1 };
  for port = 0 to c.t_ports - 1 do
    let wrr = List.mem port c.t_wrr and trim = List.mem port c.t_trim in
    if List.mem port c.t_tiny then Switch.set_queue_limit sw ~port ~bytes:300;
    if wrr || trim then Switch.configure_queues sw ~port ~count:2;
    if wrr then Switch.set_scheduler sw ~port (Switch.Wrr [| 1; 1 |]);
    if trim then Switch.set_subqueue_limit sw ~port ~queue:0 ~bytes:200;
    if List.mem port c.t_strip then Switch.set_strip_tpp sw ~port true
  done;
  if c.t_trim <> [] then Switch.set_trim_keep sw ~keep:0;
  sw

let twin_frame ~in_port ~dst ~tpp ~ttl ~top ~len =
  let tpp = if tpp then Some (Prog.copy (Lazy.force prog)) else None in
  Frame.udp_frame ~src_mac:(Mac.of_host_id 100) ~dst_mac:(Mac.of_host_id dst)
    ~src_ip:(Ipv4.Addr.of_host_id (100 + in_port)) ~dst_ip:(Ipv4.Addr.of_host_id dst)
    ~src_port:1 ~dst_port:2 ~ttl ~dscp:(if top then 63 else 0) ?tpp
    ~payload:(Bytes.create len) ()

(* [forward]'s result read as the verdict it stands for. *)
let verdict_of sw r =
  if r >= 0 then Some (Switch.Queued [ r ])
  else if r = Switch.flooded then Some (Switch.Queued (Switch.flooded_ports sw))
  else if r = Switch.dropped then Some (Switch.Dropped (Switch.drop_reason sw))
  else None

let show_verdict = function
  | Some (Switch.Queued ps) -> "Queued [" ^ String.concat "; " (List.map string_of_int ps) ^ "]"
  | Some (Switch.Dropped r) -> "Dropped " ^ r
  | None -> "cut through"

(* With a refusing transmitter ([idle] false) each result must read as
   the twin's verdict. With an idle one, [forward] must cut through
   exactly where the twin queued a routed, unstripped, untrimmed frame
   on a Strict port that held nothing; the twin then sends that frame,
   so both keep the same queues. Every register agrees at the end. *)
let twins_agree ~idle c =
  let a = twin c and b = twin c in
  Switch.set_transmitter a (fun ~port:_ _ -> idle);
  List.iteri
    (fun i op ->
      match op with
      | Drain port ->
        let fa = Switch.dequeue a ~port and fb = Switch.dequeue b ~port in
        if Option.is_some fa <> Option.is_some fb then
          QCheck2.Test.fail_reportf "op %d: drain %d differs" i port
      | Arrive { in_port; dst; tpp; ttl; top; len } ->
        let frame () = twin_frame ~in_port ~dst ~tpp ~ttl ~top ~len in
        let depth = Array.init c.t_ports (fun port -> Switch.queue_bytes b ~port) in
        let trims = Switch.trims b in
        let r = Switch.forward a ~now:i ~in_port (frame ()) in
        let vb = Switch.handle_ingress b ~now:i ~in_port (frame ()) in
        let cut =
          match vb with
          | Switch.Queued [ p ] ->
            idle && dst <= c.t_ports
            && not (tpp && List.mem in_port c.t_strip)
            && Switch.trims b = trims && depth.(p) = 0
            && not (List.mem p c.t_wrr)
          | Switch.Queued _ | Switch.Dropped _ -> false
        in
        let va = verdict_of a r in
        if cut then begin
          if va <> None then
            QCheck2.Test.fail_reportf "op %d: forward %s where the twin's port was idle" i
              (show_verdict va);
          match vb with
          | Switch.Queued [ p ] -> ignore (Switch.dequeue b ~port:p)
          | _ -> ()
        end
        else if va <> Some vb then
          QCheck2.Test.fail_reportf "op %d: forward %s, handle_ingress %s" i (show_verdict va)
            (show_verdict (Some vb)))
    c.t_ops;
  registers a = registers b
  || QCheck2.Test.fail_reportf "registers: %a@.twin:      %a" Fmt.(Dump.list int)
       (registers a) Fmt.(Dump.list int) (registers b)

let same_on_both_paths run c =
  let elided = run c ~reference:false and reference = run c ~reference:true in
  elided = reference
  || QCheck2.Test.fail_reportf "elided:    %a@.reference: %a" Fmt.(Dump.list int) elided
       Fmt.(Dump.list int) reference

let fuzz =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck2.Test.make ~name:"random stars: elided path == reference path" ~count:2000
        ~print:show_star gen_star (same_on_both_paths run_star);
      QCheck2.Test.make ~name:"random fat-tree runs: elided path == reference path" ~count:20
        ~print:show_fabric gen_fabric (same_on_both_paths run_fabric);
      QCheck2.Test.make ~name:"twin switches: forward's code == handle_ingress's verdict"
        ~count:1000 ~print:show_twins gen_twins (fun c ->
          twins_agree ~idle:false c && twins_agree ~idle:true c) ]

let suite =
  [ Alcotest.test_case "frames in an elided transmission's last nanosecond" `Quick
      test_same_nanosecond;
    Alcotest.test_case "link flips while a frame serialises" `Quick test_link_flips;
    Alcotest.test_case "horizons that cut transmissions" `Quick test_horizon_cuts;
    Alcotest.test_case "WRR, stripped, trimmed and flooded frames queue" `Quick
      test_always_queue;
    Alcotest.test_case "fault hooks wait for a completion queued late" `Quick
      test_hooks_behind_queued_completion;
    Alcotest.test_case "frames lost on a dark link are counted" `Quick
      test_dark_link_losses ]
  @ fuzz
