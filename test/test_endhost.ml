(* End-host stack tests: token bucket, UDP dispatch, probe echo,
   traffic generators, the micro-burst episode counter, and the RCP*
   control law. *)

open Tpp
module Rs = Rcp_star

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Token bucket ------------------------------------------------------- *)

let test_token_bucket_burst () =
  let tb = Token_bucket.create ~rate_bps:8_000 ~burst_bytes:1000 ~now:0 in
  check Alcotest.bool "full bucket grants burst" true (Token_bucket.take tb ~now:0 ~bytes:1000);
  check Alcotest.bool "empty rejects" false (Token_bucket.take tb ~now:0 ~bytes:1)

let test_token_bucket_accrual () =
  let tb = Token_bucket.create ~rate_bps:8_000 ~burst_bytes:1000 ~now:0 in
  ignore (Token_bucket.take tb ~now:0 ~bytes:1000);
  (* 8 kb/s = 1000 B/s: after 100 ms exactly 100 bytes accrued. *)
  check Alcotest.bool "not yet" false (Token_bucket.take tb ~now:(Time_ns.ms 99) ~bytes:100);
  check Alcotest.bool "after 100ms" true (Token_bucket.take tb ~now:(Time_ns.ms 100) ~bytes:100)

let test_token_bucket_cap () =
  let tb = Token_bucket.create ~rate_bps:8_000 ~burst_bytes:1000 ~now:0 in
  ignore (Token_bucket.take tb ~now:0 ~bytes:1000);
  (* An hour later the bucket holds only its burst size. *)
  check Alcotest.bool "capped" true (Token_bucket.take tb ~now:(Time_ns.sec 3600) ~bytes:1000);
  check Alcotest.bool "no more" false (Token_bucket.take tb ~now:(Time_ns.sec 3600) ~bytes:1)

let test_token_bucket_delay () =
  let tb = Token_bucket.create ~rate_bps:8_000 ~burst_bytes:1000 ~now:0 in
  ignore (Token_bucket.take tb ~now:0 ~bytes:1000);
  check Alcotest.int "delay for 100B" (Time_ns.ms 100)
    (Token_bucket.delay_until_ready tb ~now:0 ~bytes:100);
  check Alcotest.int "ready is zero" 0
    (Token_bucket.delay_until_ready tb ~now:(Time_ns.sec 10) ~bytes:100)

let test_token_bucket_set_rate () =
  let tb = Token_bucket.create ~rate_bps:8_000 ~burst_bytes:1000 ~now:0 in
  ignore (Token_bucket.take tb ~now:0 ~bytes:1000);
  Token_bucket.set_rate tb ~now:0 ~rate_bps:16_000;
  check Alcotest.int "rate updated" 16_000 (Token_bucket.rate_bps tb);
  check Alcotest.bool "doubled accrual" true
    (Token_bucket.take tb ~now:(Time_ns.ms 100) ~bytes:200)

let test_token_bucket_oversize () =
  let tb = Token_bucket.create ~rate_bps:8_000 ~burst_bytes:1000 ~now:0 in
  (* Tokens are capped at [burst_bytes], so a larger request can never
     be granted: a finite delay here would make a pacing loop spin
     forever. The bucket must reject it loudly instead. *)
  Alcotest.check_raises "oversize request rejected"
    (Invalid_argument
       "Token_bucket.delay_until_ready: bytes exceeds burst capacity")
    (fun () -> ignore (Token_bucket.delay_until_ready tb ~now:0 ~bytes:1001))

(* The quoted delay must actually work: sleeping exactly that long and
   retrying [take] succeeds, even where the closed-form [ceil] lands one
   ulp short of the float arithmetic [accrue] performs. Awkward rates
   (odd, large) probe exactly those rounding edges. *)
let prop_token_bucket_delay_is_sufficient =
  QCheck.Test.make ~name:"token bucket quoted delay always suffices" ~count:200
    QCheck.(
      make
        Gen.(
          triple (int_range 1 1_000_000_000) (int_range 1 100_000)
            (int_range 0 1_000_000_000)))
    (fun (rate_bps, burst, now) ->
      let tb = Token_bucket.create ~rate_bps ~burst_bytes:burst ~now:0 in
      ignore (Token_bucket.take tb ~now:0 ~bytes:burst);
      let bytes = max 1 (burst / 2) in
      let d = Token_bucket.delay_until_ready tb ~now ~bytes in
      Token_bucket.take tb ~now:(now + d) ~bytes)

let prop_token_bucket_never_exceeds_rate =
  QCheck.Test.make ~name:"token bucket long-run conformance" ~count:50
    QCheck.(make Gen.(pair (int_range 1000 1_000_000) (int_range 100 10_000)))
    (fun (rate_bps, pkt) ->
      let tb = Token_bucket.create ~rate_bps ~burst_bytes:(2 * pkt) ~now:0 in
      let horizon = Time_ns.sec 2 in
      let sent = ref 0 in
      let rec go now =
        if now < horizon then begin
          if Token_bucket.take tb ~now ~bytes:pkt then sent := !sent + pkt;
          go (now + Time_ns.us 500)
        end
      in
      go 0;
      (* Never more than rate * time + burst. *)
      !sent * 8 <= (rate_bps * 2) + (2 * pkt * 8))

(* --- A tiny two-host network for app-level tests ------------------------ *)

let two_hosts () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:2 ~hosts_per_switch:1 ~bps:100_000_000
      ~delay:(Time_ns.us 100) ()
  in
  let net = chain.Topology.net in
  let a = chain.Topology.hosts.(0).(0) in
  let b = chain.Topology.hosts.(1).(0) in
  (eng, net, a, b)

let test_stack_dispatch () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let hits = ref [] in
  Stack.on_udp sb ~port:100 (fun ~now:_ _ -> hits := 100 :: !hits);
  Stack.on_udp sb ~port:200 (fun ~now:_ _ -> hits := 200 :: !hits);
  Stack.on_default sb (fun ~now:_ _ -> hits := -1 :: !hits);
  Stack.send_udp sa ~dst:b ~src_port:1 ~dst_port:200 ~payload:Bytes.empty ();
  Stack.send_udp sa ~dst:b ~src_port:1 ~dst_port:100 ~payload:Bytes.empty ();
  Stack.send_udp sa ~dst:b ~src_port:1 ~dst_port:999 ~payload:Bytes.empty ();
  Engine.run eng ~until:(Time_ns.ms 10);
  check (Alcotest.list Alcotest.int) "routes by port" [ 200; 100; -1 ] (List.rev !hits)

let test_probe_echo_roundtrip () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  Probe.install_echo sb;
  let replies = ref [] in
  Probe.install_reply_handler sa (fun ~now:_ ~seq tpp ->
      replies := (seq, tpp.Prog.hop, Prog.stack_values tpp) :: !replies);
  let tpp =
    Result.get_ok (Asm.to_tpp ~mem_len:32 "PUSH [Switch:SwitchID]\n")
  in
  Probe.send sa ~dst:b ~tpp ~seq:7;
  Engine.run eng ~until:(Time_ns.ms 10);
  match !replies with
  | [ (7, 2, [ 1; 2 ]) ] -> ()
  | [ (seq, hops, values) ] ->
    Alcotest.failf "bad echo: seq=%d hops=%d values=[%s]" seq hops
      (String.concat ";" (List.map string_of_int values))
  | other -> Alcotest.failf "expected one reply, got %d" (List.length other)

(* Echo seq blocks are per host: disjoint, never below [seq_block]
   (left to callers of [Probe.send]), and the host's last block is the
   one that ends at 2^32 — one more raises instead of wrapping the u32
   echo seq into a block already in use. *)
let test_probe_seq_blocks_per_host () =
  let _eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let base stack = Probe.Block.seq (Probe.Block.take stack) 0 in
  let bs = base sb in
  let blocks = List.init 4095 (fun _ -> base sa) in
  check Alcotest.int "first block" Probe.seq_block (List.hd blocks);
  check Alcotest.int "other hosts count their own" Probe.seq_block bs;
  check Alcotest.int "last block ends at 2^32" ((1 lsl 32) - Probe.seq_block)
    (List.nth blocks 4094);
  check Alcotest.int "all disjoint" 4095
    (List.length (List.sort_uniq compare blocks));
  match Probe.Block.take sa with
  | b -> Alcotest.failf "block %d past the u32 echo seq space" (Probe.Block.seq b 0)
  | exception Failure _ -> ()

(* --- Echo demux ------------------------------------------------------------ *)

(* An echo as it reaches the prober: [seq:u32] and the executed TPP, sent
   to the reply port from [src_port]. *)
let echo_frame ~from ~to_ ~src_port ~seq tpp =
  let w = Buf.Writer.create () in
  Buf.Writer.u32i w seq;
  Prog.write w tpp;
  Frame.udp_frame ~src_mac:from.Net.mac ~dst_mac:to_.Net.mac ~src_ip:from.Net.ip
    ~dst_ip:to_.Net.ip ~src_port ~dst_port:Probe.reply_port
    ~payload:(Buf.Writer.contents w) ()

let switch_id_tpp () =
  Result.get_ok (Asm.to_tpp ~mem_len:8 "PUSH [Switch:SwitchID]\n")

(* Two block owners, a piggyback listener on block 1's flow port and a
   catch-all share one host: each sees exactly its own echoes, and an
   echo's listeners run in registration order. *)
let test_echo_demux_routes_by_filter () =
  let _eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let log = ref [] in
  let note name ~now:_ ~seq _ = log := (name, seq) :: !log in
  let b1 = Probe.Block.take sa in
  let b2 = Probe.Block.take sa in
  Probe.Block.on_echo b1 (note "block1");
  Probe.Block.on_flow_echo b1 ~port:9000 (note "flow");
  Probe.install_reply_handler sa (note "all");
  Probe.Block.on_echo b2 (note "block2");
  let tpp = switch_id_tpp () in
  let echo ~src_port seq =
    a.Net.receive ~now:0 (echo_frame ~from:b ~to_:a ~src_port ~seq tpp)
  in
  let s1 = Probe.Block.seq b1 3 and s2 = Probe.Block.seq b2 4 in
  echo ~src_port:Probe.request_port s1;
  echo ~src_port:Probe.request_port s2;
  (* A TPP that rode data packet 17 of the flow on port 9000. *)
  echo ~src_port:9000 17;
  (* Block 1's own probe answered from the flow's port (as TPP-LB's
     path probes are) is not piggybacked. *)
  echo ~src_port:9000 s1;
  echo ~src_port:Probe.request_port 17;
  check
    Alcotest.(list (pair string int))
    "listeners per echo"
    [ ("block1", s1); ("all", s1);
      ("all", s2); ("block2", s2);
      ("flow", 17); ("all", 17);
      ("block1", s1); ("all", s1);
      ("all", 17) ]
    (List.rev !log)

(* A controller counts its probes without bound; [Block.seq] wraps the
   count into the block, so after 2^20 probes its echoes still reach it
   and never another block's owner. *)
let test_probe_block_seq_wraps () =
  let _eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let b1 = Probe.Block.take sa in
  let b2 = Probe.Block.take sa in
  let n = Probe.seq_block in
  List.iter
    (fun k ->
      let seq = Probe.Block.seq b1 k in
      check Alcotest.bool (Printf.sprintf "probe %d stays in its block" k) true
        (seq >= n && seq < 2 * n);
      check Alcotest.int (Printf.sprintf "probe %d offset" k) (k mod n)
        (Probe.Block.offset b1 seq))
    [ 0; 1; n - 1; n; n + 1; (2 * n) + 5; (5 * n) - 1 ];
  let heard = ref [] in
  Probe.Block.on_echo b1 (fun ~now:_ ~seq _ -> heard := (1, seq) :: !heard);
  Probe.Block.on_echo b2 (fun ~now:_ ~seq _ -> heard := (2, seq) :: !heard);
  let tpp = switch_id_tpp () in
  List.iter
    (fun k ->
      a.Net.receive ~now:0
        (echo_frame ~from:b ~to_:a ~src_port:Probe.request_port
           ~seq:(Probe.Block.seq b1 k) tpp))
    [ n - 1; n; n + 2 ];
  check
    Alcotest.(list (pair int int))
    "block 1 hears its wrapped probes"
    [ (1, (2 * n) - 1); (1, n); (1, n + 2) ]
    (List.rev !heard)

(* Each echo is decoded once per host: beside one running RCP*
   controller, 50 stopped ones on the same host cost an echo for the
   running one not a single minor word more. *)
let test_echo_words_independent_of_idle_controllers () =
  let words ~idle =
    let _eng, net, a, b = two_hosts () in
    let sa = Stack.create net a in
    let controller () =
      let flow =
        Flow.cbr ~src:sa ~dst:b ~dst_port:9000 ~payload_bytes:100
          ~rate_bps:1_000_000
      in
      Rs.create sa (Rs.default_config ~slot:0) ~flow ~dst:b
    in
    let running = controller () in
    Rs.start running ();
    for _ = 1 to idle do
      let c = controller () in
      Rs.start c ();
      Rs.stop c
    done;
    (* A collect echo (even seq in the running controller's block, the
       host's first) whose TPP ran on no switch: the controller decodes
       it and finds no hop to update. *)
    let frame =
      echo_frame ~from:b ~to_:a ~src_port:Probe.request_port
        ~seq:(Probe.seq_block + 2) (switch_id_tpp ())
    in
    a.Net.receive ~now:0 frame;
    let w0 = Gc.minor_words () in
    a.Net.receive ~now:0 frame;
    Gc.minor_words () -. w0
  in
  let alone = words ~idle:0 in
  check Alcotest.bool "the echo is decoded" true (alone > 0.0);
  check (Alcotest.float 0.0) "minor words with 50 stopped controllers" alone
    (words ~idle:50)

let test_probe_template_not_mutated () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  Probe.install_echo sb;
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:32 "PUSH [Switch:SwitchID]\n") in
  Probe.send sa ~dst:b ~tpp ~seq:1;
  Probe.send sa ~dst:b ~tpp ~seq:2;
  Engine.run eng ~until:(Time_ns.ms 10);
  check Alcotest.int "template sp untouched" 0 tpp.Prog.sp;
  check Alcotest.int "template hop untouched" 0 tpp.Prog.hop

let test_cbr_flow_rate () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let sink = Flow.Sink.attach sb ~port:9000 in
  let flow =
    Flow.cbr ~src:sa ~dst:b ~dst_port:9000 ~payload_bytes:954 ~rate_bps:10_000_000
  in
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.sec 1);
  Flow.stop flow;
  let goodput = float_of_int (Flow.Sink.rx_bytes sink) *. 8.0 in
  check Alcotest.bool "goodput within 2% of 10 Mb/s" true
    (goodput > 9.8e6 && goodput < 10.2e6);
  check Alcotest.int "no reordering" 0 (Flow.Sink.reordered sink);
  check Alcotest.bool "latency measured" true
    (Tpp_util.Stats.mean (Flow.Sink.latency sink) > 0.0)

let test_cbr_set_rate_takes_effect () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let sink = Flow.Sink.attach sb ~port:9000 in
  let flow =
    Flow.cbr ~src:sa ~dst:b ~dst_port:9000 ~payload_bytes:954 ~rate_bps:2_000_000
  in
  Flow.start flow ();
  Engine.at eng (Time_ns.ms 500) (fun () -> Flow.set_rate flow ~rate_bps:20_000_000);
  Engine.run eng ~until:(Time_ns.sec 1);
  (* 0.5s at 2 Mb/s + 0.5s at 20 Mb/s = 1.375 MB. *)
  let bytes = Flow.Sink.rx_bytes sink in
  check Alcotest.bool "rate change visible" true
    (bytes > 1_200_000 && bytes < 1_500_000)

let test_burst_flow_shape () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let sb = Stack.create net b in
  let sink = Flow.Sink.attach sb ~port:9000 in
  let flow =
    Flow.bursts ~src:sa ~dst:b ~dst_port:9000 ~payload_bytes:1000 ~burst_pkts:10
      ~period:(Time_ns.ms 10)
  in
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.ms 35);
  Flow.stop flow;
  (* Bursts at t=0,10,20,30ms: 40 packets sent. *)
  check Alcotest.int "four bursts" 40 (Flow.tx_pkts flow);
  check Alcotest.int "all arrive" 40 (Flow.Sink.rx_pkts sink)

let test_flow_stop_restart () =
  let eng, net, a, b = two_hosts () in
  let sa = Stack.create net a in
  let _sb = Stack.create net b in
  let flow =
    Flow.cbr ~src:sa ~dst:b ~dst_port:9000 ~payload_bytes:954 ~rate_bps:8_000_000
  in
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.ms 100);
  Flow.stop flow;
  let sent = Flow.tx_pkts flow in
  Engine.run eng ~until:(Time_ns.ms 200);
  check Alcotest.int "nothing after stop" sent (Flow.tx_pkts flow);
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.ms 300);
  check Alcotest.bool "resumed" true (Flow.tx_pkts flow > sent)

(* --- Episode counter ------------------------------------------------------ *)

let test_episode_counting () =
  let e = Microburst.Episode.create ~threshold:10 in
  List.iter (Microburst.Episode.feed e) [ 0; 5; 12; 15; 9; 3; 11; 2; 10 ];
  check Alcotest.int "three crossings" 3 (Microburst.Episode.count e);
  check Alcotest.int "max" 15 (Microburst.Episode.max_seen e);
  check Alcotest.int "samples" 9 (Microburst.Episode.samples e)

let test_episode_level_holds () =
  let e = Microburst.Episode.create ~threshold:10 in
  List.iter (Microburst.Episode.feed e) [ 12; 13; 14; 15 ];
  check Alcotest.int "one long episode" 1 (Microburst.Episode.count e)

(* --- RCP* pieces ----------------------------------------------------------- *)

let sample ?(rate_kbps = 10_000) ?(util_ppm = 1_000_000) ?(queue = 0) () =
  { Rs.switch_id = 1; queue_bytes = queue; util_ppm; capacity_kbps = 10_000;
    rate_kbps }

let config = Rs.default_config ~slot:0

(* An independent rendering of the paper's equation; the implementation
   must agree with it. *)
let law s =
  let c = float_of_int s.Rs.capacity_kbps *. 1000.0 in
  let r = float_of_int s.Rs.rate_kbps *. 1000.0 in
  let r = if r <= 0.0 then c else r in
  let y = float_of_int s.Rs.util_ppm /. 1e6 *. c in
  let d = float_of_int config.Rs.rtt_ns /. 1e9 in
  let t_over_d = float_of_int config.Rs.period_ns /. float_of_int config.Rs.rtt_ns in
  let q = config.Rs.beta *. (float_of_int s.Rs.queue_bytes *. 8.0) /. d in
  let feedback = ((config.Rs.alpha *. (y -. c)) +. q) /. c in
  Float.max
    (float_of_int config.Rs.min_rate_bps)
    (Float.min c (r *. (1.0 -. (t_over_d *. feedback))))

let test_control_law_fixed_point () =
  (* Fully utilised, empty queue: R should not move. *)
  check (Alcotest.float 1.0) "fixed point" 10_000_000.0
    (Rs.control_law config (sample ()))

let test_control_law_matches_spec () =
  List.iter
    (fun s ->
      check (Alcotest.float 1.0) "implementation = paper equation" (law s)
        (Rs.control_law config s))
    [ sample (); sample ~util_ppm:2_000_000 (); sample ~queue:80_000 ();
      sample ~rate_kbps:3_000 ~util_ppm:300_000 ();
      sample ~rate_kbps:0 ~util_ppm:0 () ]

let test_control_law_directions () =
  let law s = Rs.control_law config s in
  check Alcotest.bool "overload cuts rate" true
    (law (sample ~util_ppm:2_000_000 ()) < 10_000_000.0);
  check Alcotest.bool "queue cuts rate" true (law (sample ~queue:50_000 ()) < 10_000_000.0);
  check Alcotest.bool "headroom raises rate" true
    (law (sample ~rate_kbps:5_000 ~util_ppm:500_000 ()) > 5_000_000.0);
  check Alcotest.bool "never below floor" true
    (law (sample ~util_ppm:10_000_000 ~queue:10_000_000 ())
     >= float_of_int config.Rs.min_rate_bps);
  check Alcotest.bool "never above capacity" true
    (law (sample ~rate_kbps:9_999 ~util_ppm:100_000 ()) <= 10_000_000.0)

let test_collect_source_assembles () =
  let src, defines = Rs.collect_source ~slot:3 in
  match Asm.assemble ~defines src with
  | Ok p -> check Alcotest.int "five pushes" 5 (List.length p.Asm.instrs)
  | Error e -> Alcotest.fail e

let test_setup_network_consistent_slots () =
  let eng = Engine.create () in
  let bell =
    Topology.dumbbell eng ~pairs:2 ~core_bps:10_000_000 ~edge_bps:100_000_000
      ~delay:(Time_ns.us 10) ()
  in
  let net = bell.Topology.d_net in
  match Rs.setup_network net with
  | Error e -> Alcotest.fail e
  | Ok slot ->
    check Alcotest.int "first slot" 0 slot;
    (* Registers initialised to capacity on every switch. *)
    let sw = Net.switch net bell.Topology.left_switch in
    check (Alcotest.option Alcotest.int) "core register = capacity" (Some 10_000)
      (Rs.read_rate_kbps sw ~slot ~port:0);
    check (Alcotest.option Alcotest.int) "edge register = capacity" (Some 100_000)
      (Rs.read_rate_kbps sw ~slot ~port:1)

let suite =
  [
    Alcotest.test_case "token bucket burst" `Quick test_token_bucket_burst;
    Alcotest.test_case "token bucket accrual" `Quick test_token_bucket_accrual;
    Alcotest.test_case "token bucket cap" `Quick test_token_bucket_cap;
    Alcotest.test_case "token bucket delay" `Quick test_token_bucket_delay;
    Alcotest.test_case "token bucket set rate" `Quick test_token_bucket_set_rate;
    Alcotest.test_case "token bucket oversize request" `Quick
      test_token_bucket_oversize;
    qtest prop_token_bucket_delay_is_sufficient;
    qtest prop_token_bucket_never_exceeds_rate;
    Alcotest.test_case "stack dispatch" `Quick test_stack_dispatch;
    Alcotest.test_case "probe echo roundtrip" `Quick test_probe_echo_roundtrip;
    Alcotest.test_case "probe template immutable" `Quick test_probe_template_not_mutated;
    Alcotest.test_case "probe seq blocks per host" `Quick
      test_probe_seq_blocks_per_host;
    Alcotest.test_case "echo demux routes by filter" `Quick
      test_echo_demux_routes_by_filter;
    Alcotest.test_case "probe block seq wraps" `Quick test_probe_block_seq_wraps;
    Alcotest.test_case "echo words independent of idle controllers" `Quick
      test_echo_words_independent_of_idle_controllers;
    Alcotest.test_case "cbr flow rate" `Quick test_cbr_flow_rate;
    Alcotest.test_case "cbr set rate" `Quick test_cbr_set_rate_takes_effect;
    Alcotest.test_case "burst flow shape" `Quick test_burst_flow_shape;
    Alcotest.test_case "flow stop/restart" `Quick test_flow_stop_restart;
    Alcotest.test_case "episode counting" `Quick test_episode_counting;
    Alcotest.test_case "episode level holds" `Quick test_episode_level_holds;
    Alcotest.test_case "control law fixed point" `Quick test_control_law_fixed_point;
    Alcotest.test_case "control law matches paper equation" `Quick
      test_control_law_matches_spec;
    Alcotest.test_case "control law directions" `Quick test_control_law_directions;
    Alcotest.test_case "collect program assembles" `Quick test_collect_source_assembles;
    Alcotest.test_case "setup network slots" `Quick test_setup_network_consistent_slots;
  ]
