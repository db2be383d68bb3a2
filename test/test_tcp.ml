(* The Reno-style reliable transport: exact delivery on clean and lossy
   paths, congestion window dynamics, retransmission machinery. *)

open Tpp
module Tcp = Tpp_rcp.Tcp

let check = Alcotest.check
let mbps x = x * 1_000_000

let two_hosts ?(core_bps = mbps 100) ?(delay = Time_ns.ms 1) () =
  let eng = Engine.create () in
  let bell = Topology.dumbbell eng ~pairs:1 ~core_bps ~edge_bps:(mbps 100) ~delay () in
  let net = bell.Topology.d_net in
  let sa = Stack.create net bell.Topology.senders.(0) in
  let sb = Stack.create net bell.Topology.receivers.(0) in
  (eng, net, bell, sa, sb)

let test_clean_transfer () =
  let eng, _, bell, sa, sb = two_hosts () in
  let rx = Tcp.Receiver.attach sb ~port:5001 in
  let completed = ref None in
  let tx =
    Tcp.Transfer.start ~src:sa ~dst:bell.Topology.receivers.(0) ~port:5001
      ~total_bytes:500_000
      ~on_complete:(fun ~now -> completed := Some now)
      ()
  in
  Engine.run eng ~until:(Time_ns.sec 10);
  check Alcotest.bool "done" true (Tcp.Transfer.is_done tx);
  check Alcotest.bool "completion reported" true (Option.is_some !completed);
  check Alcotest.int "every byte delivered in order" 500_000
    (Tcp.Receiver.bytes_delivered rx);
  check Alcotest.int "acked" 500_000 (Tcp.Transfer.bytes_acked tx);
  check Alcotest.int "no reassembly debris" 0 (Tcp.Receiver.out_of_order_held rx);
  check Alcotest.int "no loss, no retransmits" 0 (Tcp.Transfer.retransmits tx);
  check Alcotest.bool "rtt estimated" true (Tcp.Transfer.srtt_ns tx > 0);
  check Alcotest.bool "window grew past IW" true (Tcp.Transfer.cwnd_segments tx > 4.0)

let test_lossy_transfer_still_exact () =
  (* A 5 Mb/s bottleneck with a tiny 8 kB buffer guarantees drops as
     slow start overshoots; reliability must hide every one of them. *)
  let eng, net, bell, sa, sb = two_hosts ~core_bps:(mbps 5) () in
  Switch.set_queue_limit (Net.switch net bell.Topology.left_switch) ~port:0
    ~bytes:8_000;
  let rx = Tcp.Receiver.attach sb ~port:5001 in
  let tx =
    Tcp.Transfer.start ~src:sa ~dst:bell.Topology.receivers.(0) ~port:5001
      ~total_bytes:400_000 ()
  in
  Engine.run eng ~until:(Time_ns.sec 30);
  check Alcotest.bool "done despite loss" true (Tcp.Transfer.is_done tx);
  check Alcotest.int "exact delivery" 400_000 (Tcp.Receiver.bytes_delivered rx);
  check Alcotest.bool "losses actually happened" true (Tcp.Transfer.retransmits tx > 0);
  let drops =
    Tpp_asic.State.port_stat
      (Switch.state (Net.switch net bell.Topology.left_switch))
      ~port:0 Vaddr.Port_stat.Drops
  in
  check Alcotest.bool "bottleneck dropped packets" true (drops > 0)

let test_completion_time_reasonable () =
  (* 1 MB at 100 Mb/s with ~6 ms RTT: slow start dominated; anything
     under a second is sane, under 100 ms is expected. *)
  let eng, _, bell, sa, sb = two_hosts () in
  let _rx = Tcp.Receiver.attach sb ~port:5001 in
  let done_at = ref None in
  let _tx =
    Tcp.Transfer.start ~src:sa ~dst:bell.Topology.receivers.(0) ~port:5001
      ~total_bytes:1_000_000
      ~on_complete:(fun ~now -> done_at := Some now)
      ()
  in
  Engine.run eng ~until:(Time_ns.sec 5);
  match !done_at with
  | None -> Alcotest.fail "did not finish"
  | Some t ->
    check Alcotest.bool
      (Printf.sprintf "finished in %.1f ms" (Time_ns.to_ms_f t))
      true
      (t < Time_ns.ms 500)

let test_rto_recovers_from_blackout () =
  (* Kill the path mid-transfer, restore it: the RTO must resume and
     finish the transfer. *)
  let eng, net, bell, sa, sb = two_hosts () in
  let core = (bell.Topology.left_switch, 0) in
  let fault = Fault.create ~seed:1 in
  Fault.link_down fault ~at:(Time_ns.ms 20) core;
  Fault.link_up fault ~at:(Time_ns.ms 600) core;
  Fault.attach fault net;
  let rx = Tcp.Receiver.attach sb ~port:5001 in
  let tx =
    Tcp.Transfer.start ~src:sa ~dst:bell.Topology.receivers.(0) ~port:5001
      ~total_bytes:2_000_000 ()
  in
  Engine.run eng ~until:(Time_ns.sec 30);
  check Alcotest.bool "finished after blackout" true (Tcp.Transfer.is_done tx);
  check Alcotest.int "exact delivery" 2_000_000 (Tcp.Receiver.bytes_delivered rx);
  check Alcotest.bool "timeouts fired" true (Tcp.Transfer.timeouts tx > 0)

let test_two_transfers_share () =
  (* Two Renos on one 10 Mb/s bottleneck: both finish, and the slower
     one is within a small factor of the faster (rough fairness). *)
  let eng = Engine.create () in
  let bell =
    Topology.dumbbell eng ~pairs:2 ~core_bps:(mbps 10) ~edge_bps:(mbps 100)
      ~delay:(Time_ns.ms 1) ()
  in
  let net = bell.Topology.d_net in
  ignore net;
  let times = Array.make 2 None in
  let txs =
    List.init 2 (fun i ->
        let sa = Stack.create net bell.Topology.senders.(i) in
        let sb = Stack.create net bell.Topology.receivers.(i) in
        let _rx = Tcp.Receiver.attach sb ~port:5001 in
        Tcp.Transfer.start ~src:sa ~dst:bell.Topology.receivers.(i) ~port:5001
          ~total_bytes:1_000_000
          ~on_complete:(fun ~now -> times.(i) <- Some now)
          ())
  in
  Engine.run eng ~until:(Time_ns.sec 30);
  List.iter (fun tx -> check Alcotest.bool "done" true (Tcp.Transfer.is_done tx)) txs;
  match (times.(0), times.(1)) with
  | Some a, Some b ->
    let slow = float_of_int (max a b) and fast = float_of_int (min a b) in
    check Alcotest.bool
      (Printf.sprintf "finish times within 4x (%.0f vs %.0f ms)"
         (slow /. 1e6) (fast /. 1e6))
      true
      (slow /. fast < 4.0)
  | _ -> Alcotest.fail "missing completion time"

let suite =
  [
    Alcotest.test_case "clean transfer" `Quick test_clean_transfer;
    Alcotest.test_case "lossy transfer exact" `Quick test_lossy_transfer_still_exact;
    Alcotest.test_case "completion time" `Quick test_completion_time_reasonable;
    Alcotest.test_case "rto recovers from blackout" `Quick test_rto_recovers_from_blackout;
    Alcotest.test_case "two transfers share" `Slow test_two_transfers_share;
  ]
