(* E1 (Figure 1), E3 (Table 1) and E4 (Table 2): demonstrations that
   run live against the simulated dataplane. *)

open Tpp
module State = Tpp_asic.State
module AsicTcpu = Tpp_asic.Tcpu
module AsicMmu = Tpp_asic.Mmu

let mbps x = x * 1_000_000

(* --- E1: Figure 1 — a queue-size probe walks a congested chain -------- *)

let figure1 () =
  Report.section "E1 / Figure 1" "TPP stack execution collecting queue sizes per hop";
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:3 ~hosts_per_switch:2 ~bps:(mbps 100)
      ~delay:(Time_ns.us 50) ()
  in
  let net = chain.Topology.net in
  let host i j = chain.Topology.hosts.(i).(j) in
  (* Two flows converge on the middle uplink so queues are non-trivial. *)
  List.iter
    (fun (si, sj, rate) ->
      let src = Stack.create net (host si sj) in
      let dst = Stack.create net (host 2 sj) in
      let _sink = Flow.Sink.attach dst ~port:9000 in
      let flow =
        Flow.cbr ~src ~dst:(host 2 sj) ~dst_port:9000 ~payload_bytes:1000
          ~rate_bps:rate
      in
      Flow.start flow ())
    [ (0, 1, mbps 60); (1, 1, mbps 60) ];
  let src = Stack.create net (host 0 0) in
  let dst_stack = Stack.create net (host 2 0) in
  Probe.install_echo dst_stack;
  let program = "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]\n" in
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:(4 * 2 * 8) program) in
  Printf.printf "probe program (executed at every hop):\n%s\n"
    (Asm.disassemble tpp);
  Report.kvi "TPP section bytes on the wire" (Prog.section_size tpp);
  let result = ref None in
  Probe.install_reply_handler src (fun ~now:_ ~seq:_ tpp -> result := Some tpp);
  Engine.at eng (Time_ns.ms 50) (fun () -> Probe.send src ~dst:(host 2 0) ~tpp ~seq:1);
  Engine.run eng ~until:(Time_ns.ms 80);
  match !result with
  | None -> print_endline "  probe did not return!"
  | Some tpp ->
    Report.sub "packet memory as the TPP traverses the network (cf. Figure 1)";
    let values = Array.of_list (Prog.stack_values tpp) in
    for hop = 0 to tpp.Prog.hop do
      let sp = tpp.Prog.base + (8 * hop) in
      let words =
        Array.to_list (Array.sub values 0 (2 * hop))
        |> List.map (Printf.sprintf "0x%08x")
        |> String.concat " "
      in
      Printf.printf "  after hop %d:  SP = 0x%02x   [%s]\n" hop sp words
    done;
    Report.sub "decoded per-hop snapshots";
    let rec show = function
      | swid :: qlen :: rest ->
        Printf.printf "  switch %d: queue %6d bytes (%5.2f ms of queueing at line rate)\n"
          swid qlen
          (float_of_int (qlen * 8) /. float_of_int (mbps 100) *. 1e3);
        show rest
      | _ -> ()
    in
    show (Prog.stack_values tpp);
    let max_queue =
      List.fold_left max 0
        (List.filteri (fun i _ -> i mod 2 = 1) (Prog.stack_values tpp))
    in
    Report.expect ~what:"per-hop queue snapshots recorded"
      ~paper:"3 hops, per-hop values"
      ~measured:(Printf.sprintf "%d hops, max q=%dB" tpp.Prog.hop max_queue)
      (tpp.Prog.hop = 3 && max_queue > 0)

(* --- E3: Table 1 — the instruction set, demonstrated ------------------- *)

let table1 () =
  Report.section "E3 / Table 1" "the TPP instruction set, each demonstrated live";
  let st = State.create ~switch_id:3 ~num_ports:4 () in
  State.force_queue_depth st ~port:1 ~bytes:9000;
  let run src =
    let tpp = Result.get_ok (Asm.to_tpp ~mem_len:16 src) in
    let frame =
      Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
        ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2)
        ~src_port:1 ~dst_port:2 ~tpp ~payload:Bytes.empty ()
    in
    frame.Frame.meta.Meta.out_port <- 1;
    ignore (AsicTcpu.execute st ~now:0 ~frame);
    Option.get frame.Frame.tpp
  in
  let show name meaning effect =
    Printf.printf "  %-18s %-46s %s\n" name meaning effect
  in
  Printf.printf "  %-18s %-46s %s\n" "instruction" "meaning (paper Table 1)" "demonstrated";
  let t = run "PUSH [Queue:QueueSize]" in
  show "LOAD, PUSH" "copy values from switch to packet"
    (Printf.sprintf "PUSH [Queue:QueueSize] -> packet holds %d"
       (List.hd (Prog.stack_values t)));
  let _ = run "PUSH [Queue:QueueSize]\nPOP [Sram:0]" in
  show "STORE, POP" "copy values from packet to switch"
    (Printf.sprintf "POP [Sram:0] -> switch SRAM holds %d"
       (State.sram_get st 0));
  ignore (State.sram_set st 1 5);
  let t = run "CSTORE [Sram:1], 5, 8" in
  let won = Prog.mem_get t 0 = 5 in
  show "CSTORE" "conditional store for atomic operations"
    (Printf.sprintf "cond 5 matched: sram=%d, old value returned (%s)"
       (State.sram_get st 1)
       (if won then "write won" else "write lost"));
  let t = run "CEXEC [Switch:SwitchID], 0xFFFFFFFF, 99\nPUSH [Queue:QueueSize]" in
  show "CEXEC" "conditionally execute subsequent instructions"
    (Printf.sprintf "guard for switch 99 on switch 3: %d instructions ran after it"
       (List.length (Prog.stack_values t)));
  let t = run "MOV [Packet:0], 1000\nADD [Packet:0], 234\nPUSH [Packet:0]" in
  show "(arith)" "simple arithmetic in the dataplane"
    (Printf.sprintf "MOV 1000; ADD 234 -> %d" (Prog.mem_get t 0));
  Report.expect ~what:"instruction set of Table 1 supported"
    ~paper:"6 instruction families" ~measured:"all execute on the TCPU" true

(* --- E4: Table 2 — the statistics namespaces --------------------------- *)

let table2 () =
  Report.section "E4 / Table 2" "statistics namespaces and the live memory map";
  (* Give the switch some real history first. *)
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:1 ~hosts_per_switch:2 ~bps:(mbps 100)
      ~delay:(Time_ns.us 10) ()
  in
  let net = chain.Topology.net in
  Net.start_utilization_updates net ~period:(Time_ns.ms 10) ~until:(Time_ns.ms 100);
  let src = Stack.create net chain.Topology.hosts.(0).(0) in
  let dst_host = chain.Topology.hosts.(0).(1) in
  let dst = Stack.create net dst_host in
  let _sink = Flow.Sink.attach dst ~port:9000 in
  let flow =
    Flow.cbr ~src ~dst:dst_host ~dst_port:9000 ~payload_bytes:1000
      ~rate_bps:(mbps 40)
  in
  Flow.start flow ();
  Engine.run eng ~until:(Time_ns.ms 95);
  let sw = Net.switch net chain.Topology.switch_ids.(0) in
  let st = Switch.state sw in
  let meta = Meta.create () in
  meta.Meta.out_port <- 3 (* the receiver's access port *);
  Printf.printf "  %-34s %-8s %s\n" "statistic" "address" "live value";
  let groups =
    [ ("Per-Switch", "Switch:"); ("Per-Port (packet's out link)", "Link:");
      ("Per-Queue (packet's egress queue)", "Queue:");
      ("Per-Packet", "PacketMetadata:") ]
  in
  List.iter
    (fun (title, prefix) ->
      Report.sub title;
      List.iter
        (fun (name, addr) ->
          let plen = String.length prefix in
          if String.length name >= plen && String.sub name 0 plen = prefix then begin
            let value =
              match AsicMmu.read st ~meta ~now:(Engine.now eng) addr with
              | Ok v -> string_of_int v
              | Error f -> AsicMmu.fault_message f
            in
            Printf.printf "  %-34s 0x%03x    %s\n" name addr value
          end)
        (Vaddr.all_named ()))
    groups;
  Report.sub "SRAM (control-plane partitioned)";
  Report.kvi "words available" Vaddr.sram_words;
  Report.kvi "contextual per-link slots" Vaddr.link_sram_slots;
  Report.expect ~what:"Table 2 namespaces exposed"
    ~paper:"switch/port/queue/packet" ~measured:"all mapped + SRAM" true
