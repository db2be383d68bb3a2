(* TCPU semantics: every instruction, CEXEC gating, CSTORE atomicity,
   hop addressing, faults, and the cycle model of paper §3.3. *)

open Tpp
module State = Tpp_asic.State
module Tcpu = Tpp_asic.Tcpu
module Mmu = Tpp_asic.Mmu
module Interp = Tpp_oracle.Interp

let check = Alcotest.check

let make_state () =
  let st = State.create ~switch_id:3 ~num_ports:4 () in
  State.force_queue_depth st ~port:2 ~bytes:4242;
  (State.port st 2).State.Port.capacity_bps <- 10_000_000;
  st

(* Wraps an assembled program in a frame ready for execution, with the
   forwarding metadata a pipeline would have filled in. *)
let frame_of ?defines ?addr_mode ?perhop_len ~mem_len src =
  let tpp =
    match Asm.to_tpp ?defines ?addr_mode ?perhop_len ~mem_len src with
    | Ok tpp -> tpp
    | Error e -> Alcotest.failf "assembly: %s" e
  in
  let frame =
    Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
      ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2) ~src_port:1
      ~dst_port:2 ~tpp ~payload:Bytes.empty ()
  in
  frame.Frame.meta.Meta.out_port <- 2;
  frame.Frame.meta.Meta.in_port <- 1;
  frame.Frame.meta.Meta.matched_entry <- 55;
  frame

let exec ?(now = 0) st frame =
  match Tcpu.execute st ~now ~frame with
  | Some r -> r
  | None -> Alcotest.fail "no TPP on frame"

let tpp_of frame = Option.get frame.Frame.tpp

let test_non_tpp_ignored () =
  let st = make_state () in
  let frame =
    Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
      ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2) ~src_port:1
      ~dst_port:2 ~payload:Bytes.empty ()
  in
  check Alcotest.bool "ignored" true (Tcpu.execute st ~now:0 ~frame = None);
  check Alcotest.int "no exec counted" 0 st.State.tpp_execs

let test_push_stack () =
  let st = make_state () in
  let frame = frame_of ~mem_len:32 "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]\n" in
  let r = exec st frame in
  check Alcotest.int "executed" 2 r.Tcpu.executed;
  check Alcotest.bool "no fault" true (r.Tcpu.fault = None);
  let tpp = tpp_of frame in
  check (Alcotest.list Alcotest.int) "stack" [ 3; 4242 ] (Prog.stack_values tpp);
  check Alcotest.int "sp" 8 tpp.Prog.sp;
  check Alcotest.int "hop advanced" 1 tpp.Prog.hop;
  check Alcotest.int "exec counter" 1 st.State.tpp_execs

let test_push_across_hops_accumulates () =
  let st1 = make_state () in
  let st2 = State.create ~switch_id:9 ~num_ports:4 () in
  State.force_queue_depth st2 ~port:2 ~bytes:7;
  let frame = frame_of ~mem_len:32 "PUSH [Queue:QueueSize]\n" in
  ignore (exec st1 frame);
  ignore (exec st2 frame);
  check (Alcotest.list Alcotest.int) "two snapshots" [ 4242; 7 ]
    (Prog.stack_values (tpp_of frame))

let test_pop_and_store_to_sram () =
  let st = make_state () in
  let frame = frame_of ~mem_len:16 "PUSH [Queue:QueueSize]\nPOP [Sram:3]\n" in
  let r = exec st frame in
  check Alcotest.bool "ok" true (r.Tcpu.fault = None);
  check Alcotest.int "sram got the value" 4242
    (State.sram_get st 3);
  check Alcotest.int "sp back to base" 0 (tpp_of frame).Prog.sp

let test_load_store_mov () =
  let st = make_state () in
  let frame =
    frame_of ~mem_len:16
      "LOAD [PacketMetadata:MatchedEntryID], [Packet:0]\n\
       MOV [Packet:4], 99\n\
       STORE [Sram:1], [Packet:4]\n"
  in
  let r = exec st frame in
  check Alcotest.bool "ok" true (r.Tcpu.fault = None);
  check Alcotest.int "load" 55 (Prog.mem_get (tpp_of frame) 0);
  check Alcotest.int "mov imm" 99 (Prog.mem_get (tpp_of frame) 4);
  check Alcotest.int "store" 99 (State.sram_get st 1)

let binop_case op a b expected () =
  let st = make_state () in
  let src = Printf.sprintf "MOV [Packet:0], %d\n%s [Packet:0], %d\n" a op b in
  let frame = frame_of ~mem_len:8 src in
  let r = exec st frame in
  check Alcotest.bool "ok" true (r.Tcpu.fault = None);
  check Alcotest.int (Printf.sprintf "%d %s %d" a op b) expected
    (Prog.mem_get (tpp_of frame) 0)

let test_sub_wraps_unsigned () =
  let st = make_state () in
  let frame = frame_of ~mem_len:8 "MOV [Packet:0], 1\nSUB [Packet:0], 2\n" in
  ignore (exec st frame);
  check Alcotest.int "wraps to 2^32-1" 0xFFFF_FFFF (Prog.mem_get (tpp_of frame) 0)

let test_arith_on_sram () =
  let st = make_state () in
  ignore (State.sram_set st 0 10);
  let frame = frame_of ~mem_len:8 "ADD [Sram:0], 5\n" in
  ignore (exec st frame);
  check Alcotest.int "in-switch add" 15 (State.sram_get st 0)

let test_cstore_success_and_failure () =
  let st = make_state () in
  ignore (State.sram_set st 4 5);
  (* Succeeds: register is 5, expect 5, write 9. *)
  let frame = frame_of ~mem_len:0 "CSTORE [Sram:4], 5, 9\n" in
  let r = exec st frame in
  check Alcotest.bool "ok" true (r.Tcpu.fault = None);
  check Alcotest.int "stored" 9 (State.sram_get st 4);
  check Alcotest.int "old value reported" 5 (Prog.mem_get (tpp_of frame) 0);
  (* Fails: register is now 9, expect 5 again. *)
  let frame2 = frame_of ~mem_len:0 "CSTORE [Sram:4], 5, 1\n" in
  ignore (exec st frame2);
  check Alcotest.int "unchanged" 9 (State.sram_get st 4);
  check Alcotest.int "old value exposes failure" 9 (Prog.mem_get (tpp_of frame2) 0)

let test_cexec_gates_execution () =
  let st = make_state () in
  (* Switch id is 3: a check for 3 passes, a check for 4 halts. *)
  let pass =
    frame_of ~mem_len:8 "CEXEC [Switch:SwitchID], 0xFFFFFFFF, 3\nMOV [Packet:0], 1\n"
  in
  let r = exec st pass in
  check Alcotest.int "both ran" 2 r.Tcpu.executed;
  check Alcotest.bool "not stopped" false r.Tcpu.stopped_by_cexec;
  check Alcotest.int "effect" 1 (Prog.mem_get (tpp_of pass) 8);
  let blocked =
    frame_of ~mem_len:8 "CEXEC [Switch:SwitchID], 0xFFFFFFFF, 4\nMOV [Packet:0], 1\n"
  in
  let r2 = exec st blocked in
  check Alcotest.int "stopped after check" 1 r2.Tcpu.executed;
  check Alcotest.bool "flagged" true r2.Tcpu.stopped_by_cexec;
  check Alcotest.bool "no fault" true (r2.Tcpu.fault = None);
  check Alcotest.int "no effect" 0 (Prog.mem_get (tpp_of blocked) 8);
  check Alcotest.int "hop still advances" 1 (tpp_of blocked).Prog.hop

let test_cexec_mask () =
  let st = make_state () in
  (* Low two bits of switch id 3 are 0b11. *)
  let frame = frame_of ~mem_len:8 "CEXEC [Switch:SwitchID], 3, 3\nMOV [Packet:0], 1\n" in
  let r = exec st frame in
  check Alcotest.int "mask applied" 2 r.Tcpu.executed

let test_halt () =
  let st = make_state () in
  let frame = frame_of ~mem_len:8 "HALT\nMOV [Packet:0], 1\n" in
  let r = exec st frame in
  check Alcotest.int "stopped" 1 r.Tcpu.executed;
  check Alcotest.bool "halt is not cexec" false r.Tcpu.stopped_by_cexec;
  check Alcotest.int "nothing written" 0 (Prog.mem_get (tpp_of frame) 0)

let test_hop_addressing () =
  let st1 = make_state () in
  let st2 = State.create ~switch_id:9 ~num_ports:4 () in
  let frame =
    frame_of ~addr_mode:Prog.Hop_addressed ~perhop_len:8 ~mem_len:32
      "LOAD [Switch:SwitchID], [Packet:Hop[0]]\n\
       LOAD [PacketMetadata:OutputPort], [Packet:Hop[1]]\n"
  in
  ignore (exec st1 frame);
  frame.Frame.meta.Meta.out_port <- 1;
  ignore (exec st2 frame);
  let tpp = tpp_of frame in
  check (Alcotest.list Alcotest.int) "hop 0" [ 3; 2 ] (Prog.hop_block tpp ~hop:0);
  check (Alcotest.list Alcotest.int) "hop 1" [ 9; 1 ] (Prog.hop_block tpp ~hop:1)

(* --- Faults -------------------------------------------------------------- *)

let expect_fault frame st predicate name =
  let r = exec st frame in
  (match r.Tcpu.fault with
  | Some f when predicate f -> ()
  | Some f -> Alcotest.failf "%s: wrong fault %s" name (Tcpu.fault_message f)
  | None -> Alcotest.failf "%s: expected a fault" name);
  check Alcotest.bool (name ^ ": tpp flagged") true (tpp_of frame).Prog.faulted;
  check Alcotest.bool (name ^ ": switch counted") true (st.State.tpp_faults >= 1)

let test_fault_write_to_stat () =
  let st = make_state () in
  let frame = frame_of ~mem_len:8 "MOV [Packet:0], 1\nSTORE [Queue:QueueSize], [Packet:0]\n" in
  expect_fault frame st
    (function Tcpu.Mmu_fault (Mmu.Read_only _) -> true | _ -> false)
    "write stat"

let test_fault_stack_overflow () =
  let st = make_state () in
  let frame = frame_of ~mem_len:4 "PUSH [Switch:SwitchID]\nPUSH [Switch:SwitchID]\n" in
  expect_fault frame st (fun f -> f = Tcpu.Stack_overflow) "overflow"

let test_fault_stack_underflow () =
  let st = make_state () in
  let frame = frame_of ~mem_len:8 "POP [Sram:0]\n" in
  expect_fault frame st (fun f -> f = Tcpu.Stack_underflow) "underflow"

let test_fault_packet_oob () =
  let st = make_state () in
  let frame = frame_of ~mem_len:8 "LOAD [Switch:SwitchID], [Packet:Hop[100]]\n" in
  expect_fault frame st
    (function Tcpu.Packet_oob _ -> true | _ -> false)
    "packet oob"

let test_fault_stops_execution_midway () =
  let st = make_state () in
  let frame =
    frame_of ~mem_len:8
      "MOV [Packet:0], 1\nSTORE [Queue:QueueSize], [Packet:0]\nMOV [Packet:4], 2\n"
  in
  let r = exec st frame in
  check Alcotest.int "stopped at the fault" 2 r.Tcpu.executed;
  check Alcotest.int "later instr skipped" 0 (Prog.mem_get (tpp_of frame) 4)

let test_faulted_tpp_is_inert () =
  let st = make_state () in
  let frame = frame_of ~mem_len:8 "POP [Sram:0]\n" in
  ignore (exec st frame);
  let execs = st.State.tpp_execs in
  let r = exec st frame in
  check Alcotest.int "no instructions re-run" 0 r.Tcpu.executed;
  check Alcotest.int "not recounted" execs st.State.tpp_execs;
  check Alcotest.int "hop frozen" 1 (tpp_of frame).Prog.hop

let test_fault_write_to_immediate () =
  let st = make_state () in
  let tpp =
    Prog.make ~program:[ Instr.Mov (Instr.Imm 1, Instr.Imm 2) ] ~mem_len:8 ()
  in
  let frame =
    Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
      ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2) ~src_port:1
      ~dst_port:2 ~tpp ~payload:Bytes.empty ()
  in
  frame.Frame.meta.Meta.out_port <- 0;
  let r = exec st frame in
  check Alcotest.bool "immediate write fault" true
    (r.Tcpu.fault = Some Tcpu.Immediate_write)

let test_fault_bad_pool_operand () =
  let st = make_state () in
  let frame = frame_of ~mem_len:8 "CEXEC [Switch:SwitchID], 4095\n" in
  let r = exec st frame in
  check Alcotest.bool "pool must be packet memory" true
    (match r.Tcpu.fault with Some (Tcpu.Bad_operand _) -> true | _ -> false)

(* --- Backends -------------------------------------------------------------- *)

(* The suite above runs the compiled TCPU; these run a few scenarios on
   the oracle library's interpreter too and hold the observable outcomes
   equal. (The exhaustive differential test is in test_compile.ml.) *)

let observe execute src ~mem_len =
  let st = make_state () in
  let frame = frame_of ~mem_len src in
  let r =
    match execute st ~now:0 ~frame with
    | Some r -> r
    | None -> Alcotest.fail "no TPP on frame"
  in
  let tpp = tpp_of frame in
  ( r.Tcpu.executed, r.Tcpu.cycles, r.Tcpu.stopped_by_cexec,
    Option.map Tcpu.fault_message r.Tcpu.fault,
    Prog.words tpp, tpp.Prog.sp, tpp.Prog.hop, tpp.Prog.faulted,
    List.init 8 (fun i -> State.sram_get st i),
    (st.State.tpp_execs, st.State.tpp_faults, st.State.tpp_cycles) )

let backend_case name src ~mem_len () =
  if observe Interp.execute src ~mem_len <> observe Tcpu.execute src ~mem_len
  then Alcotest.failf "%s: interpreter and compiled TCPU diverge" name

let test_backend_stack () =
  backend_case "stack"
    "PUSH [Queue:QueueSize]\nPOP [Sram:3]\nADD [Sram:3], 5\nLOAD [Sram:3], [Packet:0]\n"
    ~mem_len:16 ()

let test_backend_cexec () =
  backend_case "cexec" "CEXEC [Switch:SwitchID], 0xFFFFFFFF, 4\nMOV [Packet:0], 1\n"
    ~mem_len:8 ()

let test_backend_fault () =
  backend_case "fault"
    "MOV [Packet:0], 1\nSTORE [Queue:QueueSize], [Packet:0]\nMOV [Packet:4], 2\n"
    ~mem_len:8 ()

(* --- Cycle model ----------------------------------------------------------- *)

let test_cycle_model () =
  check Alcotest.int "pipeline fill" 4 (Tcpu.cycles_for 0);
  check Alcotest.int "five instructions" 9 (Tcpu.cycles_for 5);
  check Alcotest.bool "five instructions fit the cut-through budget" true
    (Tcpu.cycles_for 5 < Tcpu.cycle_budget);
  let st = make_state () in
  let frame = frame_of ~mem_len:32 "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]\n" in
  let r = exec st frame in
  check Alcotest.int "cycles reported" (Tcpu.cycles_for 2) r.Tcpu.cycles;
  check Alcotest.int "switch accumulates" (Tcpu.cycles_for 2) st.State.tpp_cycles

let suite =
  [
    Alcotest.test_case "non-TPP packets ignored" `Quick test_non_tpp_ignored;
    Alcotest.test_case "push builds stack" `Quick test_push_stack;
    Alcotest.test_case "push across hops" `Quick test_push_across_hops_accumulates;
    Alcotest.test_case "pop/store to sram" `Quick test_pop_and_store_to_sram;
    Alcotest.test_case "load/store/mov" `Quick test_load_store_mov;
    Alcotest.test_case "add" `Quick (binop_case "ADD" 7 5 12);
    Alcotest.test_case "and" `Quick (binop_case "AND" 12 10 8);
    Alcotest.test_case "or" `Quick (binop_case "OR" 12 10 14);
    Alcotest.test_case "min" `Quick (binop_case "MIN" 12 10 10);
    Alcotest.test_case "max" `Quick (binop_case "MAX" 12 10 12);
    Alcotest.test_case "sub wraps unsigned" `Quick test_sub_wraps_unsigned;
    Alcotest.test_case "arith on sram" `Quick test_arith_on_sram;
    Alcotest.test_case "cstore success/failure" `Quick test_cstore_success_and_failure;
    Alcotest.test_case "cexec gating" `Quick test_cexec_gates_execution;
    Alcotest.test_case "cexec mask" `Quick test_cexec_mask;
    Alcotest.test_case "halt" `Quick test_halt;
    Alcotest.test_case "hop addressing" `Quick test_hop_addressing;
    Alcotest.test_case "fault: write to stat" `Quick test_fault_write_to_stat;
    Alcotest.test_case "fault: stack overflow" `Quick test_fault_stack_overflow;
    Alcotest.test_case "fault: stack underflow" `Quick test_fault_stack_underflow;
    Alcotest.test_case "fault: packet oob" `Quick test_fault_packet_oob;
    Alcotest.test_case "fault stops execution" `Quick test_fault_stops_execution_midway;
    Alcotest.test_case "faulted tpp inert" `Quick test_faulted_tpp_is_inert;
    Alcotest.test_case "fault: write to immediate" `Quick test_fault_write_to_immediate;
    Alcotest.test_case "fault: bad pool operand" `Quick test_fault_bad_pool_operand;
    Alcotest.test_case "backend parity: stack" `Quick test_backend_stack;
    Alcotest.test_case "backend parity: cexec" `Quick test_backend_cexec;
    Alcotest.test_case "backend parity: fault" `Quick test_backend_fault;
    Alcotest.test_case "cycle model" `Quick test_cycle_model;
  ]
