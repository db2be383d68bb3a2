(* Assembler tests: syntax, the constant pool for 3-operand sugar,
   relocation of user packet offsets, and the disassembler fixpoint. *)

open Tpp

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let assemble_ok ?defines src =
  match Asm.assemble ?defines src with
  | Ok p -> p
  | Error e -> Alcotest.failf "assembly failed: %s" e

let assemble_err ?defines src =
  match Asm.assemble ?defines src with
  | Ok _ -> Alcotest.fail "assembly unexpectedly succeeded"
  | Error e -> e

let test_basic_program () =
  let p =
    assemble_ok
      "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]\n; a comment\nHALT\n"
  in
  check Alcotest.int "three instructions" 3 (List.length p.Asm.instrs);
  check Alcotest.int "no pool" 0 (Bytes.length p.Asm.pool);
  match p.Asm.instrs with
  | [ Instr.Push (Instr.Sw 0x000); Instr.Push (Instr.Sw 0x140); Instr.Halt ] -> ()
  | _ -> Alcotest.fail "unexpected instruction forms"

let test_comments_and_blank_lines () =
  let p = assemble_ok "\n  ; full line comment\n# hash comment\n\nNOP # trailing\n" in
  check Alcotest.int "one instruction" 1 (List.length p.Asm.instrs)

let test_case_insensitive_mnemonics () =
  let p = assemble_ok "push [Switch:SwitchID]\nhalt\n" in
  check Alcotest.int "parsed" 2 (List.length p.Asm.instrs)

let test_all_mnemonics () =
  let src =
    "NOP\n\
     PUSH [Switch:SwitchID]\n\
     POP [Sram:0]\n\
     LOAD [Link:QueueSize], [Packet:0]\n\
     STORE [Sram:1], [Packet:4]\n\
     MOV [Packet:0], 42\n\
     ADD [Packet:0], 1\n\
     SUB [Packet:0], 1\n\
     AND [Packet:0], 255\n\
     OR [Packet:0], 16\n\
     MIN [Packet:0], [Packet:4]\n\
     MAX [Packet:0], [Packet:4]\n\
     CSTORE [Sram:2], [Packet:8]\n\
     CEXEC [Switch:SwitchID], [Packet:8]\n\
     HALT\n"
  in
  let p = assemble_ok src in
  check Alcotest.int "all fifteen" 15 (List.length p.Asm.instrs)

let test_sugar_builds_pool () =
  let p =
    assemble_ok "CEXEC [Switch:SwitchID], 0xFFFFFFFF, 7\nCSTORE [Sram:0], 5, 9\n"
  in
  check Alcotest.int "pool holds four words" 16 (Bytes.length p.Asm.pool);
  check Alcotest.int "mask" 0xFFFFFFFF (Buf.get_u32i p.Asm.pool 0);
  check Alcotest.int "value" 7 (Buf.get_u32i p.Asm.pool 4);
  check Alcotest.int "cond" 5 (Buf.get_u32i p.Asm.pool 8);
  check Alcotest.int "new" 9 (Buf.get_u32i p.Asm.pool 12);
  match p.Asm.instrs with
  | [ Instr.Cexec (Instr.Sw 0, Instr.Pkt 0); Instr.Cstore (Instr.Sw 0x880, Instr.Pkt 8) ]
    -> ()
  | _ -> Alcotest.fail "pool offsets not encoded as expected"

let test_user_offsets_relocated_past_pool () =
  let p = assemble_ok "CEXEC [Switch:SwitchID], 1, 1\nLOAD [Switch:SwitchID], [Packet:0]\n" in
  match p.Asm.instrs with
  | [ _; Instr.Load (_, Instr.Pkt 8) ] -> ()
  | _ -> Alcotest.fail "user offset should shift by the 8-byte pool"

let test_hop_operands () =
  let p = assemble_ok "LOAD [Switch:SwitchID], [Packet:Hop[2]]\n" in
  match p.Asm.instrs with
  | [ Instr.Load (Instr.Sw 0, Instr.Hop 2) ] -> ()
  | _ -> Alcotest.fail "hop operand"

let test_defines () =
  let defines = [ ("Link:RCP-RateRegister", Vaddr.encode (Vaddr.Link_sram 0)) ] in
  let p = assemble_ok ~defines "PUSH [Link:RCP-RateRegister]\n" in
  match p.Asm.instrs with
  | [ Instr.Push (Instr.Sw 0x180) ] -> ()
  | _ -> Alcotest.fail "define resolution"

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_errors_carry_line_numbers () =
  let e = assemble_err "NOP\nFROB [Switch:SwitchID]\n" in
  check Alcotest.bool "line 2 reported" true (contains e "line 2");
  check Alcotest.bool "mnemonic named" true (contains e "FROB")

let test_error_cases () =
  let err src = ignore (assemble_err src) in
  err "PUSH\n" (* missing operand *);
  err "PUSH [Switch:SwitchID], [Packet:0]\n" (* too many operands *);
  err "PUSH [Nonsense:Stat]\n";
  err "LOAD [Switch:SwitchID], [Packet:3]\n" (* misaligned offset *);
  err "LOAD [Switch:SwitchID], [Packet:banana]\n";
  err "CEXEC [Switch:SwitchID], 0x1FFFFFFFF, 1\n" (* 33-bit constant *);
  err "MOV [Packet:0], 99999\n" (* immediate beyond 12 bits *);
  err "PUSH [Sram:-1]\n"

let test_word_directive () =
  let p = assemble_ok "STORE [Sram:0], [Packet:0]\n.WORD 0xDEADBEEF\n.WORD 7\n" in
  check (Alcotest.list Alcotest.int) "init words" [ 0xDEADBEEF; 7 ] p.Asm.user_init;
  match Asm.to_tpp ~mem_len:8 "STORE [Sram:0], [Packet:0]\n.WORD 0xDEADBEEF\n.WORD 7\n" with
  | Error e -> Alcotest.fail e
  | Ok tpp ->
    check Alcotest.int "word 0 initialised" 0xDEADBEEF (Prog.mem_get tpp tpp.Prog.base);
    check Alcotest.int "word 1 initialised" 7 (Prog.mem_get tpp (tpp.Prog.base + 4));
    check Alcotest.int "sp skips initialisers" (tpp.Prog.base + 8) tpp.Prog.sp

let test_word_directive_grows_memory () =
  (* mem_len 0 still fits the initialisers. *)
  match Asm.to_tpp ~mem_len:0 "STORE [Sram:0], [Packet:0]\n.WORD 5\n" with
  | Error e -> Alcotest.fail e
  | Ok tpp -> check Alcotest.int "word present" 5 (Prog.mem_get tpp tpp.Prog.base)

let test_word_directive_executes () =
  (* End-to-end: the initialised word lands in switch SRAM. *)
  let st = Tpp_asic.State.create ~switch_id:1 ~num_ports:2 () in
  let tpp =
    Result.get_ok (Asm.to_tpp ~mem_len:0 "STORE [Sram:9], [Packet:0]\n.WORD 4242\n")
  in
  let frame =
    Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
      ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2) ~src_port:1
      ~dst_port:2 ~tpp ~payload:Bytes.empty ()
  in
  frame.Frame.meta.Meta.out_port <- 0;
  ignore (Tpp_asic.Tcpu.execute st ~now:0 ~frame);
  check Alcotest.int "stored" 4242
    (Tpp_asic.State.sram_get st 9)

let test_word_directive_errors () =
  ignore (assemble_err ".WORD\n");
  ignore (assemble_err ".WORD 1, 2\n");
  ignore (assemble_err ".WORD banana\n");
  ignore (assemble_err ".WORD 0x1FFFFFFFF\n")

let test_to_tpp_packaging () =
  match Asm.to_tpp ~mem_len:16 "CEXEC [Switch:SwitchID], 3, 1\nPUSH [Switch:SwitchID]\n" with
  | Error e -> Alcotest.fail e
  | Ok tpp ->
    check Alcotest.int "base = pool bytes" 8 tpp.Prog.base;
    check Alcotest.int "sp starts at base" 8 tpp.Prog.sp;
    check Alcotest.int "total memory" 24 (Bytes.length tpp.Prog.memory);
    check Alcotest.int "pool initialised" 3 (Prog.mem_get tpp 0)

let test_disassemble_fixpoint () =
  let src =
    "PUSH [Switch:SwitchID]\n\
     LOAD [Link:QueueSize], [Packet:0]\n\
     CSTORE [Sram:2], 5, 9\n\
     CEXEC [Switch:SwitchID], 0xFFFFFFFF, 7\n\
     HALT\n"
  in
  match Asm.to_tpp ~mem_len:32 src with
  | Error e -> Alcotest.fail e
  | Ok tpp -> (
    let listing = Asm.disassemble tpp in
    (* Reassembling the listing must reproduce the program: the listing
       uses raw pool operands, so no new pool is created and offsets
       stay put. *)
    match Asm.assemble listing with
    | Error e -> Alcotest.failf "listing did not reassemble: %s\n%s" e listing
    | Ok p ->
      check Alcotest.bool "identical instructions" true
        (Array.to_list tpp.Prog.program = p.Asm.instrs))

let prop_roundtrip_simple_pushes =
  (* Any sequence of PUSHes over the named statistics assembles, and
     the disassembly reassembles to the same thing. *)
  let name_gen = QCheck.Gen.oneofl (List.map fst (Vaddr.all_named ())) in
  QCheck.Test.make ~name:"push listing roundtrip" ~count:100
    (QCheck.make QCheck.Gen.(list_size (1 -- 10) name_gen))
    (fun names ->
      let src = String.concat "" (List.map (Printf.sprintf "PUSH [%s]\n") names) in
      match Asm.assemble src with
      | Error _ -> false
      | Ok p -> (
        let tpp = Prog.make ~program:p.Asm.instrs ~mem_len:64 () in
        match Asm.assemble (Asm.disassemble tpp) with
        | Error _ -> false
        | Ok q -> p.Asm.instrs = q.Asm.instrs))

let suite =
  [
    Alcotest.test_case "basic program" `Quick test_basic_program;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blank_lines;
    Alcotest.test_case "case-insensitive mnemonics" `Quick test_case_insensitive_mnemonics;
    Alcotest.test_case "all mnemonics" `Quick test_all_mnemonics;
    Alcotest.test_case "sugar builds pool" `Quick test_sugar_builds_pool;
    Alcotest.test_case "user offsets relocated" `Quick test_user_offsets_relocated_past_pool;
    Alcotest.test_case "hop operands" `Quick test_hop_operands;
    Alcotest.test_case "defines" `Quick test_defines;
    Alcotest.test_case "errors carry line numbers" `Quick test_errors_carry_line_numbers;
    Alcotest.test_case "error cases" `Quick test_error_cases;
    Alcotest.test_case "to_tpp packaging" `Quick test_to_tpp_packaging;
    Alcotest.test_case ".word directive" `Quick test_word_directive;
    Alcotest.test_case ".word grows memory" `Quick test_word_directive_grows_memory;
    Alcotest.test_case ".word executes" `Quick test_word_directive_executes;
    Alcotest.test_case ".word errors" `Quick test_word_directive_errors;
    Alcotest.test_case "disassemble fixpoint" `Quick test_disassemble_fixpoint;
    qtest prop_roundtrip_simple_pushes;
  ]
