(* Tests for the TPP ISA: address map, instruction codec, the TPP
   section wire format, and full frames. *)

open Tpp

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Vaddr ------------------------------------------------------------ *)

let test_vaddr_classify_encode_bijection () =
  (* Every address that classifies must encode back to itself. *)
  let mapped = ref 0 in
  for a = 0 to Vaddr.limit - 1 do
    match Vaddr.classify a with
    | Ok region ->
      incr mapped;
      check Alcotest.int (Printf.sprintf "addr 0x%03x" a) a (Vaddr.encode region)
    | Error _ -> ()
  done;
  check Alcotest.bool "most of the space is mapped" true (!mapped > 3000)

let test_vaddr_known_addresses () =
  check Alcotest.int "switch id at 0" 0 (Vaddr.encode (Vaddr.Switch Vaddr.Switch_stat.Switch_id));
  check Alcotest.int "queue size at 0x100" 0x100
    (Vaddr.encode (Vaddr.Link Vaddr.Port_stat.Queue_bytes));
  check Alcotest.int "link sram base" 0x180 (Vaddr.encode (Vaddr.Link_sram 0));
  check Alcotest.int "port array" (0x200 + 48 + 3)
    (Vaddr.encode (Vaddr.Port (3, Vaddr.Port_stat.Tx_bytes)));
  check Alcotest.int "meta base" 0x800 (Vaddr.encode (Vaddr.Meta Vaddr.Pkt_meta.Input_port));
  check Alcotest.int "sram base" 0x880 (Vaddr.encode (Vaddr.Sram 0))

let test_vaddr_holes () =
  (* Unused slots inside a namespace are classification errors. *)
  check Alcotest.bool "switch hole" true (Result.is_error (Vaddr.classify 0x050));
  check Alcotest.bool "link stat hole" true (Result.is_error (Vaddr.classify 0x17F));
  check Alcotest.bool "meta hole" true (Result.is_error (Vaddr.classify 0x87F));
  check Alcotest.bool "negative" true (Result.is_error (Vaddr.classify (-1)));
  check Alcotest.bool "beyond" true (Result.is_error (Vaddr.classify 0x1000))

let test_vaddr_names () =
  let resolve n = Result.get_ok (Vaddr.of_name n) in
  check Alcotest.int "Switch:SwitchID" 0 (resolve "Switch:SwitchID");
  check Alcotest.int "Link namespace" 0x100 (resolve "Link:QueueSize");
  check Alcotest.int "Queue namespace" 0x140 (resolve "Queue:QueueSize");
  check Alcotest.int "per-queue drop bytes" 0x143 (resolve "Queue:BytesDropped");
  check Alcotest.int "port stat name" (0x200 + 80 + 3) (resolve "Port:5:TxBytes");
  check Alcotest.int "sram name" (0x880 + 17) (resolve "Sram:17");
  check Alcotest.int "link sram name" (0x180 + 3) (resolve "LinkSram:3");
  check Alcotest.bool "unknown name" true (Result.is_error (Vaddr.of_name "Foo:Bar"));
  check Alcotest.bool "sram out of range" true
    (Result.is_error (Vaddr.of_name "Sram:99999"));
  check Alcotest.int "defines win" 0x42
    (Result.get_ok (Vaddr.of_name ~defines:[ ("My:Reg", 0x42) ] "My:Reg"))

let test_vaddr_name_roundtrip () =
  List.iter
    (fun (name, addr) ->
      check Alcotest.int name addr (Result.get_ok (Vaddr.of_name name)))
    (Vaddr.all_named ());
  (* to_name renders something of_name can resolve, for mapped regions. *)
  List.iter
    (fun a ->
      let name = Vaddr.to_name a in
      check Alcotest.int ("roundtrip " ^ name) a (Result.get_ok (Vaddr.of_name name)))
    [ 0x000; 0x104; 0x180; 0x213; 0x800; 0x880; 0xFFF ]

let test_vaddr_writable () =
  check Alcotest.bool "sram writable" true (Vaddr.writable (Vaddr.Sram 0));
  check Alcotest.bool "link sram writable" true (Vaddr.writable (Vaddr.Link_sram 1));
  check Alcotest.bool "stats read-only" false
    (Vaddr.writable (Vaddr.Link Vaddr.Port_stat.Queue_bytes));
  check Alcotest.bool "meta read-only" false
    (Vaddr.writable (Vaddr.Meta Vaddr.Pkt_meta.Input_port));
  check Alcotest.bool "switch read-only" false
    (Vaddr.writable (Vaddr.Switch Vaddr.Switch_stat.Version))

(* --- Instr codec ------------------------------------------------------ *)

let operand_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Instr.Sw v) (int_bound 0xFFF);
        map (fun v -> Instr.Pkt v) (int_bound 0xFFF);
        map (fun v -> Instr.Imm v) (int_bound 0xFFF);
        map (fun v -> Instr.Hop v) (int_bound 0xFFF);
      ])

let binop_gen =
  QCheck.Gen.oneofl [ Instr.Add; Instr.Sub; Instr.And; Instr.Or; Instr.Min; Instr.Max ]

let instr_gen =
  QCheck.Gen.(
    oneof
      [
        return Instr.Nop;
        return Instr.Halt;
        map (fun a -> Instr.Push a) operand_gen;
        map (fun a -> Instr.Pop a) operand_gen;
        map2 (fun a b -> Instr.Load (a, b)) operand_gen operand_gen;
        map2 (fun a b -> Instr.Store (a, b)) operand_gen operand_gen;
        map2 (fun a b -> Instr.Mov (a, b)) operand_gen operand_gen;
        map3 (fun op a b -> Instr.Binop (op, a, b)) binop_gen operand_gen operand_gen;
        map2 (fun a b -> Instr.Cstore (a, b)) operand_gen operand_gen;
        map2 (fun a b -> Instr.Cexec (a, b)) operand_gen operand_gen;
      ])

let instr_arbitrary =
  QCheck.make ~print:(Format.asprintf "%a" Instr.pp) instr_gen

let prop_instr_roundtrip =
  QCheck.Test.make ~name:"instruction encode/decode roundtrip" ~count:500
    instr_arbitrary
    (fun i -> match Instr.decode (Instr.encode i) with
      | Ok j -> Instr.equal i j
      | Error _ -> false)

(* Same roundtrip through the byte-level writer/reader, with operand
   values biased to the 12-bit field edges where packing bugs live. *)
let boundary_operand_gen =
  QCheck.Gen.(
    let v = frequency [ (2, int_bound 0xFFF); (3, oneofl [ 0; 1; 0x7FF; 0x800; 0xFFE; 0xFFF ]) ] in
    oneof
      [
        map (fun v -> Instr.Sw v) v;
        map (fun v -> Instr.Pkt v) v;
        map (fun v -> Instr.Imm v) v;
        map (fun v -> Instr.Hop v) v;
      ])

let boundary_instr_gen =
  QCheck.Gen.(
    let op = boundary_operand_gen in
    oneof
      [
        return Instr.Nop;
        return Instr.Halt;
        map (fun a -> Instr.Push a) op;
        map (fun a -> Instr.Pop a) op;
        map2 (fun a b -> Instr.Load (a, b)) op op;
        map2 (fun a b -> Instr.Store (a, b)) op op;
        map2 (fun a b -> Instr.Mov (a, b)) op op;
        map3 (fun o a b -> Instr.Binop (o, a, b)) binop_gen op op;
        map2 (fun a b -> Instr.Cstore (a, b)) op op;
        map2 (fun a b -> Instr.Cexec (a, b)) op op;
      ])

let prop_instr_wire_roundtrip =
  QCheck.Test.make ~name:"instruction write/read roundtrip (12-bit boundaries)"
    ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Instr.pp) boundary_instr_gen)
    (fun i ->
      let w = Buf.Writer.create () in
      Instr.write w i;
      match Instr.read (Buf.Reader.of_bytes (Buf.Writer.contents w)) with
      | Ok j -> Instr.equal i j
      | Error _ -> false)

let test_instr_bad_opcode () =
  check Alcotest.bool "opcode 15 rejected" true
    (Result.is_error (Instr.decode 0xF0000000l))

let test_instr_operand_overflow () =
  Alcotest.check_raises "13-bit operand"
    (Invalid_argument "Instr.encode: operand value exceeds 12 bits") (fun () ->
      ignore (Instr.encode (Instr.Push (Instr.Sw 0x1000))))

let test_instr_size () =
  let w = Buf.Writer.create () in
  Instr.write w (Instr.Push (Instr.Sw 0x100));
  check Alcotest.int "4 bytes" Instr.size (Buf.Writer.length w)

(* --- Tpp section ------------------------------------------------------ *)

let sample_program =
  [ Instr.Push (Instr.Sw 0x000); Instr.Push (Instr.Sw 0x100); Instr.Halt ]

let test_tpp_make_layout () =
  let pool = Bytes.make 8 '\000' in
  Buf.set_u32i pool 0 111;
  Buf.set_u32i pool 4 222;
  let tpp = Prog.make ~pool ~program:sample_program ~mem_len:16 () in
  check Alcotest.int "base after pool" 8 tpp.Prog.base;
  check Alcotest.int "sp at base" 8 tpp.Prog.sp;
  check Alcotest.int "memory size" 24 (Bytes.length tpp.Prog.memory);
  check Alcotest.int "pool word" 111 (Prog.mem_get tpp 0);
  check Alcotest.int "pool word 2" 222 (Prog.mem_get tpp 4);
  check Alcotest.int "section size" (16 + 12 + 24) (Prog.section_size tpp);
  check (Alcotest.list Alcotest.int) "stack empty" [] (Prog.stack_values tpp)

let test_tpp_alignment_checks () =
  Alcotest.check_raises "mem alignment"
    (Invalid_argument "Tpp.make: mem_len must be word aligned") (fun () ->
      ignore (Prog.make ~program:[] ~mem_len:6 ()));
  Alcotest.check_raises "hop mode needs perhop"
    (Invalid_argument "Tpp.make: hop addressing needs perhop_len > 0") (fun () ->
      ignore (Prog.make ~addr_mode:Prog.Hop_addressed ~program:[] ~mem_len:8 ()))

let roundtrip_tpp tpp =
  let w = Buf.Writer.create () in
  Prog.write w tpp;
  Prog.read (Buf.Reader.of_bytes (Buf.Writer.contents w))

let test_tpp_wire_roundtrip () =
  let tpp = Prog.make ~program:sample_program ~mem_len:32 () in
  tpp.Prog.sp <- 8;
  tpp.Prog.hop <- 2;
  Prog.mem_set tpp 4 0xCAFE;
  match roundtrip_tpp tpp with
  | Error e -> Alcotest.fail e
  | Ok got ->
    check Alcotest.int "sp" 8 got.Prog.sp;
    check Alcotest.int "hop" 2 got.Prog.hop;
    check Alcotest.int "mem word" 0xCAFE (Prog.mem_get got 4);
    check Alcotest.int "program len" 3 (Array.length got.Prog.program);
    check Alcotest.bool "program equal" true (got.Prog.program = tpp.Prog.program);
    check Alcotest.bool "mode" true (got.Prog.addr_mode = Prog.Stack)

let test_tpp_hop_mode_roundtrip () =
  let tpp =
    Prog.make ~addr_mode:Prog.Hop_addressed ~perhop_len:8 ~program:sample_program
      ~mem_len:32 ~inner_ethertype:Ethernet.ethertype_ipv4 ()
  in
  match roundtrip_tpp tpp with
  | Error e -> Alcotest.fail e
  | Ok got ->
    check Alcotest.bool "mode" true (got.Prog.addr_mode = Prog.Hop_addressed);
    check Alcotest.int "perhop" 8 got.Prog.perhop_len;
    check Alcotest.int "inner ethertype" Ethernet.ethertype_ipv4 got.Prog.inner_ethertype

let test_tpp_truncated_rejected () =
  let tpp = Prog.make ~program:sample_program ~mem_len:32 () in
  let w = Buf.Writer.create () in
  Prog.write w tpp;
  let full = Buf.Writer.contents w in
  let cut = Bytes.sub full 0 (Bytes.length full - 5) in
  check Alcotest.bool "truncated" true (Result.is_error (Prog.read (Buf.Reader.of_bytes cut)))

let test_tpp_bad_fields_rejected () =
  let reject ?(mangle = fun _ -> ()) name =
    let tpp = Prog.make ~program:sample_program ~mem_len:16 () in
    let w = Buf.Writer.create () in
    Prog.write w tpp;
    let b = Buf.Writer.contents w in
    mangle b;
    check Alcotest.bool name true (Result.is_error (Prog.read (Buf.Reader.of_bytes b)))
  in
  reject "bad version" ~mangle:(fun b -> Bytes.set_uint8 b 0 9);
  reject "misaligned tpp_len" ~mangle:(fun b -> Bytes.set_uint16_be b 2 5);
  reject "sp beyond memory" ~mangle:(fun b -> Bytes.set_uint16_be b 6 999);
  reject "bad opcode in program" ~mangle:(fun b -> Bytes.set_uint8 b 16 0xF0)

let test_tpp_copy_is_deep () =
  let tpp = Prog.make ~program:sample_program ~mem_len:16 () in
  let dup = Prog.copy tpp in
  Prog.mem_set tpp 0 7;
  check Alcotest.int "copy unaffected" 0 (Prog.mem_get dup 0);
  (* Mutable execution state is private, but the immutable program and
     the compiled-code cell are shared so a template's whole family
     compiles at most once. *)
  check Alcotest.bool "program array shared" true
    (tpp.Prog.program == dup.Prog.program);
  check Alcotest.bool "exec cache shared" true (tpp.Prog.cache == dup.Prog.cache);
  check Alcotest.string "same program identity" (Prog.program_key tpp)
    (Prog.program_key dup)

(* Copies share standalone memory copy-on-write: a store on any member
   of the family stays private to that member. *)
let test_tpp_copy_store_stays_private () =
  let tpp = Prog.make ~program:sample_program ~mem_len:16 () in
  Prog.mem_set tpp 0 1;
  let a = Prog.copy tpp and b = Prog.copy tpp in
  check Alcotest.bool "copies share the template's buffer" true
    (a.Prog.memory == tpp.Prog.memory && b.Prog.memory == tpp.Prog.memory);
  Prog.mem_set a 0 7;
  check Alcotest.int "template unchanged" 1 (Prog.mem_get tpp 0);
  check Alcotest.int "sibling unchanged" 1 (Prog.mem_get b 0);
  check Alcotest.int "the copy sees its store" 7 (Prog.mem_get a 0);
  check Alcotest.bool "the copy took a private buffer" true
    (a.Prog.memory != tpp.Prog.memory)

let test_tpp_template_store_stays_private () =
  let tpp = Prog.make ~program:sample_program ~mem_len:16 () in
  Prog.mem_set tpp 4 1;
  let a = Prog.copy tpp and b = Prog.copy tpp in
  Prog.mem_set tpp 4 9;
  check (Alcotest.list Alcotest.int) "outstanding copies unchanged" [ 0; 1; 0; 0 ]
    (Prog.words a);
  check (Alcotest.list Alcotest.int) "both of them" (Prog.words a) (Prog.words b);
  check Alcotest.int "the template sees its store" 9 (Prog.mem_get tpp 4);
  let c = Prog.copy tpp in
  check Alcotest.int "a later copy sees it too" 9 (Prog.mem_get c 4)

let test_tpp_hop_block () =
  let tpp =
    Prog.make ~addr_mode:Prog.Hop_addressed ~perhop_len:8 ~program:[] ~mem_len:24 ()
  in
  Prog.mem_set tpp 8 5;
  Prog.mem_set tpp 12 6;
  check (Alcotest.list Alcotest.int) "block 1" [ 5; 6 ] (Prog.hop_block tpp ~hop:1)

(* --- Frame ------------------------------------------------------------ *)

let hosts () =
  ( Mac.of_host_id 1, Mac.of_host_id 2,
    Ipv4.Addr.of_host_id 1, Ipv4.Addr.of_host_id 2 )

let test_frame_udp_roundtrip () =
  let src_mac, dst_mac, src_ip, dst_ip = hosts () in
  let frame =
    Frame.udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:10 ~dst_port:20
      ~payload:(Bytes.of_string "payload!") ()
  in
  match Frame.parse (Frame.serialize frame) with
  | Error e -> Alcotest.fail e
  | Ok got ->
    check Alcotest.bool "eth" true (Frame.eth got = Frame.eth frame);
    check Alcotest.bool "ip" true (Frame.ip got = Frame.ip frame);
    check Alcotest.bool "udp" true (Frame.udp got = Frame.udp frame);
    check Alcotest.string "payload" "payload!" (Bytes.to_string (Frame.payload got))

let test_frame_tpp_roundtrip () =
  let src_mac, dst_mac, src_ip, dst_ip = hosts () in
  let tpp = Prog.make ~program:sample_program ~mem_len:16 () in
  let frame =
    Frame.udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:10 ~dst_port:20 ~tpp
      ~payload:(Bytes.of_string "x") ()
  in
  match Frame.parse (Frame.serialize frame) with
  | Error e -> Alcotest.fail e
  | Ok got ->
    check Alcotest.bool "has tpp" true (Option.is_some got.Frame.tpp);
    check Alcotest.int "tpp ethertype" Ethernet.ethertype_tpp
      (Frame.ethertype got);
    check Alcotest.bool "inner ip survived" true (Frame.has_ip got);
    let got_tpp = Option.get got.Frame.tpp in
    check Alcotest.int "inner ethertype set" Ethernet.ethertype_ipv4
      got_tpp.Prog.inner_ethertype

let test_frame_wire_size () =
  let src_mac, dst_mac, src_ip, dst_ip = hosts () in
  let small =
    Frame.udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:1 ~dst_port:2
      ~payload:Bytes.empty ()
  in
  check Alcotest.int "ethernet minimum" 64 (Frame.wire_size small);
  let big =
    Frame.udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:1 ~dst_port:2
      ~payload:(Bytes.create 1000) ()
  in
  check Alcotest.int "headers + payload + fcs" (14 + 20 + 8 + 1000 + 4)
    (Frame.wire_size big)

let test_frame_consistency_checks () =
  let src_mac, dst_mac, _, _ = hosts () in
  let tpp = Prog.make ~program:[] ~mem_len:8 () in
  Alcotest.check_raises "tpp on ipv4 ethertype"
    (Invalid_argument "Frame.make: TPP section on non-TPP ethertype") (fun () ->
      ignore
        (Frame.make ~tpp
           ~eth:{ Ethernet.dst = dst_mac; src = src_mac;
                  ethertype = Ethernet.ethertype_ipv4 }
           ()));
  Alcotest.check_raises "udp without ip"
    (Invalid_argument "Frame.make: UDP header without IPv4 header") (fun () ->
      ignore
        (Frame.make
           ~udp:{ Udp.src_port = 1; dst_port = 2 }
           ~eth:{ Ethernet.dst = dst_mac; src = src_mac; ethertype = 0x1234 }
           ()))

let test_frame_garbage_rejected () =
  check Alcotest.bool "truncated eth" true
    (Result.is_error (Frame.parse (Bytes.create 6)));
  (* Valid eth header claiming TPP, then garbage. *)
  let w = Buf.Writer.create () in
  Ethernet.write w
    { Ethernet.dst = Mac.of_host_id 1; src = Mac.of_host_id 2;
      ethertype = Ethernet.ethertype_tpp };
  Buf.Writer.string w "garbagegarbage";
  check Alcotest.bool "bad tpp section" true
    (Result.is_error (Frame.parse (Buf.Writer.contents w)))

let test_frame_clone_independent () =
  let src_mac, dst_mac, src_ip, dst_ip = hosts () in
  let tpp = Prog.make ~program:[] ~mem_len:8 () in
  let frame =
    Frame.udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:1 ~dst_port:2 ~tpp
      ~payload:Bytes.empty ()
  in
  let copy = Frame.clone frame in
  check Alcotest.bool "fresh id" true (copy.Frame.id <> frame.Frame.id);
  (Option.get frame.Frame.tpp).Prog.sp <- 4;
  check Alcotest.int "tpp state decoupled" 0 (Option.get copy.Frame.tpp).Prog.sp

(* Memory embedded in a frame changes under the TCPU without a
   [mem_set], so copying it must not share it. *)
let test_tpp_copy_of_embedded_is_snapshot () =
  let src_mac, dst_mac, src_ip, dst_ip = hosts () in
  let frame =
    Frame.udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:1 ~dst_port:2
      ~tpp:(Prog.make ~program:sample_program ~mem_len:16 ())
      ~payload:Bytes.empty ()
  in
  let embedded = Option.get frame.Frame.tpp in
  Prog.mem_set embedded 0 5;
  let snap = Prog.copy embedded in
  check Alcotest.bool "snapshot has its own buffer" true
    (snap.Prog.memory != frame.Frame.buf);
  ignore (Tpp_asic.Tcpu.execute (Tpp_asic.State.create ~switch_id:3 ~num_ports:2 ())
            ~now:0 ~frame);
  Prog.mem_set embedded 12 6;
  check (Alcotest.list Alcotest.int) "snapshot unchanged by the hop and the store"
    [ 5; 0; 0; 0 ] (Prog.words snap);
  check Alcotest.int "snapshot kept sp" embedded.Prog.base snap.Prog.sp

let suite =
  [
    Alcotest.test_case "vaddr bijection" `Quick test_vaddr_classify_encode_bijection;
    Alcotest.test_case "vaddr known addresses" `Quick test_vaddr_known_addresses;
    Alcotest.test_case "vaddr holes" `Quick test_vaddr_holes;
    Alcotest.test_case "vaddr names" `Quick test_vaddr_names;
    Alcotest.test_case "vaddr name roundtrip" `Quick test_vaddr_name_roundtrip;
    Alcotest.test_case "vaddr writability" `Quick test_vaddr_writable;
    qtest prop_instr_roundtrip;
    qtest prop_instr_wire_roundtrip;
    Alcotest.test_case "instr bad opcode" `Quick test_instr_bad_opcode;
    Alcotest.test_case "instr operand overflow" `Quick test_instr_operand_overflow;
    Alcotest.test_case "instr size" `Quick test_instr_size;
    Alcotest.test_case "tpp layout" `Quick test_tpp_make_layout;
    Alcotest.test_case "tpp alignment checks" `Quick test_tpp_alignment_checks;
    Alcotest.test_case "tpp wire roundtrip" `Quick test_tpp_wire_roundtrip;
    Alcotest.test_case "tpp hop-mode roundtrip" `Quick test_tpp_hop_mode_roundtrip;
    Alcotest.test_case "tpp truncated rejected" `Quick test_tpp_truncated_rejected;
    Alcotest.test_case "tpp bad fields rejected" `Quick test_tpp_bad_fields_rejected;
    Alcotest.test_case "tpp deep copy" `Quick test_tpp_copy_is_deep;
    Alcotest.test_case "tpp copy stores stay private" `Quick
      test_tpp_copy_store_stays_private;
    Alcotest.test_case "tpp template stores stay private" `Quick
      test_tpp_template_store_stays_private;
    Alcotest.test_case "tpp copy of a framed TPP is a snapshot" `Quick
      test_tpp_copy_of_embedded_is_snapshot;
    Alcotest.test_case "tpp hop blocks" `Quick test_tpp_hop_block;
    Alcotest.test_case "frame udp roundtrip" `Quick test_frame_udp_roundtrip;
    Alcotest.test_case "frame tpp roundtrip" `Quick test_frame_tpp_roundtrip;
    Alcotest.test_case "frame wire size" `Quick test_frame_wire_size;
    Alcotest.test_case "frame consistency" `Quick test_frame_consistency_checks;
    Alcotest.test_case "frame garbage rejected" `Quick test_frame_garbage_rejected;
    Alcotest.test_case "frame clone" `Quick test_frame_clone_independent;
  ]
