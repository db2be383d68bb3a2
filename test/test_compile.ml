(* The compiled TCPU (lib/asic/compile.ml) must be architecturally
   indistinguishable from the oracle library's interpreter: same register
   writes, same faults at the same instruction, same CEXEC/CSTORE and
   stack semantics, same counters. A QCheck differential test holds the
   two equal on random programs x random states — including
   fault-heavy programs (out-of-bounds and misaligned packet offsets,
   unmapped switch addresses, odd CSTORE/CEXEC pools, hand-built
   unencodable operands that force the Marshal cache key) — and on
   fault-free binop programs, where a miscompiled operator cannot hide
   behind an earlier fault. Unit tests
   pin the program-cache behaviour: copies share one compilation,
   per-switch hit/miss counters, clear_cache, and domain-safe lookup. *)

open Tpp
module State = Tpp_asic.State
module Tcpu = Tpp_asic.Tcpu
module Compile = Tpp_asic.Compile
module Interp = Tpp_oracle.Interp

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- scenarios: a program plus everything execution depends on ---------- *)

type scenario = {
  program : Instr.t list;
  hop_mode : bool;
  perhop : int;       (* bytes per hop block (hop mode) *)
  mem_words : int;    (* user packet memory, in words *)
  mem_init : int list;
  pool : int list;    (* constant-pool words in front of memory *)
  sp_off : int;       (* initial sp, bytes past base (possibly odd) *)
  hop0 : int;         (* initial hop counter *)
  out_port : int;     (* includes out-of-range ports *)
  sram_init : int list;
  qdepth : int;
  now : int;
}

let show_operand = Format.asprintf "%a" Instr.pp_operand

let show_scenario sc =
  Format.asprintf
    "@[<v>program:@,%a@,\
     mode=%s perhop=%d mem_words=%d pool=[%s] sp_off=%d hop0=%d@,\
     out_port=%d sram=[%s] mem=[%s] qdepth=%d now=%d@]"
    (Format.pp_print_list Instr.pp)
    sc.program
    (if sc.hop_mode then "hop" else "stack")
    sc.perhop sc.mem_words
    (String.concat ";" (List.map string_of_int sc.pool))
    sc.sp_off sc.hop0 sc.out_port
    (String.concat ";" (List.map string_of_int sc.sram_init))
    (String.concat ";" (List.map string_of_int sc.mem_init))
    sc.qdepth sc.now

(* Operands biased toward the interesting edges: mapped/unmapped switch
   addresses, in-range / boundary / out-of-bounds / misaligned packet
   offsets, and the occasional 13-bit value no encoder accepts (those
   exercise the structural cache-key fallback).

   The compile-cache observability registers (Switch:TppCompileHits at
   0x009, Misses at 0x00a) are the one deliberate backend difference:
   the interpreter has no cache to count, so a program reading them sees
   different values by construction. They're excluded here, like they
   are from the determinism fingerprints; a deterministic test below
   covers them under the compiled backend. *)
let dodge_compile_counters a = if a = 0x009 || a = 0x00a then 0x008 else a

let gen_operand ~mem_len =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map
            (fun a -> Instr.Sw (dodge_compile_counters a))
            (oneof
               [
                 int_bound 0xFFF;
                 oneofl
                   [
                     0x000; 0x005; 0x008; 0x050; 0x100; 0x105;
                     0x140; 0x145; 0x17F; 0x180; 0x1F0; 0x200; 0x213; 0x800;
                     0x806; 0x87F; 0x880; 0x890; 0xFFF;
                   ];
               ]));
        ( 4,
          map
            (fun o -> Instr.Pkt o)
            (oneof
               [
                 int_bound (mem_len + 8);
                 oneofl [ 0; 1; 2; 3; 4; 7; max 0 (mem_len - 4); mem_len ];
               ]));
        (2, map (fun v -> Instr.Imm v) (int_bound 0xFFF));
        (1, map (fun h -> Instr.Hop h) (int_bound 4));
        (1, return (Instr.Sw 0x1000) (* unencodable: Marshal key path *));
      ])

let gen_binop =
  QCheck.Gen.oneofl [ Instr.Add; Instr.Sub; Instr.And; Instr.Or; Instr.Min; Instr.Max ]

let gen_instr ~mem_len =
  let op = gen_operand ~mem_len in
  QCheck.Gen.(
    frequency
      [
        (1, return Instr.Nop);
        (1, return Instr.Halt);
        (2, map (fun a -> Instr.Push a) op);
        (2, map (fun a -> Instr.Pop a) op);
        (3, map2 (fun a b -> Instr.Load (a, b)) op op);
        (3, map2 (fun a b -> Instr.Store (a, b)) op op);
        (2, map2 (fun a b -> Instr.Mov (a, b)) op op);
        (4, map3 (fun o a b -> Instr.Binop (o, a, b)) gen_binop op op);
        (2, map2 (fun a b -> Instr.Cstore (a, b)) op op);
        (2, map2 (fun a b -> Instr.Cexec (a, b)) op op);
      ])

let gen_scenario =
  QCheck.Gen.(
    int_range 0 8 >>= fun mem_words ->
    int_range 0 2 >>= fun pool_words ->
    let mem_len = 4 * mem_words in
    list_size (int_range 0 12) (gen_instr ~mem_len) >>= fun program ->
    bool >>= fun hop_mode ->
    oneofl [ 4; 8 ] >>= fun perhop ->
    list_repeat mem_words (int_bound 0xFFFF) >>= fun mem_init ->
    list_repeat pool_words (oneofl [ 0; 1; 7; 0xFFF; 0xDEAD; 0xFFFF_FFFF ])
    >>= fun pool ->
    frequency
      [ (4, map (fun v -> v land lnot 3) (int_bound mem_len)); (1, int_bound mem_len) ]
    >>= fun sp_off ->
    int_range 0 2 >>= fun hop0 ->
    oneofl [ -1; 0; 2; 3; 5 ] >>= fun out_port ->
    list_repeat 4 (int_bound 0xFFFF) >>= fun sram_init ->
    int_bound 10_000 >>= fun qdepth ->
    int_bound 1_000_000 >>= fun now ->
    return
      {
        program; hop_mode; perhop; mem_words; mem_init; pool; sp_off; hop0;
        out_port; sram_init; qdepth; now;
      })

let scenario_arbitrary = QCheck.make ~print:show_scenario gen_scenario

(* --- running one scenario under one backend ----------------------------- *)

let build_tpp sc =
  let pool = Bytes.create (4 * List.length sc.pool) in
  List.iteri (fun i v -> Buf.set_u32i pool (4 * i) v) sc.pool;
  let mem_len = 4 * sc.mem_words in
  let tpp =
    if sc.hop_mode then
      Prog.make ~addr_mode:Prog.Hop_addressed ~perhop_len:sc.perhop ~pool
        ~program:sc.program ~mem_len ()
    else Prog.make ~pool ~program:sc.program ~mem_len ()
  in
  List.iteri (fun i v -> Prog.mem_set tpp (tpp.Prog.base + (4 * i)) v) sc.mem_init;
  tpp.Prog.sp <- tpp.Prog.base + sc.sp_off;
  tpp.Prog.hop <- sc.hop0;
  tpp

let build_state sc ~switch_id =
  let st = State.create ~switch_id ~num_ports:4 () in
  State.force_queue_depth st ~port:2 ~bytes:sc.qdepth;
  (State.port st 2).State.Port.capacity_bps <- 10_000_000;
  List.iteri (fun i v -> ignore (State.sram_set st i v)) sc.sram_init;
  st

let build_frame sc =
  let frame =
    Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
      ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2)
      ~src_port:1 ~dst_port:2 ~tpp:(build_tpp sc) ~payload:Bytes.empty ()
  in
  frame.Frame.meta.Meta.out_port <- sc.out_port;
  frame.Frame.meta.Meta.in_port <- 1;
  frame.Frame.meta.Meta.matched_entry <- 55;
  frame

let res_digest = function
  | None -> None
  | Some r ->
    Some
      ( r.Tcpu.executed,
        r.Tcpu.cycles,
        r.Tcpu.stopped_by_cexec,
        Option.map Tcpu.fault_message r.Tcpu.fault )

let state_digest st =
  ( List.init 16 (fun i -> State.sram_get st i),
    (st.State.tpp_execs, st.State.tpp_faults, st.State.tpp_cycles) )

(* Two hops through two switches: the second hop also covers hop-block
   addressing past hop 0 and the faulted-TPP-is-inert path. *)
let run_scenario execute sc =
  let frame = build_frame sc in
  let st1 = build_state sc ~switch_id:3 in
  let st2 = build_state sc ~switch_id:4 in
  let r1 = execute st1 ~now:sc.now ~frame in
  let r2 = execute st2 ~now:(sc.now + 777) ~frame in
  let tpp = Option.get frame.Frame.tpp in
  ( res_digest r1,
    res_digest r2,
    Prog.words tpp,
    tpp.Prog.sp,
    tpp.Prog.hop,
    tpp.Prog.faulted,
    state_digest st1,
    state_digest st2 )

let show_digest (r1, r2, words, sp, hop, faulted, (sram1, c1), (sram2, c2)) =
  let show_res = function
    | None -> "none"
    | Some (e, c, s, f) ->
      Printf.sprintf "exec=%d cyc=%d cexec=%b fault=%s" e c s
        (Option.value ~default:"-" f)
  in
  let ints l = String.concat ";" (List.map string_of_int l) in
  let counters (e, f, c) = Printf.sprintf "execs=%d faults=%d cycles=%d" e f c in
  Printf.sprintf
    "hop1[%s] hop2[%s] words=[%s] sp=%d hop=%d faulted=%b\n\
    \  sw1: sram=[%s] %s\n\
    \  sw2: sram=[%s] %s"
    (show_res r1) (show_res r2) (ints words) sp hop faulted (ints sram1)
    (counters c1) (ints sram2) (counters c2)

let prop_backends_agree =
  QCheck.Test.make ~name:"compiled backend == interpreter (random programs)"
    ~count:500 scenario_arbitrary (fun sc ->
      let reference = run_scenario Interp.execute sc in
      let compiled = run_scenario Tcpu.execute sc in
      if reference = compiled then true
      else
        QCheck.Test.fail_reportf "backends diverge\ninterpreter: %s\ncompiled:    %s"
          (show_digest reference) (show_digest compiled))

(* Fault-free straight-line arithmetic: every instruction a binop whose
   destination is an in-bounds aligned packet word and whose source is
   one too or an immediate, over full 32-bit memory words. No draw can
   fault before its results land in packet memory, so lowering one
   operator as another shows in [Prog.words] of almost every draw. *)
let gen_binop_scenario =
  QCheck.Gen.(
    int_range 1 8 >>= fun mem_words ->
    let word = map (fun i -> Instr.Pkt (4 * i)) (int_bound (mem_words - 1)) in
    let src = frequency [ (3, word); (1, map (fun v -> Instr.Imm v) (int_bound 0xFFF)) ] in
    list_size (int_range 1 12) (map3 (fun o d s -> Instr.Binop (o, d, s)) gen_binop word src)
    >>= fun program ->
    list_repeat mem_words (int_bound 0xFFFF_FFFF) >>= fun mem_init ->
    return
      {
        program; hop_mode = false; perhop = 4; mem_words; mem_init; pool = []; sp_off = 0;
        hop0 = 0; out_port = 2; sram_init = [ 0; 0; 0; 0 ]; qdepth = 0; now = 0;
      })

let prop_binops_agree =
  QCheck.Test.make ~name:"compiled binops == interpreter (fault-free programs)" ~count:200
    (QCheck.make ~print:show_scenario gen_binop_scenario)
    (fun sc ->
      let reference = run_scenario Interp.execute sc in
      let compiled = run_scenario Tcpu.execute sc in
      if reference = compiled then true
      else
        QCheck.Test.fail_reportf "backends diverge\ninterpreter: %s\ncompiled:    %s"
          (show_digest reference) (show_digest compiled))

(* The generator finds these eventually; pin them so every run covers
   the canonical fault shapes and the CEXEC/CSTORE stop semantics. *)
let nasty_programs =
  [
    ("oob load", [ Instr.Load (Instr.Sw 0x100, Instr.Pkt 32) ]);
    ("oob store src", [ Instr.Store (Instr.Sw 0x880, Instr.Pkt 4000) ]);
    ("misaligned dst", [ Instr.Mov (Instr.Pkt 2, Instr.Imm 1) ]);
    ("negative-ish offset", [ Instr.Binop (Instr.Add, Instr.Pkt 0xFFC, Instr.Imm 1) ]);
    ("odd cstore pool", [ Instr.Cstore (Instr.Sw 0x880, Instr.Pkt 2) ]);
    ("odd cexec pool", [ Instr.Cexec (Instr.Sw 0x000, Instr.Pkt 6) ]);
    ("imm cstore pool", [ Instr.Cstore (Instr.Sw 0x880, Instr.Imm 0) ]);
    ("sw cexec pool", [ Instr.Cexec (Instr.Sw 0x000, Instr.Sw 0x880) ]);
    ("write stat", [ Instr.Store (Instr.Sw 0x100, Instr.Imm 1) ]);
    ("write meta", [ Instr.Store (Instr.Sw 0x800, Instr.Imm 1) ]);
    ("write imm", [ Instr.Mov (Instr.Imm 1, Instr.Imm 2) ]);
    ("unmapped addr", [ Instr.Load (Instr.Sw 0x050, Instr.Pkt 0) ]);
    ("unencodable addr", [ Instr.Load (Instr.Sw 0x1000, Instr.Pkt 0) ]);
    ("pop empty", [ Instr.Pop (Instr.Sw 0x880) ]);
    ( "push until overflow",
      [
        Instr.Push (Instr.Imm 1); Instr.Push (Instr.Imm 2); Instr.Push (Instr.Imm 3);
      ] );
    ( "cexec stops cleanly",
      [ Instr.Cexec (Instr.Sw 0x000, Instr.Pkt 0); Instr.Mov (Instr.Pkt 0, Instr.Imm 9) ]
    );
    ( "fault mid-program",
      [
        Instr.Mov (Instr.Pkt 0, Instr.Imm 1);
        Instr.Store (Instr.Sw 0x100, Instr.Pkt 0);
        Instr.Mov (Instr.Pkt 4, Instr.Imm 2);
      ] );
  ]

let test_nasty_programs_agree () =
  List.iter
    (fun (name, program) ->
      let sc =
        {
          program; hop_mode = false; perhop = 4; mem_words = 2;
          mem_init = [ 0xFF; 5 ]; pool = []; sp_off = 0; hop0 = 0; out_port = 2;
          sram_init = [ 10; 20; 30; 40 ]; qdepth = 4242; now = 1000;
        }
      in
      let reference = run_scenario Interp.execute sc in
      let compiled = run_scenario Tcpu.execute sc in
      if reference <> compiled then
        Alcotest.failf "%s diverges\ninterpreter: %s\ncompiled:    %s" name
          (show_digest reference) (show_digest compiled))
    nasty_programs

(* --- the program cache --------------------------------------------------- *)

let make_state () = State.create ~switch_id:3 ~num_ports:4 ()

let frame_with tpp =
  let frame =
    Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
      ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2)
      ~src_port:1 ~dst_port:2 ~tpp ~payload:Bytes.empty ()
  in
  frame.Frame.meta.Meta.out_port <- 2;
  frame

let assemble src =
  match Asm.to_tpp ~mem_len:16 src with
  | Ok tpp -> tpp
  | Error e -> Alcotest.failf "assembly: %s" e

let test_copies_share_one_compilation () =
  Compile.clear_cache ();
  let template = assemble "PUSH [Switch:SwitchID]\nPUSH [Switch:NumPorts]\n" in
  let st = make_state () in
  List.iter
    (fun _ -> ignore (Tcpu.execute st ~now:0 ~frame:(frame_with (Prog.copy template))))
    [ 1; 2; 3 ];
  let stats = Compile.cache_stats () in
  check Alcotest.int "one program compiled" 1 stats.Compile.programs;
  check Alcotest.int "one global miss" 1 stats.Compile.misses;
  check Alcotest.int "per-switch miss" 1 st.State.tpp_compile_misses;
  check Alcotest.int "per-switch hits" 2 st.State.tpp_compile_hits;
  (* The template never executed, yet its shared cell is linked. *)
  check Alcotest.bool "template linked via shared cell" true
    (match Prog.compiled_handle template with
    | Compile.Compiled _ -> true
    | _ -> false)

let test_equal_programs_compile_once () =
  Compile.clear_cache ();
  let a = assemble "ADD [Sram:0], 1\n" in
  let b = assemble "ADD [Sram:0], 1\n" in
  let c = assemble "ADD [Sram:1], 1\n" in
  let ca = Compile.lookup a in
  let cb = Compile.lookup b in
  let cc = Compile.lookup c in
  check Alcotest.bool "identical bytes share compiled code" true (ca == cb);
  check Alcotest.bool "different programs differ" true (ca != cc);
  let stats = Compile.cache_stats () in
  check Alcotest.int "two distinct programs" 2 stats.Compile.programs;
  check Alcotest.int "hits" 1 stats.Compile.hits;
  check Alcotest.int "misses" 2 stats.Compile.misses

let test_compile_counters_are_registers () =
  Compile.clear_cache ();
  let template =
    assemble
      "LOAD [Switch:TppCompileHits], [Packet:0]\n\
       LOAD [Switch:TppCompileMisses], [Packet:4]\n"
  in
  let st = make_state () in
  ignore (Tcpu.execute st ~now:0 ~frame:(frame_with (Prog.copy template)));
  let second = frame_with (Prog.copy template) in
  ignore (Tcpu.execute st ~now:0 ~frame:second);
  check Alcotest.int "misses counted" 1 st.State.tpp_compile_misses;
  check Alcotest.int "hits counted" 1 st.State.tpp_compile_hits;
  let tpp = Option.get second.Frame.tpp in
  check Alcotest.int "program read its own hit" 1 (Prog.mem_get tpp 0);
  check Alcotest.int "program read the miss" 1 (Prog.mem_get tpp 4);
  check Alcotest.int "register mirrors field"
    st.State.tpp_compile_hits
    (State.switch_stat st ~now:0 Vaddr.Switch_stat.Tpp_compile_hits)

let test_clear_cache_keeps_linked_handles () =
  Compile.clear_cache ();
  let template = assemble "ADD [Sram:2], 3\n" in
  let st = make_state () in
  ignore (Tcpu.execute st ~now:0 ~frame:(frame_with (Prog.copy template)));
  Compile.clear_cache ();
  let stats = Compile.cache_stats () in
  check Alcotest.int "empty" 0 stats.Compile.programs;
  check Alcotest.int "hits zeroed" 0 stats.Compile.hits;
  check Alcotest.int "misses zeroed" 0 stats.Compile.misses;
  (* The family's handle survives: execution still works and never
     touches the global cache again. *)
  ignore (Tcpu.execute st ~now:0 ~frame:(frame_with (Prog.copy template)));
  check Alcotest.int "still executes" 6
    (State.sram_get st 2);
  check Alcotest.int "cache untouched" 0 (Compile.cache_stats ()).Compile.programs

let test_lookup_is_domain_safe () =
  Compile.clear_cache ();
  let src = "MAX [Sram:3], [Link:QueueSize]\nADD [Sram:3], 1\n" in
  let lookup_in_domain () =
    Domain.spawn (fun () ->
        let tpp = Result.get_ok (Asm.to_tpp ~mem_len:16 src) in
        Compile.lookup tpp)
  in
  let d1 = lookup_in_domain () and d2 = lookup_in_domain () in
  let c1 = Domain.join d1 and c2 = Domain.join d2 in
  check Alcotest.bool "both domains got the same compilation" true (c1 == c2);
  check Alcotest.int "one entry" 1 (Compile.cache_stats ()).Compile.programs

let test_compile_length () =
  check Alcotest.int "uop per instruction" 2
    (Compile.length (Compile.compile [| Instr.Nop; Instr.Halt |]))

let suite =
  [
    qtest prop_backends_agree;
    Alcotest.test_case "nasty programs agree" `Quick test_nasty_programs_agree;
    Alcotest.test_case "copies share one compilation" `Quick
      test_copies_share_one_compilation;
    Alcotest.test_case "equal programs compile once" `Quick
      test_equal_programs_compile_once;
    Alcotest.test_case "compile counters are registers" `Quick
      test_compile_counters_are_registers;
    Alcotest.test_case "clear_cache keeps linked handles" `Quick
      test_clear_cache_keeps_linked_handles;
    Alcotest.test_case "lookup is domain-safe" `Quick test_lookup_is_domain_safe;
    Alcotest.test_case "compiled length" `Quick test_compile_length;
    qtest prop_binops_agree;
  ]
