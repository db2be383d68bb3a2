(* ASIC state tests: registers, utilisation windows, the SRAM
   allocator, and MMU address translation / access control. *)

open Tpp
module State = Tpp_asic.State
module Alloc = Tpp_asic.Alloc
module Mmu = Tpp_asic.Mmu

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let mk ?(num_ports = 4) () = State.create ~switch_id:7 ~num_ports ()

(* --- State ------------------------------------------------------------- *)

(* A 16-port switch with its port records materialised holds no
   queue slots before a port's first enqueue and no private filler
   frame: every subqueue ring shares one. *)
let test_state_footprint () =
  let st = mk ~num_ports:16 () in
  ignore (State.port st 15);
  check Alcotest.bool "ports materialised" true (State.ports_materialized st);
  let words = Obj.reachable_words (Obj.repr st) in
  if words > 700 then Alcotest.failf "16-port state holds %d words (> 700)" words

let test_state_stats () =
  let st = mk () in
  st.State.packets_seen <- 5;
  st.State.bytes_seen <- 5000;
  check Alcotest.int "switch id" 7
    (State.switch_stat st ~now:0 Vaddr.Switch_stat.Switch_id);
  check Alcotest.int "packets" 5
    (State.switch_stat st ~now:0 Vaddr.Switch_stat.Packets_seen);
  check Alcotest.int "num ports" 4
    (State.switch_stat st ~now:0 Vaddr.Switch_stat.Num_ports);
  check Alcotest.int "clock low bits" 0x1234
    (State.switch_stat st ~now:0x1234 Vaddr.Switch_stat.Clock_ns);
  State.force_queue_depth st ~port:2 ~bytes:777;
  check Alcotest.int "port stat" 777 (State.port_stat st ~port:2 Vaddr.Port_stat.Queue_bytes)

let test_state_port_bounds () =
  let st = mk () in
  Alcotest.check_raises "port range" (Invalid_argument "State.port: out of range")
    (fun () -> ignore (State.port st 4))

let test_state_counters_mask_to_32_bits () =
  let st = mk () in
  st.State.bytes_seen <- 0x1_2345_6789;
  check Alcotest.int "wraps at 32 bits" 0x2345_6789
    (State.switch_stat st ~now:0 Vaddr.Switch_stat.Bytes_seen)

let test_utilization_window () =
  let st = mk () in
  let p = State.port st 1 in
  p.State.Port.capacity_bps <- 10_000_000;
  (* 5000 bytes offered over a 10 ms window on a 10 Mb/s link = 40% . *)
  p.State.Port.window_rx_bytes <- 5000;
  State.update_utilization st ~window_ns:10_000_000;
  check Alcotest.int "ppm" 400_000 (State.port_stat st ~port:1 Vaddr.Port_stat.Rx_util);
  check Alcotest.int "window reset" 0 p.State.Port.window_rx_bytes;
  (* An idle second window decays the reading to zero. *)
  State.update_utilization st ~window_ns:10_000_000;
  check Alcotest.int "idle window" 0 (State.port_stat st ~port:1 Vaddr.Port_stat.Rx_util)

let test_sram_accessors () =
  let st = mk () in
  check Alcotest.bool "set" true (State.sram_set st 0 0xFFFF_FFFF);
  check Alcotest.int "get" 0xFFFF_FFFF (State.sram_get st 0);
  check Alcotest.bool "set masks" true (State.sram_set st 1 0x1_0000_0002);
  check Alcotest.int "masked" 2 (State.sram_get st 1);
  check Alcotest.bool "oob set" false (State.sram_set st Vaddr.sram_words 1);
  check Alcotest.int "oob get" (-1) (State.sram_get st (-1))

let test_link_sram_index () =
  let st = mk ~num_ports:4 () in
  check Alcotest.int "slot 0 port 0" 0
    (State.link_sram_index st ~slot:0 ~port:0);
  check Alcotest.int "slot 2 port 3" 11
    (State.link_sram_index st ~slot:2 ~port:3);
  check Alcotest.int "port oob" (-1)
    (State.link_sram_index st ~slot:0 ~port:4);
  check Alcotest.int "slot oob" (-1)
    (State.link_sram_index st ~slot:Vaddr.link_sram_slots ~port:0)

(* --- Alloc -------------------------------------------------------------- *)

let test_alloc_words () =
  let st = mk () in
  let a = Alloc.for_state st in
  let w1 = Result.get_ok (Alloc.alloc_words a ~task:"x" ~count:10) in
  let w2 = Result.get_ok (Alloc.alloc_words a ~task:"y" ~count:5) in
  check Alcotest.bool "disjoint" true (w2 >= w1 + 10 || w1 >= w2 + 5);
  check Alcotest.int "free accounting" (Vaddr.sram_words - 15) (Alloc.free_words a)

let test_alloc_exhaustion () =
  let st = mk () in
  let a = Alloc.for_state st in
  check Alcotest.bool "too big" true
    (Result.is_error (Alloc.alloc_words a ~task:"x" ~count:(Vaddr.sram_words + 1)));
  let _ = Alloc.alloc_words a ~task:"x" ~count:Vaddr.sram_words in
  check Alcotest.bool "full" true
    (Result.is_error (Alloc.alloc_words a ~task:"y" ~count:1))

let test_alloc_link_slots () =
  let st = mk ~num_ports:4 () in
  let a = Alloc.for_state st in
  let s0 = Result.get_ok (Alloc.alloc_link_slot a ~task:"rcp") in
  let s1 = Result.get_ok (Alloc.alloc_link_slot a ~task:"ndb") in
  check Alcotest.int "first slot" 0 s0;
  check Alcotest.int "second slot" 1 s1;
  (* Their backing words are what link_sram_index reports. *)
  check Alcotest.int "backing" 4
    (State.link_sram_index st ~slot:1 ~port:0)

let test_alloc_mixed_no_overlap () =
  let st = mk ~num_ports:4 () in
  let a = Alloc.for_state st in
  let _ = Alloc.alloc_words a ~task:"blob" ~count:3 in
  let slot = Result.get_ok (Alloc.alloc_link_slot a ~task:"rcp") in
  (* Slot 0 backs words 0-3 which overlap the 3-word blob, so the
     allocator must have skipped to slot 1. *)
  check Alcotest.int "skipped occupied slot" 1 slot

let prop_alloc_regions_disjoint =
  QCheck.Test.make ~name:"allocator never hands out overlapping words" ~count:100
    QCheck.(make Gen.(list_size (1 -- 20) (int_range 1 200)))
    (fun counts ->
      let st = State.create ~switch_id:1 ~num_ports:8 () in
      let a = Alloc.for_state st in
      List.iter
        (fun c -> ignore (Alloc.alloc_words a ~task:"t" ~count:c))
        counts;
      let regions = Alloc.regions a in
      let rec disjoint = function
        | (_, f1, c1) :: ((_, f2, _) :: _ as rest) ->
          f1 + c1 <= f2 && disjoint rest
        | _ -> true
      in
      disjoint regions)

(* --- Mmu ---------------------------------------------------------------- *)

let meta_with ~out_port =
  let m = Meta.create () in
  m.Meta.out_port <- out_port;
  m.Meta.in_port <- 1;
  m.Meta.matched_entry <- 42;
  m

let test_mmu_reads () =
  let st = mk () in
  let meta = meta_with ~out_port:2 in
  State.force_queue_depth st ~port:2 ~bytes:1234;
  (State.port st 3).State.Port.tx_bytes <- 999;
  let read a = Result.get_ok (Mmu.read st ~meta ~now:5 a) in
  check Alcotest.int "switch id" 7 (read 0x000);
  check Alcotest.int "contextual queue" 1234 (read 0x100);
  check Alcotest.int "absolute port stat" 999 (read (0x200 + (16 * 3) + 3));
  check Alcotest.int "meta in port" 1 (read 0x800);
  check Alcotest.int "meta entry" 42 (read 0x802);
  ignore (State.sram_set st 5 77);
  check Alcotest.int "sram" 77 (read (0x880 + 5))

let test_mmu_contextual_sram () =
  let st = mk ~num_ports:4 () in
  let meta = meta_with ~out_port:3 in
  (* LinkSram slot 1 of port 3 backs raw SRAM word 1*4+3 = 7. *)
  check Alcotest.bool "write" true (Result.is_ok (Mmu.write st ~meta (0x180 + 1) 555));
  check Alcotest.int "lands in word 7" 555 (State.sram_get st 7);
  check Alcotest.int "reads back" 555
    (Result.get_ok (Mmu.read st ~meta ~now:0 (0x180 + 1)))

let test_mmu_write_protection () =
  let st = mk () in
  let meta = meta_with ~out_port:0 in
  let expect_read_only a =
    match Mmu.write st ~meta a 1 with
    | Error (Mmu.Read_only _) -> ()
    | _ -> Alcotest.failf "address 0x%03x should be read-only" a
  in
  expect_read_only 0x000 (* switch stat *);
  expect_read_only 0x100 (* link stat *);
  expect_read_only 0x210 (* port stat *);
  expect_read_only 0x800 (* metadata *)

let test_mmu_bad_addresses () =
  let st = mk () in
  let meta = meta_with ~out_port:0 in
  (match Mmu.read st ~meta ~now:0 0x050 with
  | Error (Mmu.Bad_address _) -> ()
  | _ -> Alcotest.fail "hole should fault");
  match Mmu.read st ~meta ~now:0 (0x200 + (16 * 90)) with
  | Error (Mmu.Port_out_of_range 90) -> ()
  | _ -> Alcotest.fail "port 90 of a 4-port switch should fault"

let test_mmu_read_absolute () =
  let st = mk () in
  check Alcotest.int "switch stat" 7 (Result.get_ok (Mmu.read_absolute st ~now:0 0x000));
  check Alcotest.bool "contextual faults" true
    (Result.is_error (Mmu.read_absolute st ~now:0 0x100));
  check Alcotest.bool "metadata faults" true
    (Result.is_error (Mmu.read_absolute st ~now:0 0x800))

let suite =
  [
    Alcotest.test_case "state stats" `Quick test_state_stats;
    Alcotest.test_case "state port bounds" `Quick test_state_port_bounds;
    Alcotest.test_case "16-port state holds <= 700 words" `Quick test_state_footprint;
    Alcotest.test_case "32-bit counter masking" `Quick test_state_counters_mask_to_32_bits;
    Alcotest.test_case "utilization window" `Quick test_utilization_window;
    Alcotest.test_case "sram accessors" `Quick test_sram_accessors;
    Alcotest.test_case "link sram indexing" `Quick test_link_sram_index;
    Alcotest.test_case "alloc words" `Quick test_alloc_words;
    Alcotest.test_case "alloc exhaustion" `Quick test_alloc_exhaustion;
    Alcotest.test_case "alloc link slots" `Quick test_alloc_link_slots;
    Alcotest.test_case "alloc mixed no overlap" `Quick test_alloc_mixed_no_overlap;
    qtest prop_alloc_regions_disjoint;
    Alcotest.test_case "mmu reads" `Quick test_mmu_reads;
    Alcotest.test_case "mmu contextual sram" `Quick test_mmu_contextual_sram;
    Alcotest.test_case "mmu write protection" `Quick test_mmu_write_protection;
    Alcotest.test_case "mmu bad addresses" `Quick test_mmu_bad_addresses;
    Alcotest.test_case "mmu read absolute" `Quick test_mmu_read_absolute;
  ]
