(* Switch pipeline tests: lookup precedence, metadata, queue accounting
   and tail drop, flooding, TPP stripping, and the TCPU placement. *)

open Tpp
module State = Tpp_asic.State

let check = Alcotest.check

let host_frame ?tpp ?(payload = 100) ~to_ip () =
  Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
    ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:to_ip ~src_port:5 ~dst_port:6 ?tpp
    ~payload:(Bytes.create payload) ()

let dst_ip = Ipv4.Addr.of_host_id 2

let host_frame_in pool ?tpp ~to_ip () =
  Frame.Pool.udp_frame pool ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
    ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:to_ip ~src_port:5 ~dst_port:6 ?tpp
    ~payload:(Bytes.create 100) ()

let make_switch () =
  let sw = Switch.create ~id:1 ~num_ports:4 () in
  Switch.install_route sw (Ipv4.Prefix.host dst_ip) ~port:2 ~entry_id:11 ~version:1;
  Switch.set_version sw 1;
  sw

let queued_ports = function
  | Switch.Queued ports -> ports
  | Switch.Dropped reason -> Alcotest.failf "unexpectedly dropped: %s" reason

let test_l3_forwarding_and_meta () =
  let sw = make_switch () in
  let frame = host_frame ~to_ip:dst_ip () in
  let ports = queued_ports (Switch.handle_ingress sw ~now:99 ~in_port:0 frame) in
  check (Alcotest.list Alcotest.int) "queued on route port" [ 2 ] ports;
  let meta = frame.Frame.meta in
  check Alcotest.int "in port" 0 meta.Meta.in_port;
  check Alcotest.int "out port" 2 meta.Meta.out_port;
  check Alcotest.int "entry" 11 meta.Meta.matched_entry;
  check Alcotest.int "version" 1 meta.Meta.matched_version;
  check Alcotest.int "table L3" 2 meta.Meta.table_hit;
  check Alcotest.int "arrival stamped" 99 meta.Meta.arrival_ns;
  check Alcotest.int "queue holds it" 1 (Switch.queue_packets sw ~port:2)

let test_tcam_overrides_l3 () =
  let sw = make_switch () in
  Switch.install_tcam sw
    { Tables.Tcam.any with Tables.Tcam.priority = 5;
      dst_ip = Some (dst_ip, 0xFFFFFFFF) }
    { Tables.action = Tables.Forward 3; entry_id = 77; version = 2 };
  let frame = host_frame ~to_ip:dst_ip () in
  let ports = queued_ports (Switch.handle_ingress sw ~now:0 ~in_port:0 frame) in
  check (Alcotest.list Alcotest.int) "tcam port" [ 3 ] ports;
  check Alcotest.int "tcam entry" 77 frame.Frame.meta.Meta.matched_entry;
  check Alcotest.int "table TCAM" 3 frame.Frame.meta.Meta.table_hit

let test_l2_fallback () =
  let sw = Switch.create ~id:1 ~num_ports:4 () in
  Switch.install_l2 sw (Mac.of_host_id 2) ~port:1 ~entry_id:5 ~version:1;
  let frame = host_frame ~to_ip:dst_ip () in
  let ports = queued_ports (Switch.handle_ingress sw ~now:0 ~in_port:0 frame) in
  check (Alcotest.list Alcotest.int) "l2 port" [ 1 ] ports;
  check Alcotest.int "table L2" 1 frame.Frame.meta.Meta.table_hit

let test_flood_on_miss () =
  let sw = Switch.create ~id:1 ~num_ports:4 () in
  let frame = host_frame ~to_ip:dst_ip () in
  let ports = queued_ports (Switch.handle_ingress sw ~now:0 ~in_port:1 frame) in
  check (Alcotest.list Alcotest.int) "all but ingress" [ 0; 2; 3 ] ports;
  check Alcotest.int "copies queued" 1 (Switch.queue_packets sw ~port:0);
  check Alcotest.int "copies queued" 1 (Switch.queue_packets sw ~port:3);
  (* A flood whose only copy meets a full queue is one drop, not a
     second one for finding no open port. *)
  let sw = Switch.create ~id:1 ~num_ports:2 () in
  Switch.set_queue_limit sw ~port:1 ~bytes:0;
  (match Switch.handle_ingress sw ~now:0 ~in_port:0 (host_frame ~to_ip:dst_ip ()) with
  | Switch.Dropped reason -> check Alcotest.string "reason" "flood found no open port" reason
  | Switch.Queued _ -> Alcotest.fail "flooded into a full queue");
  check Alcotest.int "one drop" 1 (Switch.state sw).State.drops

(* Every flood copy is cloned from the frame as it arrived, so each runs
   this switch's hop once: one TCPU run, on its own port. A port that
   drops its copy, the first included, leaves the others untouched, and
   a pooled original dropped there goes back to its pool. *)
let test_flood_copies_run_one_hop () =
  let tpp () = Result.get_ok (Programs.build ~max_hops:4 Programs.record_route) in
  let hops sw ports =
    List.map
      (fun port ->
        let f = Option.get (Switch.dequeue sw ~port) in
        let t = Option.get f.Frame.tpp in
        (port, t.Prog.hop, Prog.stack_values t))
      ports
  in
  let show = Alcotest.(list (triple int int (list int))) in
  let sw = Switch.create ~id:9 ~num_ports:4 () in
  let frame = host_frame ~tpp:(tpp ()) ~to_ip:dst_ip () in
  let ports = queued_ports (Switch.handle_ingress sw ~now:0 ~in_port:0 frame) in
  check (Alcotest.list Alcotest.int) "all but ingress" [ 1; 2; 3 ] ports;
  check show "one hop each"
    [ (1, 1, [ 9; 1 ]); (2, 1, [ 9; 2 ]); (3, 1, [ 9; 3 ]) ]
    (hops sw ports);
  let sw = Switch.create ~id:9 ~num_ports:4 () in
  Switch.set_queue_limit sw ~port:1 ~bytes:0;
  let pool = Frame.Pool.create () in
  let frame = host_frame_in pool ~tpp:(tpp ()) ~to_ip:dst_ip () in
  let ports = queued_ports (Switch.handle_ingress sw ~now:0 ~in_port:0 frame) in
  check (Alcotest.list Alcotest.int) "first port dropped" [ 2; 3 ] ports;
  check show "one hop each after a drop" [ (2, 1, [ 9; 2 ]); (3, 1, [ 9; 3 ]) ]
    (hops sw ports);
  check Alcotest.int "dropped original back in its pool" 0
    (Frame.Pool.outstanding pool)

let test_drop_rule () =
  let sw = make_switch () in
  Switch.install_tcam sw
    { Tables.Tcam.any with Tables.Tcam.priority = 9 }
    { Tables.action = Tables.Drop; entry_id = 1; version = 1 };
  for _ = 1 to 5 do
    match Switch.handle_ingress sw ~now:0 ~in_port:0 (host_frame ~to_ip:dst_ip ()) with
    | Switch.Dropped reason -> check Alcotest.string "reason" "table drop rule" reason
    | Switch.Queued _ -> Alcotest.fail "drop rule ignored"
  done;
  check Alcotest.int "switch drop counter" 5 (Switch.state sw).State.drops

let test_queue_accounting_and_tail_drop () =
  let sw = make_switch () in
  let wire = Frame.wire_size (host_frame ~to_ip:dst_ip ()) in
  Switch.set_queue_limit sw ~port:2 ~bytes:(2 * wire);
  let send () = Switch.handle_ingress sw ~now:0 ~in_port:0 (host_frame ~to_ip:dst_ip ()) in
  ignore (send ());
  ignore (send ());
  check Alcotest.int "two queued" (2 * wire) (Switch.queue_bytes sw ~port:2);
  (match send () with
  | Switch.Dropped "queue full" -> ()
  | _ -> Alcotest.fail "expected tail drop");
  let st = Switch.state sw in
  check Alcotest.int "port drop counter" 1
    (State.port_stat st ~port:2 Vaddr.Port_stat.Drops);
  check Alcotest.int "switch drop counter" 1 st.State.drops;
  (* Draining restores the byte count. *)
  ignore (Switch.dequeue sw ~port:2);
  check Alcotest.int "after dequeue" wire (Switch.queue_bytes sw ~port:2);
  check Alcotest.int "tx counted" wire (State.port_stat st ~port:2 Vaddr.Port_stat.Tx_bytes)

let test_rx_counters () =
  let sw = make_switch () in
  let frame = host_frame ~to_ip:dst_ip () in
  let wire = Frame.wire_size frame in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  let st = Switch.state sw in
  check Alcotest.int "rx bytes" wire (State.port_stat st ~port:0 Vaddr.Port_stat.Rx_bytes);
  check Alcotest.int "rx pkts" 1 (State.port_stat st ~port:0 Vaddr.Port_stat.Rx_pkts);
  check Alcotest.int "switch bytes" wire st.State.bytes_seen;
  check Alcotest.int "offered to egress" wire (State.port st 2).State.Port.offered_bytes

let probe_tpp () =
  match Asm.to_tpp ~mem_len:16 "PUSH [Queue:QueueSize]\n" with
  | Ok tpp -> tpp
  | Error e -> Alcotest.failf "assembly: %s" e

let test_tcpu_runs_in_pipeline () =
  let sw = make_switch () in
  let frame = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  let tpp = Option.get frame.Frame.tpp in
  check Alcotest.int "hop advanced" 1 tpp.Prog.hop;
  (* The queue was empty when the probe was about to join it. *)
  check (Alcotest.list Alcotest.int) "reads pre-enqueue occupancy" [ 0 ]
    (Prog.stack_values tpp);
  let st = Switch.state sw in
  check Alcotest.int "one execution" 1 st.State.tpp_execs;
  check Alcotest.int "one instruction's cycles" (Tpp_asic.Tcpu.cycles_for 1)
    st.State.tpp_cycles

(* The pipeline runs whatever TCPU the switch holds: with the oracle's
   interpreter installed there is no compile-cache traffic, yet the hop
   still executes. *)
let test_tcpu_runs_installed_interpreter () =
  let sw = make_switch () in
  Tpp_oracle.Interp.install sw;
  let frame = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  let st = Switch.state sw in
  check Alcotest.int "executed" 1 st.State.tpp_execs;
  check Alcotest.int "no compile hits" 0 st.State.tpp_compile_hits;
  check Alcotest.int "no compile misses" 0 st.State.tpp_compile_misses;
  check (Alcotest.list Alcotest.int) "interpreted the probe" [ 0 ]
    (Prog.stack_values (Option.get frame.Frame.tpp))

(* One TPP per canned program, plus one reading both SRAM namespaces
   (the canned ones read only registers). *)
let canned_tpps () =
  let sram =
    match Asm.to_tpp ~mem_len:16 "PUSH [Sram:0]\nPUSH [LinkSram:0]\n" with
    | Ok tpp -> tpp
    | Error e -> Alcotest.failf "assembly: %s" e
  in
  List.map
    (fun (name, src) ->
      match Programs.build src with
      | Ok tpp -> tpp
      | Error e -> Alcotest.failf "%s: %s" name e)
    Programs.all
  |> List.cons sram |> Array.of_list

(* A TPP hop allocates nothing: every canned program crosses the switch
   (ingress, lookup, TCPU, enqueue) and is dequeued again, many times,
   with an exact [Gc.minor_words] budget of zero. The first pass warms
   the compile cache and the switch's lazily built port state. Between
   hops each frame is reset to a fresh TTL and an empty stack, as a new
   packet would arrive. *)
let test_tpp_hop_allocates_nothing () =
  let sw = make_switch () in
  let pool = Frame.Pool.create () in
  let frames =
    Array.map (fun tpp -> host_frame_in pool ~tpp ~to_ip:dst_ip ()) (canned_tpps ())
  in
  let hop f =
    Frame.set_ip_ttl f 64;
    (match f.Frame.tpp with
    | Some t ->
      t.Prog.hop <- 0;
      t.Prog.sp <- t.Prog.base
    | None -> ());
    match Switch.handle_ingress sw ~now:0 ~in_port:0 f with
    | Switch.Queued (port :: _) ->
      if Switch.dequeue_or sw ~port ~default:f != f then
        Alcotest.fail "dequeued a different frame"
    | _ -> Alcotest.fail "TPP frame not forwarded"
  in
  Array.iter hop frames;
  let rounds = 2_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    Array.iter hop frames
  done;
  let words = Gc.minor_words () -. w0 in
  let st = Switch.state sw in
  check Alcotest.int "every hop executed" ((rounds + 1) * Array.length frames)
    st.State.tpp_execs;
  check Alcotest.int "no faults" 0 st.State.tpp_faults;
  check (Alcotest.float 0.0) "minor words across TPP hops" 0.0 words

(* Building a pooled TPP datagram allocates nothing beyond the caller's
   [Tpp.t]: the section, IPv4 and UDP headers are written straight into
   the recycled buffer. *)
let test_pooled_tpp_build_allocates_nothing () =
  let pool = Frame.Pool.create () in
  let tpps = Array.map Option.some (canned_tpps ()) in
  let payload = Bytes.create 100 in
  let src_mac = Mac.of_host_id 1 and dst_mac = Mac.of_host_id 2 in
  let src_ip = Ipv4.Addr.of_host_id 1 in
  let build tpp =
    Frame.recycle
      (Frame.Pool.udp_frame pool ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:5
         ~dst_port:6 ?tpp ~payload ())
  in
  Array.iter build tpps;
  let rounds = 2_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    Array.iter build tpps
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "one frame, reused" 1 (Frame.Pool.created pool);
  check (Alcotest.float 0.0) "minor words across pooled TPP builds" 0.0 words

(* A sender's whole cycle with the template kept: copy it, build the
   pooled datagram, recycle the frame on delivery. The copy shares the
   template's memory until the build blits it into the frame, and the
   record goes back to the template's spare stack with the frame, so
   after one warm pass the only allocation is the [Some] the caller
   boxes the copy in: 2 words per send. *)
let test_pooled_tpp_send_cycle_allocates_only_the_option () =
  let pool = Frame.Pool.create () in
  let templates = canned_tpps () in
  let payload = Bytes.create 100 in
  let src_mac = Mac.of_host_id 1 and dst_mac = Mac.of_host_id 2 in
  let src_ip = Ipv4.Addr.of_host_id 1 in
  let send template =
    Frame.recycle
      (Frame.Pool.udp_frame pool ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:5
         ~dst_port:6 ?tpp:(Some (Prog.copy template)) ~payload ())
  in
  Array.iter send templates;
  let rounds = 2_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    Array.iter send templates
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "one frame, reused" 1 (Frame.Pool.created pool);
  Array.iter
    (fun t -> check Alcotest.int "one spare copy per template" 1 t.Prog.cache.Prog.spare_len)
    templates;
  check (Alcotest.float 0.0) "minor words across pooled TPP sends"
    (float_of_int (2 * rounds * Array.length templates))
    words

let test_tcpu_sees_prior_queue () =
  let sw = make_switch () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (host_frame ~to_ip:dst_ip ()));
  let backlog = Switch.queue_bytes sw ~port:2 in
  let frame = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  check (Alcotest.list Alcotest.int) "sees the backlog" [ backlog ]
    (Prog.stack_values (Option.get frame.Frame.tpp))

let test_tcpu_disabled () =
  let sw = make_switch () in
  Switch.set_tcpu_enabled sw false;
  let frame = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  let tpp = Option.get frame.Frame.tpp in
  check Alcotest.int "not executed" 0 tpp.Prog.hop;
  check (Alcotest.list Alcotest.int) "stack untouched" [] (Prog.stack_values tpp)

let test_strip_tpp_at_edge () =
  let sw = make_switch () in
  Switch.set_strip_tpp sw ~port:0 true;
  let frame = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  (match Switch.dequeue sw ~port:2 with
  | Some forwarded ->
    check Alcotest.bool "TPP stripped" true (Option.is_none forwarded.Frame.tpp);
    check Alcotest.int "ethertype rewritten" Ethernet.ethertype_ipv4
      (Frame.ethertype forwarded)
  | None -> Alcotest.fail "frame lost");
  (* The same TPP through a non-stripping port survives. *)
  let frame2 = host_frame ~tpp:(probe_tpp ()) ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:1 frame2);
  match Switch.dequeue sw ~port:2 with
  | Some forwarded ->
    check Alcotest.bool "TPP kept" true (Option.is_some forwarded.Frame.tpp)
  | None -> Alcotest.fail "frame lost"

let test_tap () =
  let sw = make_switch () in
  let seen = ref [] in
  Switch.set_tap sw
    (Some (fun ~now:_ ~in_port ~out_port frame ->
         seen := (in_port, out_port, frame.Frame.id) :: !seen));
  let frame = host_frame ~to_ip:dst_ip () in
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 frame);
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "tap fired" [ (0, 2, frame.Frame.id) ] !seen;
  Switch.set_tap sw None;
  ignore (Switch.handle_ingress sw ~now:0 ~in_port:0 (host_frame ~to_ip:dst_ip ()));
  check Alcotest.int "tap removed" 1 (List.length !seen)

let test_invalid_ingress_port () =
  let sw = make_switch () in
  (match Switch.handle_ingress sw ~now:0 ~in_port:9 (host_frame ~to_ip:dst_ip ()) with
  | Switch.Dropped _ -> ()
  | Switch.Queued _ -> Alcotest.fail "invalid port accepted");
  check Alcotest.int "switch drop counter" 1 (Switch.state sw).State.drops

let suite =
  [
    Alcotest.test_case "l3 forwarding and metadata" `Quick test_l3_forwarding_and_meta;
    Alcotest.test_case "tcam overrides l3" `Quick test_tcam_overrides_l3;
    Alcotest.test_case "l2 fallback" `Quick test_l2_fallback;
    Alcotest.test_case "flood on miss" `Quick test_flood_on_miss;
    Alcotest.test_case "flood copies run one hop each" `Quick
      test_flood_copies_run_one_hop;
    Alcotest.test_case "drop rule" `Quick test_drop_rule;
    Alcotest.test_case "queue accounting and tail drop" `Quick
      test_queue_accounting_and_tail_drop;
    Alcotest.test_case "rx counters" `Quick test_rx_counters;
    Alcotest.test_case "tcpu in pipeline" `Quick test_tcpu_runs_in_pipeline;
    Alcotest.test_case "tcpu runs the installed interpreter" `Quick
      test_tcpu_runs_installed_interpreter;
    Alcotest.test_case "switch TPP hop allocates nothing" `Quick
      test_tpp_hop_allocates_nothing;
    Alcotest.test_case "pooled TPP build allocates nothing" `Quick
      test_pooled_tpp_build_allocates_nothing;
    Alcotest.test_case "pooled TPP send cycle allocates only the option box" `Quick
      test_pooled_tpp_send_cycle_allocates_only_the_option;
    Alcotest.test_case "tcpu sees prior queue" `Quick test_tcpu_sees_prior_queue;
    Alcotest.test_case "tcpu disabled" `Quick test_tcpu_disabled;
    Alcotest.test_case "strip tpp at edge" `Quick test_strip_tpp_at_edge;
    Alcotest.test_case "tap" `Quick test_tap;
    Alcotest.test_case "invalid ingress port" `Quick test_invalid_ingress_port;
  ]
