(* Forwarding-plane debugger tests: the trace TPP, control-path
   computation, mismatch detection, and the postcard baseline (the
   switches' binary hop cards). *)

open Tpp

let check = Alcotest.check

let diamond () =
  let eng = Engine.create () in
  let dia =
    Topology.diamond eng ~hosts_per_side:1 ~bps:100_000_000 ~delay:(Time_ns.us 100) ()
  in
  (eng, dia)

let traced_frame src dst =
  let frame =
    Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip
      ~dst_ip:dst.Net.ip ~src_port:9000 ~dst_port:9000 ~payload:(Bytes.create 64) ()
  in
  Trace.attach frame ~max_hops:6

let collect_one_trace eng dia =
  let net = dia.Topology.m_net in
  let src = dia.Topology.src_hosts.(0) in
  let dst = dia.Topology.dst_hosts.(0) in
  let traces = ref [] in
  dst.Net.receive <- (fun ~now:_ frame ->
      match frame.Frame.tpp with
      | Some tpp -> traces := Trace.parse tpp :: !traces
      | None -> ());
  Net.host_send net src (traced_frame src dst);
  Engine.run eng ~until:(Time_ns.ms 50);
  match !traces with
  | [ t ] -> t
  | other -> Alcotest.failf "expected one trace, got %d" (List.length other)

let test_trace_records_intended_path () =
  let eng, dia = diamond () in
  let trace = collect_one_trace eng dia in
  let ids = List.map (fun h -> h.Trace.switch_id) trace in
  check (Alcotest.list Alcotest.int) "A-B-D" [ 1; 2; 4 ] ids;
  List.iter
    (fun h ->
      check Alcotest.bool "entry recorded" true (h.Trace.matched_entry > 0);
      check Alcotest.int "version 1" 1 h.Trace.matched_version)
    trace;
  (* The first hop entered from the source host's access port (2). *)
  (match trace with
  | first :: _ -> check Alcotest.int "in port" 2 first.Trace.in_port
  | [] -> Alcotest.fail "empty trace");
  let expected = Verify.control_path dia.Topology.m_net ~src:dia.Topology.src_hosts.(0)
      ~dst:dia.Topology.dst_hosts.(0) in
  check (Alcotest.list Alcotest.int) "matches control path" expected ids;
  check Alcotest.int "no mismatch" 0
    (List.length (Verify.check ~expected ~expected_version:1 ~trace))

let test_trace_detects_divergence () =
  let eng, dia = diamond () in
  let ingress = Net.switch dia.Topology.m_net dia.Topology.ingress in
  Switch.install_tcam ingress
    { Tables.Tcam.any with
      Tables.Tcam.priority = 50;
      dst_ip = Some (dia.Topology.dst_hosts.(0).Net.ip, 0xFFFFFFFF) }
    { Tables.action = Tables.Forward 1; entry_id = 999; version = 0 };
  let trace = collect_one_trace eng dia in
  let ids = List.map (fun h -> h.Trace.switch_id) trace in
  check (Alcotest.list Alcotest.int) "went A-C-D" [ 1; 3; 4 ] ids;
  (match trace with
  | first :: _ ->
    check Alcotest.int "culprit entry visible" 999 first.Trace.matched_entry
  | [] -> Alcotest.fail "empty trace");
  let expected =
    Verify.control_path dia.Topology.m_net ~src:dia.Topology.src_hosts.(0)
      ~dst:dia.Topology.dst_hosts.(0)
  in
  let issues = Verify.check ~expected ~expected_version:1 ~trace in
  check Alcotest.bool "wrong switch flagged" true
    (List.exists
       (function
         | Verify.Wrong_switch { hop = 1; expected = 2; got = 3 } -> true
         | _ -> false)
       issues)

let test_verify_check_cases () =
  let hop ?(version = 1) switch_id =
    { Trace.switch_id; matched_entry = 1; matched_version = version; in_port = 0;
      out_port = 1 }
  in
  check Alcotest.int "identical paths pass" 0
    (List.length (Verify.check ~expected:[ 1; 2 ] ~expected_version:1
                    ~trace:[ hop 1; hop 2 ]));
  (match Verify.check ~expected:[ 1; 2; 3 ] ~expected_version:1 ~trace:[ hop 1 ] with
  | [ Verify.Path_too_short _ ] -> ()
  | _ -> Alcotest.fail "short path");
  (match Verify.check ~expected:[ 1 ] ~expected_version:1 ~trace:[ hop 1; hop 2 ] with
  | [ Verify.Path_too_long _ ] -> ()
  | _ -> Alcotest.fail "long path");
  match Verify.check ~expected:[ 1 ] ~expected_version:2 ~trace:[ hop ~version:1 1 ] with
  | [ Verify.Stale_version { switch_id = 1; expected = 2; got = 1 } ] -> ()
  | _ -> Alcotest.fail "stale version"

let test_trace_attach_rules () =
  let frame =
    Frame.udp_frame ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
      ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2) ~src_port:1
      ~dst_port:2 ~payload:Bytes.empty ()
  in
  let traced = Trace.attach frame ~max_hops:4 in
  check Alcotest.bool "tpp added" true (Option.is_some traced.Frame.tpp);
  Alcotest.check_raises "double attach"
    (Invalid_argument "Trace.attach: frame already carries a TPP") (fun () ->
      ignore (Trace.attach traced ~max_hops:4))

let test_trace_parse_stops_at_unwritten_blocks () =
  let tpp = Trace.make ~max_hops:4 in
  (* Simulate execution on one switch only. *)
  Prog.mem_set tpp 0 7 (* switch id *);
  Prog.mem_set tpp 4 1;
  Prog.mem_set tpp 8 1;
  tpp.Prog.hop <- 3 (* two further hops executed nothing, e.g. CEXEC-gated *);
  let trace = Trace.parse tpp in
  check Alcotest.int "only the written hop" 1 (List.length trace)

(* One hop card as the wire carries it, or as a frame tap sees it. *)
type card = {
  time : int;
  node : int;
  in_port : int;
  out_port : int;
  version : int;
  entry : int;
  frame_id : int;
  wire_bytes : int;
}

let pp_card ppf c =
  Format.fprintf ppf "t=%d node=%d in=%d out=%d v=%d entry=%d frame=%d wire=%d"
    c.time c.node c.in_port c.out_port c.version c.entry c.frame_id c.wire_bytes

let card = Alcotest.testable pp_card ( = )

(* Every card the sink holds, in emission order. *)
let drain_cards sink =
  let cards = ref [] in
  Telemetry_sink.drain sink (fun b ~off ->
      let module W = Telemetry_wire in
      cards :=
        { time = W.time_ns b ~off; node = W.node b ~off; in_port = W.in_port b ~off;
          out_port = W.out_port b ~off; version = W.version b ~off;
          entry = W.entry b ~off; frame_id = W.subject b ~off;
          wire_bytes = W.wire_bytes b ~off }
        :: !cards);
  List.rev !cards

let send_plain net src dst =
  Net.host_send net src
    (Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip
       ~dst_ip:dst.Net.ip ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ())

(* ndb's baseline (paper §2.3): a postcard per packet per hop,
   reassembled into each packet's path. *)
let test_postcards () =
  let eng, dia = diamond () in
  let net = dia.Topology.m_net in
  let sink = Telemetry_sink.create () in
  Telemetry_emit.tap_switches sink net;
  let src = dia.Topology.src_hosts.(0) in
  let dst = dia.Topology.dst_hosts.(0) in
  (* Two plain frames; each crosses 3 switches. *)
  send_plain net src dst;
  send_plain net src dst;
  Engine.run eng ~until:(Time_ns.ms 50);
  let cards = drain_cards sink in
  check Alcotest.int "3 postcards per packet" 6 (List.length cards);
  let frames = List.sort_uniq compare (List.map (fun c -> c.frame_id) cards) in
  check Alcotest.int "two distinct frames" 2 (List.length frames);
  List.iter
    (fun id ->
      let hops =
        List.filter (fun c -> c.frame_id = id) cards
        |> List.stable_sort (fun a b -> Int.compare a.time b.time)
      in
      check (Alcotest.list Alcotest.int) "reassembled path"
        [ dia.Topology.ingress; dia.Topology.upper; dia.Topology.egress ]
        (List.map (fun c -> c.node) hops))
    frames;
  List.iter (fun (_, sw) -> Switch.set_bin_tap sw None) (Net.switches net);
  send_plain net src dst;
  Engine.run eng ~until:(Time_ns.ms 100);
  check Alcotest.int "untapped switches are silent" 6 (Telemetry_sink.emitted sink)

(* The binary hop card carries what the boxed frame tap sees at the same
   mirror point, field by field: traced and plain frames, with a stale
   rule steering some of them the other way round the diamond. *)
let test_hop_cards_match_frame_tap () =
  let eng, dia = diamond () in
  let net = dia.Topology.m_net in
  let sink = Telemetry_sink.create () in
  Telemetry_emit.tap_switches sink net;
  let tapped = ref [] in
  List.iter
    (fun (node, sw) ->
      Switch.set_tap sw
        (Some
           (fun ~now ~in_port ~out_port frame ->
             let meta = frame.Frame.meta in
             tapped :=
               { time = now; node; in_port; out_port;
                 version = meta.Meta.matched_version; entry = meta.Meta.matched_entry;
                 frame_id = frame.Frame.id; wire_bytes = Frame.wire_size frame }
               :: !tapped)))
    (Net.switches net);
  let src = dia.Topology.src_hosts.(0) in
  let dst = dia.Topology.dst_hosts.(0) in
  for i = 1 to 4 do
    if i = 3 then
      Switch.install_tcam
        (Net.switch net dia.Topology.ingress)
        { Tables.Tcam.any with
          Tables.Tcam.priority = 50; dst_ip = Some (dst.Net.ip, 0xFFFFFFFF) }
        { Tables.action = Tables.Forward 1; entry_id = 999; version = 0 };
    Net.host_send net src (traced_frame src dst);
    send_plain net src dst;
    Engine.run eng ~until:(Time_ns.ms (10 * i))
  done;
  let tapped = List.rev !tapped in
  check Alcotest.int "every frame crossed three switches" 24 (List.length tapped);
  check (Alcotest.list card) "hop cards == frame tap" tapped (drain_cards sink)

let test_control_path_on_chain () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:3 ~hosts_per_switch:1 ~bps:1_000_000
      ~delay:0 ()
  in
  let path =
    Verify.control_path chain.Topology.net ~src:chain.Topology.hosts.(0).(0)
      ~dst:chain.Topology.hosts.(2).(0)
  in
  check (Alcotest.list Alcotest.int) "full chain" [ 1; 2; 3 ] path

let suite =
  [
    Alcotest.test_case "trace records intended path" `Quick
      test_trace_records_intended_path;
    Alcotest.test_case "trace detects divergence" `Quick test_trace_detects_divergence;
    Alcotest.test_case "verify check cases" `Quick test_verify_check_cases;
    Alcotest.test_case "trace attach rules" `Quick test_trace_attach_rules;
    Alcotest.test_case "trace parse partial" `Quick
      test_trace_parse_stops_at_unwritten_blocks;
    Alcotest.test_case "postcards" `Quick test_postcards;
    Alcotest.test_case "hop cards match the frame tap" `Quick
      test_hop_cards_match_frame_tap;
    Alcotest.test_case "control path on chain" `Quick test_control_path_on_chain;
  ]
