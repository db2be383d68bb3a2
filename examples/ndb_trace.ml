(* Forwarding-plane debugger (paper §2.3).

   A diamond topology has two equal paths A-B-D and A-C-D; the control
   plane installed routes via B. We then plant a stale high-priority
   TCAM rule on A (left over from an old configuration, version 0) that
   silently steers the destination's traffic via C. The control plane's
   tables say everything is fine — only the dataplane knows.

   Packets carrying the 5-instruction trace TPP record, at each hop,
   the switch id, matched entry id + version, and ports. Comparing the
   trace against the intended path localises the bad rule to switch A
   in one packet. The postcard-based ndb baseline finds the same thing
   at the cost of one extra 64-byte packet per packet per hop. *)

open Tpp

let () =
  let eng = Engine.create () in
  let dia =
    Topology.diamond eng ~hosts_per_side:1 ~bps:(100 * 1_000_000)
      ~delay:(Time_ns.us 500) ()
  in
  let net = dia.Topology.m_net in
  let src = dia.Topology.src_hosts.(0) in
  let dst = dia.Topology.dst_hosts.(0) in

  (* The misconfiguration: switch A prefers port 1 (toward C) for the
     destination, via a stale rule the control plane forgot. *)
  let ingress = Net.switch net dia.Topology.ingress in
  Switch.install_tcam ingress
    { Tables.Tcam.any with
      Tables.Tcam.priority = 10;
      dst_ip = Some (dst.Net.ip, 0xFFFFFFFF) }
    { Tables.action = Tables.Forward 1; entry_id = 999; version = 0 };

  (* Both debuggers on: ndb's postcards are the switches' binary hop
     cards. *)
  let postcards = Telemetry_sink.create () in
  Telemetry_emit.tap_switches postcards net;

  let src_stack = Stack.create net src in
  let dst_stack = Stack.create net dst in
  let traces = ref [] in
  Stack.on_udp dst_stack ~port:9000 (fun ~now:_ frame ->
      match frame.Frame.tpp with
      | Some tpp -> traces := Trace.parse tpp :: !traces
      | None -> ());

  (* Application traffic, each packet wrapped with the trace TPP. *)
  let send_traced () =
    let frame =
      Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip
        ~dst_ip:dst.Net.ip ~src_port:9000 ~dst_port:9000
        ~payload:(Bytes.create 200) ()
    in
    Net.host_send net (Stack.host src_stack) (Trace.attach frame ~max_hops:6)
  in
  for i = 1 to 10 do
    Engine.at eng (Time_ns.ms i) send_traced
  done;
  Engine.run eng ~until:(Time_ns.ms 50);

  let expected = Verify.control_path net ~src ~dst in
  Printf.printf "control-plane intended path: %s\n"
    (String.concat " -> " (List.map (Printf.sprintf "sw%d") expected));
  (match !traces with
  | [] -> print_endline "no traced packets arrived!"
  | trace :: _ ->
    Printf.printf "dataplane trace of one packet:\n";
    List.iter (fun h -> Format.printf "  %a@." Trace.pp_hop h) trace;
    let issues = Verify.check ~expected ~expected_version:1 ~trace in
    if issues = [] then print_endline "no mismatch (unexpected!)"
    else begin
      Printf.printf "mismatches found (%d packets traced):\n" (List.length !traces);
      List.iter (fun m -> Format.printf "  %a@." Verify.pp_mismatch m) issues
    end);
  Printf.printf
    "\noverhead: postcards %d packets / %d bytes; TPP %d extra bytes in-band per \
     packet, 0 extra packets\n"
    (Telemetry_sink.emitted postcards)
    (Telemetry_sink.emitted postcards * Ndb_exp.postcard_size)
    (Prog.section_size (Trace.make ~max_hops:6))
