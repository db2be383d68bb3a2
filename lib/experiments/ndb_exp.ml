module Time_ns = Tpp_util.Time_ns
module Engine = Tpp_sim.Engine
module Net = Tpp_sim.Net
module Topology = Tpp_sim.Topology
module Switch = Tpp_asic.Switch
module Tables = Tpp_asic.Tables
module Frame = Tpp_isa.Frame
module Trace = Tpp_ndb.Trace
module Verify = Tpp_ndb.Verify
module Sink = Tpp_telemetry.Sink
module Emit = Tpp_telemetry.Emit

type params = {
  packets : int;
  payload_bytes : int;
  plant_stale_rule : bool;
  max_hops : int;
}

(* ndb's postcard is a truncated copy of the packet: a minimum-size
   Ethernet frame. *)
let postcard_size = 64

let default =
  { packets = 20; payload_bytes = 200; plant_stale_rule = true; max_hops = 6 }

type result = {
  expected_path : int list;
  observed_paths : int list list;
  mismatches : Verify.mismatch list;
  culprit_entry : int option;
  traced_packets : int;
  tpp_bytes_per_packet : int;
  postcards : int;
  postcard_bytes : int;
}

let run p =
  let eng = Engine.create () in
  let dia =
    Topology.diamond eng ~hosts_per_side:1 ~bps:100_000_000 ~delay:(Time_ns.us 500) ()
  in
  let net = dia.Topology.m_net in
  let src = dia.Topology.src_hosts.(0) in
  let dst = dia.Topology.dst_hosts.(0) in
  if p.plant_stale_rule then
    Switch.install_tcam
      (Net.switch net dia.Topology.ingress)
      { Tables.Tcam.any with
        Tables.Tcam.priority = 50; dst_ip = Some (dst.Net.ip, 0xFFFFFFFF) }
      { Tables.action = Tables.Forward 1; entry_id = 999; version = 0 };
  (* ndb's baseline: one hop card per frame per switch. *)
  let sink = Sink.create () in
  Emit.tap_switches sink net;
  let traces = ref [] in
  dst.Net.receive <- (fun ~now:_ frame ->
      match frame.Frame.tpp with
      | Some tpp -> traces := Trace.parse tpp :: !traces
      | None -> ());
  for i = 1 to p.packets do
    Engine.at eng (Time_ns.ms i) (fun () ->
        let frame =
          Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac
            ~src_ip:src.Net.ip ~dst_ip:dst.Net.ip ~src_port:9000 ~dst_port:9000
            ~payload:(Bytes.create p.payload_bytes) ()
        in
        Net.host_send net src (Trace.attach frame ~max_hops:p.max_hops))
  done;
  Engine.run eng ~until:(Time_ns.ms (p.packets + 100));
  let traces = List.rev !traces in
  let expected_path = Verify.control_path net ~src ~dst in
  let observed_paths =
    List.map (fun t -> List.map (fun h -> h.Trace.switch_id) t) traces
  in
  let mismatches, culprit_entry =
    match traces with
    | [] -> ([], None)
    | trace :: _ ->
      let issues = Verify.check ~expected:expected_path ~expected_version:1 ~trace in
      (* A packet reaches the wrong switch at hop h because the entry
         matched at hop h-1 forwarded it there; that entry is the bug. *)
      let culprit =
        List.find_map
          (function
            | Verify.Wrong_switch { hop; _ } ->
              List.nth_opt trace (max 0 (hop - 1))
              |> Option.map (fun (h : Trace.hop) -> h.Trace.matched_entry)
            | _ -> None)
          issues
      in
      (issues, culprit)
  in
  {
    expected_path;
    observed_paths;
    mismatches;
    culprit_entry;
    traced_packets = List.length traces;
    tpp_bytes_per_packet = Tpp_isa.Tpp.section_size (Trace.make ~max_hops:p.max_hops);
    postcards = Sink.emitted sink;
    postcard_bytes = Sink.emitted sink * postcard_size;
  }
