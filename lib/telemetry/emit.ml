module Net = Tpp_sim.Net
module Fault = Tpp_sim.Fault
module Switch = Tpp_asic.Switch
module Reliable = Tpp_endhost.Probe.Reliable

let tap_switches sink net =
  List.iter
    (fun (node, sw) ->
      (* Hop cards carry the net node id (what Topology/React address
         switches by), not the ASIC's own id. *)
      let switch_id = node in
      Switch.set_bin_tap sw
        (Some
           (fun ~now ~in_port ~out_port ~queue_bytes ~version ~frame_id
                ~flow_hash ~wire_bytes ~entry ->
             Sink.emit_hop sink ~now ~switch_id ~in_port ~out_port
               ~queue_bytes ~version ~frame_id ~flow_hash ~wire_bytes ~entry)))
    (Net.switches net)

let probe_events sink ~node reliable =
  Reliable.set_observer reliable
    (Some
       (fun ~now ~event ~seq ~attempts ->
         let kind =
           match event with
           | Reliable.Retry -> Wire.kind_code Wire.Probe_retry
           | Reliable.Failure -> Wire.kind_code Wire.Probe_failure
         in
         Sink.emit sink ~kind ~in_port:0 ~out_port:0 ~node ~value:attempts
           ~version:0 ~subject:seq ~time_ns:now ~flow_hash:0 ~wire_bytes:0
           ~entry:0))

let fault_cause_code : Fault.cause -> int = function
  | Fault.Lost_down -> 0
  | Fault.Random_drop -> 1
  | Fault.Corrupt_header -> 2
  | Fault.Corrupt_fcs -> 3
  | Fault.Frozen_arrival -> 4
  | Fault.Restart -> 5

let fault_events sink fault =
  Fault.set_observer fault
    (Some
       (fun ~now ~cause ~node ~port ~frame_id ->
         Sink.emit sink
           ~kind:(Wire.kind_code Wire.Fault_event)
           ~in_port:0 ~out_port:port ~node
           ~value:(fault_cause_code cause) ~version:0 ~subject:frame_id
           ~time_ns:now ~flow_hash:0 ~wire_bytes:0 ~entry:0))
