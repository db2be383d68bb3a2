module Time_ns = Tpp_util.Time_ns
module Engine = Tpp_sim.Engine
module Net = Tpp_sim.Net
module Fault = Tpp_sim.Fault
module Topology = Tpp_sim.Topology
module Switch = Tpp_asic.Switch
module Stack = Tpp_endhost.Stack
module Probe = Tpp_endhost.Probe
module Faultfind = Tpp_ndb.Faultfind

let fail_at = Time_ns.sec 1
let probe_period = Time_ns.ms 10
let timeout = Time_ns.ms 50
let duration = Time_ns.sec 2

type scenario = Permanent | Flap | Dual_failure | Lossy_link

let scenario_name = function
  | Permanent -> "permanent"
  | Flap -> "flap"
  | Dual_failure -> "dual-failure"
  | Lossy_link -> "lossy-link"

type scenario_result = {
  sc_scenario : scenario;
  sc_circuits : int;
  sc_true_links : Faultfind.link list;
  sc_degraded_circuits : int;
  sc_detection_ms : float;
  sc_suspects : Faultfind.link list;
  sc_localised : bool;
  sc_fault_stats : Fault.stats;
}

let run_scenario ?(seed = 42) scenario =
  let eng = Engine.create () in
  let ft = Topology.fat_tree eng ~k:4 ~bps:100_000_000 ~delay:(Time_ns.us 20) () in
  let net = ft.Topology.f_net in
  let hosts = ft.Topology.f_hosts in
  let n = Array.length hosts in
  let stacks = Array.map (Stack.create net) hosts in
  Array.iter Probe.install_echo stacks;
  let circuits = List.init n (fun i -> (stacks.(i), hosts.((i + 4) mod n))) in
  let finder = Faultfind.create ~circuits ~period:probe_period ~timeout () in
  Faultfind.start finder ~at:(Time_ns.ms 10) ();
  let node_of_switch_id swid =
    match
      List.find_opt (fun (_, sw) -> Switch.id sw = swid) (Net.switches net)
    with
    | Some (node, _) -> node
    | None -> invalid_arg "Faults.run_scenario: unknown switch id"
  in
  let agg_to_core circuit =
    match Faultfind.links_of_circuit finder circuit with
    | _ :: (l : Faultfind.link) :: _ -> l
    | _ -> invalid_arg "Faults.run_scenario: circuit shorter than expected"
  in
  let endpoint (l : Faultfind.link) =
    (node_of_switch_id l.Faultfind.from_switch, l.Faultfind.egress_port)
  in
  let primary = agg_to_core 0 in
  let true_links =
    match scenario with
    | Permanent | Flap | Lossy_link -> [ primary ]
    | Dual_failure ->
      (* A second simultaneous failure on a different physical cable,
         taken from another circuit's aggregation->core hop. *)
      let rec second i =
        if i >= n then invalid_arg "Faults.run_scenario: no second distinct cable"
        else
          let l = agg_to_core i in
          if Faultfind.same_cable finder primary l then second (i + 1) else l
      in
      [ primary; second 1 ]
  in
  let fault = Fault.create ~seed in
  let until_ = duration in
  List.iter
    (fun l ->
      let ends = endpoint l in
      match scenario with
      | Permanent | Dual_failure -> Fault.link_down fault ~at:fail_at ends
      | Flap ->
        Fault.flap fault ~from_:fail_at ~until_ ~period:(Time_ns.ms 30)
          ~down_for:(Time_ns.ms 15) ends
      | Lossy_link -> Fault.lossy fault ~from_:fail_at ~until_ ~drop:0.4 ends)
    true_links;
  Fault.attach fault net;
  let detected_at = ref None in
  Engine.every eng ~period:(Time_ns.ms 5) ~until:duration (fun () ->
      let now = Engine.now eng in
      if now > fail_at && !detected_at = None then
        if List.exists Fun.id (Faultfind.degraded finder ~now) then
          detected_at := Some now);
  Engine.run eng ~until:duration;
  let now = Engine.now eng in
  let degraded = List.filter Fun.id (Faultfind.degraded finder ~now) in
  let suspects = Faultfind.suspects finder ~now in
  {
    sc_scenario = scenario;
    sc_circuits = n;
    sc_true_links = true_links;
    sc_degraded_circuits = List.length degraded;
    sc_detection_ms =
      (match !detected_at with
      | Some t -> Time_ns.to_ms_f (t - fail_at)
      | None -> Float.infinity);
    sc_suspects = suspects;
    sc_localised =
      List.for_all
        (fun l -> List.exists (Faultfind.same_cable finder l) suspects)
        true_links;
    sc_fault_stats = Fault.stats fault;
  }

let run_matrix ?seed () =
  List.map (run_scenario ?seed) [ Permanent; Flap; Dual_failure; Lossy_link ]
