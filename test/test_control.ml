(* Control-plane agent tests: network-wide SRAM task allocation,
   version management, staged updates, and the E12 transient. *)

open Tpp
module State = Tpp_asic.State

let check = Alcotest.check
let mbps x = x * 1_000_000

let small_net () =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:3 ~hosts_per_switch:1 ~bps:(mbps 100)
      ~delay:(Time_ns.us 10) ()
  in
  (eng, chain)

let test_create_installs_v1 () =
  let _, chain = small_net () in
  let ctl = Controller.create chain.Topology.net in
  check Alcotest.int "version" 1 (Controller.version ctl);
  List.iter
    (fun (_, sw) ->
      check Alcotest.int "switch stamped" 1 (Switch.state sw).State.version)
    (Net.switches chain.Topology.net)

let test_task_registration () =
  let _, chain = small_net () in
  let ctl = Controller.create chain.Topology.net in
  let rcp =
    Result.get_ok (Controller.register_task ctl ~name:"rcp" ~link_slot:true ())
  in
  let ndb =
    Result.get_ok (Controller.register_task ctl ~name:"ndb" ~sram_words:8 ())
  in
  check (Alcotest.option Alcotest.int) "rcp slot" (Some 0) rcp.Controller.link_slot;
  check Alcotest.bool "ndb words allocated" true (Option.is_some ndb.Controller.word_base);
  check Alcotest.int "two tasks" 2 (List.length (Controller.tasks ctl));
  check Alcotest.bool "duplicate rejected" true
    (Result.is_error (Controller.register_task ctl ~name:"rcp" ()));
  (* The allocations on distinct switches must not collide: the ndb words
     cannot overlap the rcp slot's backing words on any switch. *)
  let slot = Option.get rcp.Controller.link_slot in
  let base = Option.get ndb.Controller.word_base in
  List.iter
    (fun (_, sw) ->
      let nports = Switch.num_ports sw in
      check Alcotest.bool "disjoint on every switch" true
        (base >= (slot + 1) * nports || base + 8 <= slot * nports))
    (Net.switches chain.Topology.net)

let test_defines_resolve () =
  let _, chain = small_net () in
  let ctl = Controller.create chain.Topology.net in
  let task =
    Result.get_ok
      (Controller.register_task ctl ~name:"acct" ~link_slot:true ~sram_words:2 ())
  in
  let defines = Controller.defines_for task in
  check Alcotest.int "three names" 3 (List.length defines);
  (* They assemble. *)
  let src = "PUSH [acct:LinkReg]\nADD [acct:Word0], 1\nPUSH [acct:Word1]\n" in
  match Asm.to_tpp ~defines ~mem_len:32 src with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_task_accounting_end_to_end () =
  (* A task counts its packets per switch with ADD on its own register. *)
  let eng, chain = small_net () in
  let net = chain.Topology.net in
  let ctl = Controller.create net in
  let task =
    Result.get_ok (Controller.register_task ctl ~name:"acct" ~sram_words:1 ())
  in
  let defines = Controller.defines_for task in
  let tpp = Result.get_ok (Asm.to_tpp ~defines ~mem_len:0 "ADD [acct:Word0], 1\n") in
  let src = Stack.create net chain.Topology.hosts.(0).(0) in
  let dst = chain.Topology.hosts.(2).(0) in
  let _sb = Stack.create net dst in
  for i = 1 to 5 do
    Engine.at eng (Time_ns.ms i) (fun () -> Probe.send src ~dst ~tpp ~seq:i)
  done;
  Engine.run eng ~until:(Time_ns.ms 50);
  let base = Option.get task.Controller.word_base in
  List.iter
    (fun (_, sw) ->
      check Alcotest.int
        (Printf.sprintf "switch %d counted every packet" (Switch.id sw))
        5
        (State.sram_get (Switch.state sw) base))
    (Net.switches net)

let test_reinstall_bumps_version () =
  let _, chain = small_net () in
  let ctl = Controller.create chain.Topology.net in
  Controller.reinstall_routes ctl;
  check Alcotest.int "v2" 2 (Controller.version ctl);
  List.iter
    (fun (_, sw) ->
      check Alcotest.int "switch at v2" 2 (Switch.state sw).State.version)
    (Net.switches chain.Topology.net)

let test_staged_update_transient () =
  let eng, chain = small_net () in
  let ctl = Controller.create chain.Topology.net in
  Controller.staged_route_update ctl ~gap:(Time_ns.ms 10);
  check Alcotest.bool "in progress" true (Controller.update_in_progress ctl);
  Engine.run eng ~until:(Time_ns.ms 15);
  (* One switch updated, others still old. *)
  let versions =
    List.map (fun (_, sw) -> (Switch.state sw).State.version)
      (Net.switches chain.Topology.net)
  in
  check Alcotest.bool "mixed mid-update" true
    (List.mem 1 versions && List.mem 2 versions);
  Engine.run eng ~until:(Time_ns.ms 100);
  check Alcotest.bool "done" false (Controller.update_in_progress ctl);
  List.iter
    (fun (_, sw) -> check Alcotest.int "all at v2" 2 (Switch.state sw).State.version)
    (Net.switches chain.Topology.net)

let test_tcam_interposition () =
  let eng, chain = small_net () in
  let net = chain.Topology.net in
  let ctl = Controller.create net in
  let dst = chain.Topology.hosts.(2).(0) in
  let id =
    Controller.install_tcam ctl ~switch_node:chain.Topology.switch_ids.(0)
      { Tables.Tcam.any with
        Tables.Tcam.priority = 9; dst_ip = Some (dst.Net.ip, 0xFFFFFFFF) }
      (Tables.Forward 1)
  in
  check Alcotest.bool "unique high id" true (id > 10_000);
  (* A traced packet reports the stamped id and current version. *)
  let src = chain.Topology.hosts.(0).(0) in
  let seen = ref None in
  dst.Net.receive <- (fun ~now:_ frame ->
      match frame.Frame.tpp with
      | Some tpp -> seen := Some (Trace.parse tpp)
      | None -> ());
  let frame =
    Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac ~src_ip:src.Net.ip
      ~dst_ip:dst.Net.ip ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ()
  in
  Net.host_send net src (Trace.attach frame ~max_hops:5);
  Engine.run eng ~until:(Time_ns.ms 50);
  (match !seen with
  | Some (first :: _) ->
    check Alcotest.int "stamped id on the packet" id first.Trace.matched_entry;
    check Alcotest.int "stamped version" 1 first.Trace.matched_version
  | _ -> Alcotest.fail "no trace");
  Controller.remove_tcam ctl ~switch_node:chain.Topology.switch_ids.(0) ~entry_id:id

let test_consistent_experiment_smoke () =
  let r = Consistent.run () in
  check Alcotest.bool "packets flowed" true (r.Consistent.total > 200);
  check Alcotest.bool "straddlers found" true (r.Consistent.mixed > 0);
  check Alcotest.int "conservation" r.Consistent.total
    (r.Consistent.pure_old + r.Consistent.pure_new + r.Consistent.mixed);
  check Alcotest.int "attribution exact" r.Consistent.mixed
    r.Consistent.mixed_during_window

let suite =
  [
    Alcotest.test_case "create installs v1" `Quick test_create_installs_v1;
    Alcotest.test_case "task registration" `Quick test_task_registration;
    Alcotest.test_case "defines resolve" `Quick test_defines_resolve;
    Alcotest.test_case "task accounting end-to-end" `Quick
      test_task_accounting_end_to_end;
    Alcotest.test_case "reinstall bumps version" `Quick test_reinstall_bumps_version;
    Alcotest.test_case "staged update transient" `Quick test_staged_update_transient;
    Alcotest.test_case "tcam interposition" `Quick test_tcam_interposition;
    Alcotest.test_case "consistent experiment" `Slow test_consistent_experiment_smoke;
  ]
