(* Transport testbed tests: the NDP receiver-driven state machine under
   random trim/drop schedules, flowlet steering, DCTCP report-counter
   wraparound, FCT workload validation, and the flow-completion
   harness's identity (sharded == sequential as scenario specs, fat-tree
   fingerprints pinned). *)

open Tpp

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- NDP over a two-switch chain ---------------------------------------- *)

(* A deliberately shallow data queue (3 KB, less than the 8-packet
   spray) forces trims at every message start, so the NACK-on-trim path
   runs on every test; random access-link loss exercises the stall
   timer and the sender's liveness respray. *)
let ndp_bps = 100_000_000

let ndp_config =
  {
    Ndp.default_config with
    Ndp.payload_bytes = 1000;
    rtx_timeout_ns = Time_ns.ms 2;
    nack_burst = 4;
    data_queue_bytes = 3_000;
    pull_gap_ns =
      (42 + Ndp.header_bytes + 1000) * 8 * 1_000_000_000 / ndp_bps * 135 / 100;
  }

(* Runs [sizes] over a two-switch chain with two hosts per switch. Both
   left-side hosts send to the same right-side host (2:1 fan-in on its
   access link, so overlapping sprays overflow the shallow data queue
   and get trimmed), and every third message flows back the other way
   so endpoints play sender and receiver at once. [drop] > 0 adds a
   lossy episode on every access link that ends at 60% of the horizon,
   leaving a clean drain tail — the same shape as the chaos gate in
   bench/perf.exe. Returns the endpoints after the horizon. *)
let ndp_run ~drop ~seed sizes =
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:2 ~hosts_per_switch:2 ~bps:ndp_bps
      ~delay:(Time_ns.us 100) ()
  in
  let net = chain.Topology.net in
  let hosts =
    [|
      chain.Topology.hosts.(0).(0); chain.Topology.hosts.(0).(1);
      chain.Topology.hosts.(1).(0); chain.Topology.hosts.(1).(1);
    |]
  in
  Ndp.enable_network net ndp_config;
  let horizon = Time_ns.ms 60 in
  if drop > 0.0 then begin
    let f = Fault.create ~seed in
    let until_ = Time_ns.of_sec_f (Time_ns.to_sec_f horizon *. 0.6) in
    Array.iter
      (fun h -> Fault.lossy f ~from_:0 ~until_ ~drop (h.Net.node_id, 0))
      hosts;
    Fault.attach f net
  end;
  let eps =
    Array.map
      (fun h -> Ndp.create ~config:ndp_config (Stack.create net h) ~port:9000)
      hosts
  in
  List.iteri
    (fun i bytes ->
      let src, dst =
        match i mod 3 with
        | 0 -> (eps.(0), hosts.(2))
        | 1 -> (eps.(1), hosts.(2))
        | _ -> (eps.(2), hosts.(0))
      in
      Engine.at eng (Time_ns.us (100 * i)) (fun () ->
          ignore (Ndp.send src ~dst ~bytes)))
    sizes;
  Engine.run eng ~until:horizon;
  eps

let endpoint_ok e =
  let s = Ndp.stats e in
  s.Ndp.completed = s.Ndp.started
  && Ndp.outstanding e = 0
  && Ndp.invariants_ok e && Ndp.fold_rx_credit e

let test_ndp_clean () =
  let eps = ndp_run ~drop:0.0 ~seed:1 [ 25_000; 18_000; 12_000; 9_000 ] in
  Array.iteri
    (fun i ep ->
      check Alcotest.bool (Printf.sprintf "endpoint %d ok" i) true
        (endpoint_ok ep))
    eps;
  let total f = Array.fold_left (fun acc ep -> acc + f (Ndp.stats ep)) 0 eps in
  check Alcotest.int "all messages started" 4 (total (fun s -> s.Ndp.started));
  check Alcotest.int "all messages completed" 4
    (total (fun s -> s.Ndp.completed));
  (* Two overlapping sprays into one access link overflow the 3 KB data
     queue: the trim path must have fired. *)
  check Alcotest.bool "trims exercised" true
    (total (fun s -> s.Ndp.trimmed_rx) > 0);
  Array.iter
    (fun ep ->
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
        "no violations" []
        (List.filter (fun (_, n) -> n > 0) (Ndp.violations ep)))
    eps

(* Every started message completes under any random trim/drop schedule,
   credit never leaks, and pull counters stay monotone — the endpoint
   audits the last two continuously ([invariants_ok] latches any
   violation), so one property run checks all three. *)
let prop_ndp_completes_under_loss =
  QCheck.Test.make ~name:"ndp completes under random trim/drop" ~count:8
    QCheck.(
      make ~print:Print.(triple int int (list int))
        Gen.(
          triple (int_range 0 10_000) (int_range 0 300)
            (list_size (int_range 1 4) (int_range 1_000 30_000))))
    (fun (seed, drop_m, sizes) ->
      let drop = float_of_int drop_m /. 10_000.0 in
      let eps = ndp_run ~drop ~seed sizes in
      Array.for_all endpoint_ok eps)

(* --- Flowlet steering ---------------------------------------------------- *)

let test_flowlet_boundary () =
  let fl = Flowlet.create ~gap_ns:1000 in
  check Alcotest.bool "never sent" true
    (Flowlet.boundary fl ~last_tx:(-1) ~now:0);
  check Alcotest.bool "inside burst" false
    (Flowlet.boundary fl ~last_tx:100 ~now:600);
  check Alcotest.bool "after gap" true
    (Flowlet.boundary fl ~last_tx:100 ~now:1100);
  check Alcotest.int "checks counted" 3 (Flowlet.checks fl);
  check Alcotest.int "boundaries counted" 2 (Flowlet.boundaries fl)

let test_flowlet_table_pins () =
  let tbl = Flowlet.Table.create ~size:16 ~gap_ns:1000 () in
  check Alcotest.int "stale bucket binds best" 2
    (Flowlet.Table.decide tbl ~key:5 ~now:0 ~best:2);
  check Alcotest.int "pinned within gap" 2
    (Flowlet.Table.decide tbl ~key:5 ~now:500 ~best:4);
  check Alcotest.int "rebinds after idle gap" 4
    (Flowlet.Table.decide tbl ~key:5 ~now:2_000 ~best:4);
  check Alcotest.int "rebinds counted" 2 (Flowlet.Table.rebinds tbl)

(* Steering is pure arithmetic over the caller's clock: two tables fed
   the same decision sequence agree on every path — the property the
   sharded runner relies on for bit-identical fingerprints. *)
let prop_flowlet_determinism =
  QCheck.Test.make ~name:"flowlet steering deterministic" ~count:100
    QCheck.(
      make ~print:Print.(list (triple int int int))
        Gen.(
          list_size (int_range 1 200)
            (triple (int_bound 4095) (int_bound 3_000) (int_bound 7))))
    (fun ops ->
      let mk () = Flowlet.Table.create ~size:64 ~gap_ns:1_000 () in
      let t1 = mk () and t2 = mk () in
      let now = ref 0 in
      List.for_all
        (fun (key, dt, best) ->
          now := !now + dt;
          Flowlet.Table.decide t1 ~key ~now:!now ~best
          = Flowlet.Table.decide t2 ~key ~now:!now ~best)
        ops
      && Flowlet.Table.rebinds t1 = Flowlet.Table.rebinds t2)

(* Within one burst (every inter-packet gap below gap_ns) the path never
   changes, whatever the load balancer's current "best" says — the
   CONGA no-reordering guarantee. *)
let prop_flowlet_no_reorder_within_burst =
  QCheck.Test.make ~name:"flowlet never re-steers inside a burst" ~count:100
    QCheck.(
      make ~print:Print.(list (pair int int))
        Gen.(
          list_size (int_range 1 100)
            (pair (int_bound 999) (int_bound 7))))
    (fun ops ->
      let tbl = Flowlet.Table.create ~size:16 ~gap_ns:1_000 () in
      let first = Flowlet.Table.decide tbl ~key:3 ~now:0 ~best:5 in
      let now = ref 0 in
      List.for_all
        (fun (dt, best) ->
          now := !now + dt;
          Flowlet.Table.decide tbl ~key:3 ~now:!now ~best = first)
        ops)

(* --- DCTCP receiver-report wraparound ------------------------------------ *)

let test_dctcp_u32_wrap () =
  check Alcotest.int "no wrap" 0x10 (Dctcp.u32_delta ~last:0x20 ~cur:0x30);
  check Alcotest.int "equal counters" 0
    (Dctcp.u32_delta ~last:0xABCD ~cur:0xABCD);
  (* Crossing 2^32: a plain subtraction would go negative here and the
     [d_total > 0] guard would freeze the sender's rate forever. *)
  check Alcotest.int "wraps across 2^32" 0x30
    (Dctcp.u32_delta ~last:0xFFFF_FFF0 ~cur:0x20);
  check Alcotest.int "one step at the boundary" 1
    (Dctcp.u32_delta ~last:0xFFFF_FFFF ~cur:0x0)

(* --- FCT workload validation --------------------------------------------- *)

let test_fct_rejects_bad_shape () =
  Alcotest.check_raises "fabric_run rejects shape < 1.0"
    (Invalid_argument "Workload: pareto shape must be > 1.0") (fun () ->
      ignore
        (Fct.fabric_run Fct.Ndp_t
           { Fct.fabric_default with Fct.f_shape = 0.9 }))

(* --- Flow-completion harness identity ------------------------------------ *)

(* Flow specs ({!Test_scenario.case}): a 2-shard run cuts the dumbbell's
   core (or the fat-tree's pod links) and must reproduce the sequential
   run flow for flow. *)
let identity_cases =
  List.concat_map
    (fun (topo_name, p) ->
      List.map
        (fun t ->
          let name =
            Printf.sprintf "fct %s %s: 2 shards == 1" topo_name (Fct.transport_name t)
          in
          Alcotest.test_case name `Quick
            (Test_scenario.case
               (Scenario.spec name No_fabric (Flows (t, p)) ~shards:[ 2 ]
                  ~asserts:
                    [ Scenario.holds "flows completed"
                        (fun c -> c.seq.delivered > 0)
                        (fun c -> string_of_int c.seq.delivered) ]
                  ~why:"a flow set completes flows and runs identically on 2 shards")))
        [ Fct.Rcp_star_t; Fct.Aimd_t; Fct.Tcp_t ])
    [
      ("dumbbell", { Fct.dumbbell_default with Fct.f_duration = Time_ns.sec 3 });
      ("fat-tree", { Fct.fabric_default with Fct.f_duration = Time_ns.ms 30 });
    ]

(* Every fat-tree transport at [fabric_default] over a 60 ms horizon:
   (started, completed, MD5 of the comma-joined fingerprint). These
   values predate the dumbbell's fold into [fabric_run]; a change to
   any of them changes the fat-tree workload or a transport. *)
let pinned_fat_tree =
  [
    (Fct.Rcp_star_t, (342, 92, "5f07f08be7c81645678a5e363d1480b3"));
    (Fct.Tcp_t, (342, 324, "fbad9e1c0ed66bf25b181c22ea095b13"));
    (Fct.Dctcp_t, (342, 315, "bb7729e44b5223f572737f03c185c6da"));
    (Fct.Ndp_t, (342, 332, "27be6c3b3cb394ee1c5d09546511b414"));
    (Fct.Tpp_lb_t, (342, 204, "1cc38c46f15558a58050acaaab41a951"));
  ]

let test_fat_tree_pinned () =
  let p = { Fct.fabric_default with Fct.f_duration = Time_ns.ms 60 } in
  List.iter
    (fun (t, want) ->
      let o = Fct.fabric_run t p in
      let md5 =
        Digest.to_hex
          (Digest.string
             (String.concat "," (List.map string_of_int (Fct.fingerprint o))))
      in
      check
        Alcotest.(triple int int string)
        (Fct.transport_name t) want
        (o.Fct.fo_started, o.Fct.fo_completed, md5))
    pinned_fat_tree

(* Probe seq blocks belong to a host, not to the process: a second
   RCP* run after more controllers than one host's u32 echo-seq space
   holds (4095 blocks) have been created elsewhere in the process must
   reproduce the first run exactly. With a process-wide counter the
   later controllers' seqs passed 2^32 and never matched their echoes. *)
let test_rcp_star_repeat_run_after_many_controllers () =
  let params = { Fct.fabric_default with Fct.f_duration = Time_ns.ms 60 } in
  let first = Fct.fingerprint (Fct.fabric_run Fct.Rcp_star_t params) in
  let eng = Engine.create () in
  let chain =
    Topology.chain eng ~num_switches:1 ~hosts_per_switch:2 ~bps:100_000_000
      ~delay:(Time_ns.us 1) ()
  in
  let net = chain.Topology.net in
  let src = chain.Topology.hosts.(0).(0) and dst = chain.Topology.hosts.(0).(1) in
  let config = Rcp_star.default_config ~slot:0 in
  for _ = 1 to 4100 do
    let stack = Stack.create net src in
    let flow =
      Flow.cbr ~src:stack ~dst ~dst_port:9000 ~payload_bytes:100
        ~rate_bps:1_000_000
    in
    ignore (Rcp_star.create stack config ~flow ~dst)
  done;
  let second = Fct.fingerprint (Fct.fabric_run Fct.Rcp_star_t params) in
  check Alcotest.bool "the first run completed flows" true
    (List.nth first 1 > 0);
  check (Alcotest.list Alcotest.int) "same fingerprint" first second

let suite =
  [
    Alcotest.test_case "ndp clean completion with trims" `Quick test_ndp_clean;
    qtest prop_ndp_completes_under_loss;
    Alcotest.test_case "flowlet boundary detection" `Quick test_flowlet_boundary;
    Alcotest.test_case "flowlet table pins within gap" `Quick
      test_flowlet_table_pins;
    qtest prop_flowlet_determinism;
    qtest prop_flowlet_no_reorder_within_burst;
    Alcotest.test_case "dctcp u32 wraparound" `Quick test_dctcp_u32_wrap;
    Alcotest.test_case "fct rejects pareto shape <= 1" `Quick
      test_fct_rejects_bad_shape;
    Alcotest.test_case "rcp* repeat run after 4100 controllers" `Quick
      test_rcp_star_repeat_run_after_many_controllers;
    Alcotest.test_case "fct fat-tree fingerprints pinned" `Quick
      test_fat_tree_pinned;
  ]
  @ identity_cases
