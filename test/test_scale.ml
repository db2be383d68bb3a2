(* Million-host scale properties. Two families:

   1. Route equivalence: aggregated-prefix FIBs (`Pods addressing,
      Connected block routes + an ECMP default up) must forward every
      (src, dst) pair along exactly the path the per-host /32 oracle
      picks, on random fat-trees and leaf-spines and for every ECMP
      key. The walk resolves actions with the same select_path /
      connected_port the dataplane uses, so agreement here is agreement
      about the wire.

   2. The workload draws: sample means that hit the analytic means of
      the flow-size CDFs, and the closed-form arrival rate.

   3. The gate table's build rows: a built fabric's footprint (its
      reachable words) is positive and reads the same on every build. *)

open Tpp

let qtest = QCheck_alcotest.to_alcotest
let bps = 10_000_000_000
let delay = Time_ns.us 1

(* The port the pipeline would pick at [sw] for [dst] under ECMP key
   [key] — Forward / Multipath / Connected resolved exactly as the
   dataplane resolves them. *)
let out_port sw ~dst ~key =
  match Switch.route_action sw dst with
  | None | Some Tables.Drop -> None
  | Some (Tables.Forward p) -> Some p
  | Some (Tables.Multipath ports) -> Some (Tables.select_path ports ~key)
  | Some (Tables.Connected c) -> Tables.connected_port c dst

(* Walk from [src]'s attach switch to [dst]; returns the switch node
   sequence. Fails the test on a loop, a missing route, or a route
   pointing off the fabric. *)
let walk net ~(src : Net.host) ~(dst : Net.host) ~key =
  let rec go node hops count =
    if count > 16 then Alcotest.fail "path did not converge within 16 hops"
    else if node = dst.Net.node_id then List.rev hops
    else begin
      let sw = Net.switch net node in
      match out_port sw ~dst:dst.Net.ip ~key with
      | None -> Alcotest.failf "no route for %s at node %d"
                  (Ipv4.Addr.to_string dst.Net.ip) node
      | Some port -> (
        match
          List.find_opt (fun (p, _, _) -> p = port) (Net.neighbors net node)
        with
        | None -> Alcotest.failf "route points at unconnected port %d" port
        | Some (_, peer, _) -> go peer (node :: hops) (count + 1))
    end
  in
  match Net.neighbors net src.Net.node_id with
  | [ (_, attach, _) ] -> go attach [] 0
  | _ -> Alcotest.fail "host not singly attached"

(* Oracle and aggregated fabrics are built with identical construction
   order, so node ids correspond 1:1 and paths compare directly. *)
let check_pair ~oracle ~agg ~src_i ~dst_i ~hosts_o ~hosts_a =
  let so = hosts_o.(src_i) and d_o = hosts_o.(dst_i) in
  let sa = hosts_a.(src_i) and da = hosts_a.(dst_i) in
  for key = 0 to 3 do
    let po = walk oracle ~src:so ~dst:d_o ~key in
    let pa = walk agg ~src:sa ~dst:da ~key in
    if po <> pa then
      Alcotest.failf
        "paths diverge for host %d -> %d key %d: oracle [%s] aggregated [%s]"
        src_i dst_i key
        (String.concat ";" (List.map string_of_int po))
        (String.concat ";" (List.map string_of_int pa))
  done

let test_fat_tree_equiv =
  QCheck.Test.make
    ~name:"aggregated fat-tree forwards exactly like the /32 oracle" ~count:6
    QCheck.(make Gen.(pair (oneofl [ 2; 4; 6; 8 ]) (int_bound 1_000_000)))
    (fun (k, salt) ->
      let oracle =
        Topology.fat_tree (Engine.create ()) ~addressing:`Pods ~fib:`Host32 ~k
          ~bps ~delay ()
      in
      let agg =
        Topology.fat_tree (Engine.create ()) ~addressing:`Pods
          ~fib:`Aggregated ~k ~bps ~delay ()
      in
      let hosts_o = oracle.Topology.f_hosts
      and hosts_a = agg.Topology.f_hosts in
      let n = Array.length hosts_o in
      (* All pairs up to k=4; a salted stride sample of pairs beyond. *)
      let stride = if n <= 16 then 1 else 7 in
      let off = salt mod stride in
      let pair = ref off in
      while !pair < n * n do
        let src_i = !pair / n and dst_i = !pair mod n in
        if src_i <> dst_i then
          check_pair ~oracle:oracle.Topology.f_net ~agg:agg.Topology.f_net
            ~src_i ~dst_i ~hosts_o ~hosts_a;
        pair := !pair + stride
      done;
      true)

let test_leaf_spine_equiv =
  QCheck.Test.make
    ~name:"aggregated leaf-spine forwards exactly like the /32 oracle"
    ~count:8
    QCheck.(
      make
        Gen.(
          triple (2 -- 8) (1 -- 4) (1 -- 8)))
    (fun (leaves, spines, hosts_per_leaf) ->
      let build () =
        Topology.leaf_spine (Engine.create ()) ~leaves ~spines ~hosts_per_leaf
          ~bps ~delay ()
      in
      let agg = build () in
      (* The oracle: the same fabric with per-host /32s overlaid — the
         longer prefixes win every lookup, so this is install_routes'
         grouped-BFS view of the identical topology. *)
      let oracle = build () in
      Topology.install_routes ~ecmp:true oracle.Topology.ls_net;
      let hosts_o = oracle.Topology.ls_hosts
      and hosts_a = agg.Topology.ls_hosts in
      let n = Array.length hosts_o in
      for src_i = 0 to n - 1 do
        for dst_i = 0 to n - 1 do
          if src_i <> dst_i then
            check_pair ~oracle:oracle.Topology.ls_net ~agg:agg.Topology.ls_net
              ~src_i ~dst_i ~hosts_o ~hosts_a
        done
      done;
      true)

(* Structural FIB census: aggregation means O(1) entries everywhere,
   independent of host count. *)
let test_fib_size () =
  let ft =
    Topology.fat_tree (Engine.create ()) ~addressing:`Pods ~fib:`Aggregated
      ~k:8 ~bps ~delay ()
  in
  List.iter
    (fun (_, sw) ->
      let n = Switch.l3_size sw in
      if n > 2 then
        Alcotest.failf "aggregated fat-tree switch holds %d L3 entries" n)
    (Net.switches ft.Topology.f_net);
  let ls =
    Topology.leaf_spine (Engine.create ()) ~leaves:16 ~spines:4
      ~hosts_per_leaf:32 ~bps ~delay ()
  in
  List.iter
    (fun (_, sw) ->
      let n = Switch.l3_size sw in
      if n > 2 then
        Alcotest.failf "aggregated leaf-spine switch holds %d L3 entries" n)
    (Net.switches ls.Topology.ls_net)

(* ---- workload engine ---------------------------------------------- *)

(* Empirical means vs the analytic means the load targeting relies on.
   Fixed seeds make these exact regressions, not statistical ones; the
   tolerances (far above the standard error at 100k draws) document the
   expected convergence. *)
let test_sample_means () =
  let check name mix tol =
    let rng = Rng.create ~seed:42 in
    let n = 100_000 in
    let sum = ref 0.0 in
    for _ = 1 to n do
      sum := !sum +. float_of_int (Workload.sample_bytes rng mix)
    done;
    let mean = !sum /. float_of_int n in
    let want = Workload.mean_bytes mix in
    let rel = Float.abs (mean -. want) /. want in
    if rel > tol then
      Alcotest.failf "%s: sample mean %.0f vs analytic %.0f (%.1f%% off)" name
        mean want (100.0 *. rel)
  in
  check "websearch" Workload.Websearch 0.10;
  check "datamining" Workload.Datamining 0.20;
  check "pareto" (Workload.Pareto { shape = 2.5; mean_bytes = 10_000.0 }) 0.05;
  check "fixed" (Workload.Fixed 1234) 0.0

let test_arrival_rate () =
  (* load * bps / (8 * mean): exact for the Fixed mix. *)
  let rate =
    Workload.arrival_rate ~load:0.5 ~link_bps:10_000_000_000
      ~mix:(Workload.Fixed 1_000_000)
  in
  Alcotest.(check (float 1e-6)) "arrival rate" 625.0 rate;
  Alcotest.check_raises "zero load rejected"
    (Invalid_argument "Workload: load must be positive") (fun () ->
      ignore
        (Workload.arrival_rate ~load:0.0 ~link_bps:1 ~mix:(Workload.Fixed 1)))

let build_footprints () =
  List.iter
    (fun spec ->
      if spec.Gates.traffic = Gates.Build then begin
        let read () = Gates.metric "bytes_per_host" (Gates.run spec ~shards:0) in
        let first = read () in
        Alcotest.(check bool) (spec.Gates.name ^ ": positive") true (first > 0.0);
        Alcotest.(check (float 0.0)) (spec.Gates.name ^ ": second build") first (read ())
      end)
    (Gates.table ~smoke:true)

let suite =
  [
    qtest test_fat_tree_equiv;
    qtest test_leaf_spine_equiv;
    Alcotest.test_case "aggregated FIBs stay O(1) per switch" `Quick
      test_fib_size;
    Alcotest.test_case "workload: sample means match analytic" `Quick
      test_sample_means;
    Alcotest.test_case "workload: arrival rate closed form" `Quick
      test_arrival_rate;
    Alcotest.test_case "build rows: positive, repeatable bytes/host" `Quick
      build_footprints;
  ]
