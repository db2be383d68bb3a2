module Time_ns = Tpp_util.Time_ns
module Switch = Tpp_asic.Switch
module Tables = Tpp_asic.Tables
module Ipv4 = Tpp_packet.Ipv4

let next_hop_ports net ~dest =
  (* BFS from the destination host over the whole node graph. *)
  let n = Net.node_count net in
  let dist = Array.make n max_int in
  dist.(dest.Net.node_id) <- 0;
  let q = Queue.create () in
  Queue.push dest.Net.node_id q;
  let rec bfs () =
    match Queue.take_opt q with
    | None -> ()
    | Some u ->
      List.iter
        (fun (_, v, _) ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.push v q
          end)
        (Net.neighbors net u);
      bfs ()
  in
  bfs ();
  List.filter_map
    (fun (sid, _) ->
      if dist.(sid) < max_int && dist.(sid) > 0 then begin
        (* All ports whose peer is strictly closer to the destination,
           in ascending port order. *)
        let candidates =
          List.filter_map
            (fun (port, peer, _) ->
              if dist.(peer) = dist.(sid) - 1 then Some port else None)
            (Net.neighbors net sid)
          |> List.sort Int.compare
        in
        if candidates = [] then None else Some (sid, candidates)
      end
      else None)
    (Net.switches net)

let install_dest_on_switch net ~dest ~ecmp ~version ~entry_id sid ports =
  let sw = Net.switch net sid in
  match ports with
  | [] -> ()
  | lowest :: _ ->
    (if ecmp then
       Switch.install_multipath_route sw
         (Ipv4.Prefix.host dest.Net.ip)
         ~ports ~entry_id ~version
     else
       Switch.install_route sw
         (Ipv4.Prefix.host dest.Net.ip)
         ~port:lowest ~entry_id ~version);
    Switch.install_l2 sw dest.Net.mac ~port:lowest ~entry_id ~version

(* Install order (hosts in creation order, switches in node-id order per
   host) and the per-switch entry-id counters reproduce exactly what a
   [next_hop_ports]-per-host loop would install — but the BFS runs once
   per {e attach switch}, not once per host, over preallocated scratch.
   The two views agree because a host hangs off exactly one switch:
   every distance the per-host BFS computes is the attach switch's
   distance plus one, so "peer one hop closer to the host" is "peer one
   hop closer to the attach switch" everywhere except at the attach
   switch itself, where the only candidate is the host's own port. *)
let install_routes ?(ecmp = false) ?(version = 1) net =
  let entry_counters = Hashtbl.create 8 in
  let next_entry_id sid =
    let c = match Hashtbl.find_opt entry_counters sid with Some c -> c | None -> 0 in
    Hashtbl.replace entry_counters sid (c + 1);
    c + 1
  in
  let n = Net.node_count net in
  let bfs_queue = Array.make (max n 1) 0 in
  let dist_cache : (int, int array) Hashtbl.t = Hashtbl.create 16 in
  let dist_from src =
    match Hashtbl.find_opt dist_cache src with
    | Some dist -> dist
    | None ->
      let dist = Array.make n max_int in
      dist.(src) <- 0;
      bfs_queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = bfs_queue.(!head) in
        incr head;
        Net.iter_ports net u (fun ~port:_ ~peer ~peer_port:_ ->
            if dist.(peer) = max_int then begin
              dist.(peer) <- dist.(u) + 1;
              bfs_queue.(!tail) <- peer;
              incr tail
            end)
      done;
      Hashtbl.add dist_cache src dist;
      dist
  in
  let switches = Net.switches net in
  let candidates = ref [] in
  List.iter
    (fun dest ->
      match Net.neighbors net dest.Net.node_id with
      | [] -> () (* unattached host: nothing can route to it *)
      | (_, attach, attach_port) :: _ ->
        let dist = dist_from attach in
        List.iter
          (fun (sid, _) ->
            if sid = attach then
              install_dest_on_switch net ~dest ~ecmp ~version
                ~entry_id:(next_entry_id sid) sid [ attach_port ]
            else if dist.(sid) < max_int then begin
              let d = dist.(sid) in
              candidates := [];
              Net.iter_ports net sid (fun ~port ~peer ~peer_port:_ ->
                  if dist.(peer) = d - 1 then candidates := port :: !candidates);
              match List.rev !candidates with
              | [] -> ()
              | ports ->
                install_dest_on_switch net ~dest ~ecmp ~version
                  ~entry_id:(next_entry_id sid) sid ports
            end)
          switches)
    (Net.hosts net);
  List.iter (fun (_, sw) -> Switch.set_version sw version) switches

type chain = {
  net : Net.t;
  switch_ids : int array;
  hosts : Net.host array array;
}

let chain eng ~num_switches ~hosts_per_switch ~bps ~delay () =
  if num_switches < 1 then invalid_arg "Topology.chain: num_switches";
  let net = Net.create eng in
  let switch_ids =
    Array.init num_switches (fun i ->
        Net.add_switch net
          (Switch.create ~id:(i + 1) ~num_ports:(2 + hosts_per_switch) ()))
  in
  for i = 0 to num_switches - 2 do
    Net.connect net (switch_ids.(i), 1) (switch_ids.(i + 1), 0) ~bps ~delay
  done;
  let hosts =
    Array.init num_switches (fun i ->
        Array.init hosts_per_switch (fun j ->
            let h = Net.add_host net ~name:(Printf.sprintf "h%d_%d" i j) in
            Net.connect net (h.Net.node_id, 0) (switch_ids.(i), 2 + j) ~bps ~delay;
            h))
  in
  install_routes net;
  { net; switch_ids; hosts }

type dumbbell = {
  d_net : Net.t;
  left_switch : int;
  right_switch : int;
  senders : Net.host array;
  receivers : Net.host array;
}

let dumbbell eng ~pairs ~core_bps ~edge_bps ~delay () =
  if pairs < 1 then invalid_arg "Topology.dumbbell: pairs";
  let net = Net.create eng in
  let left = Net.add_switch net (Switch.create ~id:1 ~num_ports:(1 + pairs) ()) in
  let right = Net.add_switch net (Switch.create ~id:2 ~num_ports:(1 + pairs) ()) in
  Net.connect net (left, 0) (right, 0) ~bps:core_bps ~delay;
  let senders =
    Array.init pairs (fun i ->
        let h = Net.add_host net ~name:(Printf.sprintf "src%d" i) in
        Net.connect net (h.Net.node_id, 0) (left, 1 + i) ~bps:edge_bps ~delay;
        h)
  in
  let receivers =
    Array.init pairs (fun i ->
        let h = Net.add_host net ~name:(Printf.sprintf "dst%d" i) in
        Net.connect net (h.Net.node_id, 0) (right, 1 + i) ~bps:edge_bps ~delay;
        h)
  in
  install_routes net;
  { d_net = net; left_switch = left; right_switch = right; senders; receivers }

type diamond = {
  m_net : Net.t;
  ingress : int;
  upper : int;
  lower : int;
  egress : int;
  src_hosts : Net.host array;
  dst_hosts : Net.host array;
}

let diamond eng ~hosts_per_side ~bps ~delay () =
  if hosts_per_side < 1 then invalid_arg "Topology.diamond: hosts_per_side";
  let net = Net.create eng in
  let mk id = Net.add_switch net (Switch.create ~id ~num_ports:(2 + hosts_per_side) ()) in
  let a = mk 1 and b = mk 2 and c = mk 3 and d = mk 4 in
  (* A: port 0 -> B, port 1 -> C; D: port 0 -> B, port 1 -> C. *)
  Net.connect net (a, 0) (b, 0) ~bps ~delay;
  Net.connect net (a, 1) (c, 0) ~bps ~delay;
  Net.connect net (d, 0) (b, 1) ~bps ~delay;
  Net.connect net (d, 1) (c, 1) ~bps ~delay;
  let attach sw base prefix =
    Array.init hosts_per_side (fun i ->
        let h = Net.add_host net ~name:(Printf.sprintf "%s%d" prefix i) in
        Net.connect net (h.Net.node_id, 0) (sw, base + i) ~bps ~delay;
        h)
  in
  let src_hosts = attach a 2 "src" in
  let dst_hosts = attach d 2 "dst" in
  install_routes net;
  { m_net = net; ingress = a; upper = b; lower = c; egress = d; src_hosts; dst_hosts }

type random_topology = {
  r_net : Net.t;
  r_switch_ids : int array;
  r_hosts : Net.host array;
}

let random eng ~switches ~hosts ~extra_links ~seed ?(ecmp = false) ~bps ~delay () =
  if switches < 1 then invalid_arg "Topology.random: switches";
  if hosts < 2 then invalid_arg "Topology.random: need at least 2 hosts";
  let rng = Tpp_util.Rng.create ~seed in
  let net = Net.create eng in
  (* Port budget: spanning tree + extra links + attached hosts could all
     land on one switch; size generously. *)
  let num_ports = switches + extra_links + hosts + 1 in
  let switch_ids =
    Array.init switches (fun i ->
        Net.add_switch net (Switch.create ~id:(i + 1) ~num_ports ()))
  in
  let next_port = Array.make switches 0 in
  let take_port i =
    let p = next_port.(i) in
    next_port.(i) <- p + 1;
    p
  in
  let linked = Hashtbl.create 16 in
  let connect_switches a b =
    let key = (min a b, max a b) in
    if a <> b && not (Hashtbl.mem linked key) then begin
      Hashtbl.replace linked key ();
      Net.connect net
        (switch_ids.(a), take_port a)
        (switch_ids.(b), take_port b)
        ~bps ~delay;
      true
    end
    else false
  in
  (* Random spanning tree: attach each new switch to a random earlier one. *)
  for i = 1 to switches - 1 do
    ignore (connect_switches i (Tpp_util.Rng.int rng i))
  done;
  (* Extra redundant links (skipped when the draw collides). *)
  if switches > 1 then
    for _ = 1 to extra_links do
      ignore
        (connect_switches
           (Tpp_util.Rng.int rng switches)
           (Tpp_util.Rng.int rng switches))
    done;
  let r_hosts =
    Array.init hosts (fun h ->
        let s = h mod switches in
        let host = Net.add_host net ~name:(Printf.sprintf "rh%d" h) in
        Net.connect net (host.Net.node_id, 0) (switch_ids.(s), take_port s) ~bps ~delay;
        host)
  in
  install_routes ~ecmp net;
  { r_net = net; r_switch_ids = switch_ids; r_hosts }

type fat_tree = {
  f_net : Net.t;
  k : int;
  core_ids : int array;
  agg_ids : int array array;
  edge_ids : int array array;
  f_hosts : Net.host array;
}

(* 10.pod.edge.(2 + slot): the Al-Fares fat-tree address plan. Each
   octet boundary is an aggregation boundary, which is what lets the
   aggregated FIB mode route with O(1) entries per switch. *)
let pod_ip ~pod ~edge ~slot =
  Ipv4.Addr.of_int (0x0A000000 lor (pod lsl 16) lor (edge lsl 8) lor (2 + slot))

let prefix_of ~base ~len = Ipv4.Prefix.make (Ipv4.Addr.of_int base) len

(* The two non-host entries of an aggregated switch: a Connected block
   route covering everything below it, and (unless it is a core switch,
   whose Connected route covers the world) a default route up. *)
let install_up sw ~ecmp ~half ~k =
  let ups = List.init (k - half) (fun i -> half + i) in
  if ecmp then
    Switch.install_multipath_route sw
      (prefix_of ~base:0 ~len:0)
      ~ports:ups ~entry_id:2 ~version:1
  else
    Switch.install_route sw (prefix_of ~base:0 ~len:0) ~port:half ~entry_id:2
      ~version:1

(* A distinct, well-mixed ECMP salt per switch (xorshift*-style mix of
   the node id, constants kept within 62 bits). Without one, every hop
   keys ECMP identically and the picks polarise: the flows an agg
   switch received *because* they hashed to index i all pick core
   uplink i too, oversubscribing it k/2-fold while its siblings idle.
   Replica fabrics (the /32 differential oracle, per-shard copies)
   assign identical node ids, so salted paths stay bit-identical. *)
let ecmp_salt_of node =
  let z = (node + 0x1234567) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 29)) * 0x2545F4914F6CDD1D in
  (z lxor (z lsr 32)) land max_int

let fat_tree eng ?wire_check:_ ?(ecmp = true) ?(addressing = `Counter)
    ?(fib = `Host32) ~k ~bps ~delay () =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Topology.fat_tree: k must be even, >= 2";
  if fib = `Aggregated && addressing <> `Pods then
    invalid_arg "Topology.fat_tree: aggregated FIBs need `Pods addressing";
  if addressing = `Pods && k > 256 then
    invalid_arg "Topology.fat_tree: `Pods addressing needs k <= 256";
  let half = k / 2 in
  (* (k^2 + k^2/4) k-port switches plus k^3/4 single-port hosts. *)
  let switches = (k * k) + (half * half) in
  let hosts = k * half * half in
  let net =
    Net.create ~nodes:(switches + hosts) ~ports:((switches * k) + hosts) eng
  in
  let next_switch_id = ref 0 in
  let mk ~num_ports =
    incr next_switch_id;
    let sw = Switch.create ~id:!next_switch_id ~num_ports () in
    let node = Net.add_switch net sw in
    Switch.set_ecmp_salt sw (ecmp_salt_of node);
    node
  in
  let core_ids = Array.init (half * half) (fun _ -> mk ~num_ports:k) in
  let agg_ids = Array.init k (fun _ -> Array.init half (fun _ -> mk ~num_ports:k)) in
  let edge_ids = Array.init k (fun _ -> Array.init half (fun _ -> mk ~num_ports:k)) in
  (* Hosts, pod-major: pod p, edge e, slot h. *)
  let f_hosts =
    Array.init (k * half * half) (fun i ->
        let pod = i / (half * half) in
        let rest = i mod (half * half) in
        let edge = rest / half and slot = rest mod half in
        let ip =
          match addressing with
          | `Counter -> None
          | `Pods -> Some (pod_ip ~pod ~edge ~slot)
        in
        let host =
          Net.add_host ?ip net ~name:(Printf.sprintf "h%d_%d_%d" pod edge slot)
        in
        Net.connect net (host.Net.node_id, 0) (edge_ids.(pod).(edge), slot) ~bps ~delay;
        host)
  in
  for pod = 0 to k - 1 do
    for edge = 0 to half - 1 do
      for agg = 0 to half - 1 do
        (* Edge uplink [half+agg] to aggregation switch [agg], which
           faces its pod's edges on its down ports. *)
        Net.connect net (edge_ids.(pod).(edge), half + agg) (agg_ids.(pod).(agg), edge)
          ~bps ~delay
      done
    done;
    for agg = 0 to half - 1 do
      for up = 0 to half - 1 do
        let core = (agg * half) + up in
        Net.connect net (agg_ids.(pod).(agg), half + up) (core_ids.(core), pod) ~bps
          ~delay
      done
    done
  done;
  (match fib with
  | `Host32 -> install_routes ~ecmp net
  | `Aggregated ->
    (* O(1) FIB entries per switch; forwarding is provably equivalent to
       the /32 oracle (same candidate port sets at every hop — DESIGN
       §15), which the scale bench and QCheck suite verify. *)
    for pod = 0 to k - 1 do
      for edge = 0 to half - 1 do
        let sw = Net.switch net edge_ids.(pod).(edge) in
        Switch.install_connected_route sw
          (prefix_of ~base:(0x0A000000 lor (pod lsl 16) lor (edge lsl 8)) ~len:24)
          ~connected:
            {
              Tables.c_base = 0x0A000000 lor (pod lsl 16) lor (edge lsl 8) lor 2;
              c_shift = 0;
              c_port_base = 0;
              c_count = half;
            }
          ~entry_id:1 ~version:1;
        install_up sw ~ecmp ~half ~k;
        Switch.set_version sw 1
      done;
      for agg = 0 to half - 1 do
        let sw = Net.switch net agg_ids.(pod).(agg) in
        Switch.install_connected_route sw
          (prefix_of ~base:(0x0A000000 lor (pod lsl 16)) ~len:16)
          ~connected:
            {
              Tables.c_base = 0x0A000000 lor (pod lsl 16);
              c_shift = 8;
              c_port_base = 0;
              c_count = half;
            }
          ~entry_id:1 ~version:1;
        install_up sw ~ecmp ~half ~k;
        Switch.set_version sw 1
      done
    done;
    Array.iter
      (fun cid ->
        let sw = Net.switch net cid in
        Switch.install_connected_route sw
          (prefix_of ~base:0x0A000000 ~len:8)
          ~connected:
            { Tables.c_base = 0x0A000000; c_shift = 16; c_port_base = 0; c_count = k }
          ~entry_id:1 ~version:1;
        Switch.set_version sw 1)
      core_ids);
  { f_net = net; k; core_ids; agg_ids; edge_ids; f_hosts }

type leaf_spine = {
  ls_net : Net.t;
  ls_leaf_ids : int array;
  ls_spine_ids : int array;
  ls_hosts : Net.host array;
  ls_leaves : int;
  ls_spines : int;
  ls_hosts_per_leaf : int;
}

let leaf_spine eng ?(ecmp = true) ~leaves ~spines
    ~hosts_per_leaf ~bps ~delay () =
  if leaves < 1 || leaves > 0x10000 then
    invalid_arg "Topology.leaf_spine: need 1 <= leaves <= 65536";
  if spines < 1 then invalid_arg "Topology.leaf_spine: spines";
  if hosts_per_leaf < 1 || hosts_per_leaf > 253 then
    invalid_arg "Topology.leaf_spine: need 1 <= hosts_per_leaf <= 253";
  let hosts = leaves * hosts_per_leaf in
  let net =
    Net.create
      ~nodes:(leaves + spines + hosts)
      ~ports:((leaves * (hosts_per_leaf + spines)) + (spines * leaves) + hosts)
      eng
  in
  let leaf_ids =
    Array.init leaves (fun l ->
        let sw = Switch.create ~id:(l + 1) ~num_ports:(hosts_per_leaf + spines) () in
        let node = Net.add_switch net sw in
        Switch.set_ecmp_salt sw (ecmp_salt_of node);
        node)
  in
  let spine_ids =
    Array.init spines (fun s ->
        Net.add_switch net (Switch.create ~id:(leaves + s + 1) ~num_ports:leaves ()))
  in
  (* 10.(leaf / 256).(leaf mod 256).(2 + slot): one /24 per leaf. *)
  let host_ip ~leaf ~slot = Ipv4.Addr.of_int (0x0A000000 lor (leaf lsl 8) lor (2 + slot)) in
  let ls_hosts =
    Array.init (leaves * hosts_per_leaf) (fun i ->
        let leaf = i / hosts_per_leaf and slot = i mod hosts_per_leaf in
        let host = Net.add_host net ~ip:(host_ip ~leaf ~slot) in
        Net.connect net (host.Net.node_id, 0) (leaf_ids.(leaf), slot) ~bps ~delay;
        host)
  in
  for leaf = 0 to leaves - 1 do
    for s = 0 to spines - 1 do
      Net.connect net (leaf_ids.(leaf), hosts_per_leaf + s) (spine_ids.(s), leaf) ~bps
        ~delay
    done
  done;
  Array.iteri
    (fun leaf lid ->
      let sw = Net.switch net lid in
      Switch.install_connected_route sw
        (prefix_of ~base:(0x0A000000 lor (leaf lsl 8)) ~len:24)
        ~connected:
          {
            Tables.c_base = 0x0A000000 lor (leaf lsl 8) lor 2;
            c_shift = 0;
            c_port_base = 0;
            c_count = hosts_per_leaf;
          }
        ~entry_id:1 ~version:1;
      let ups = List.init spines (fun s -> hosts_per_leaf + s) in
      (if ecmp then
         Switch.install_multipath_route sw (prefix_of ~base:0 ~len:0) ~ports:ups
           ~entry_id:2 ~version:1
       else
         Switch.install_route sw (prefix_of ~base:0 ~len:0) ~port:hosts_per_leaf
           ~entry_id:2 ~version:1);
      Switch.set_version sw 1)
    leaf_ids;
  Array.iter
    (fun sid ->
      let sw = Net.switch net sid in
      Switch.install_connected_route sw
        (prefix_of ~base:0x0A000000 ~len:8)
        ~connected:
          { Tables.c_base = 0x0A000000; c_shift = 8; c_port_base = 0; c_count = leaves }
        ~entry_id:1 ~version:1;
      Switch.set_version sw 1)
    spine_ids;
  {
    ls_net = net;
    ls_leaf_ids = leaf_ids;
    ls_spine_ids = spine_ids;
    ls_hosts;
    ls_leaves = leaves;
    ls_spines = spines;
    ls_hosts_per_leaf = hosts_per_leaf;
  }
