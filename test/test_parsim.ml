(* The parallel (sharded, conservative PDES) engine: partitioning
   sanity, and — the load-bearing property — that a run sharded across
   1, 2 or 4 domains produces exactly the sequential engine's event,
   delivery and drop counts and final switch register state. *)

open Tpp

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let collect_src = "PUSH [Switch:SwitchID]\nPUSH [Link:QueueSize]\n"

(* --- workload: every host streams TPP-tagged UDP to rotating peers --- *)

(* Uniform frame sizes keep same-instant events commutative (the
   determinism precondition, DESIGN.md §8). *)
let blast ~packets ~gap_ns ~payload_bytes ~owns net =
  let hosts = Array.of_list (Net.hosts net) in
  let n = Array.length hosts in
  let eng = Net.engine net in
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:32 collect_src) in
  let payload = Bytes.create payload_bytes in
  for i = 0 to n - 1 do
    let src = hosts.(i) in
    if owns src.Net.node_id then
      for j = 0 to packets - 1 do
        let t = 1 + (i * 37) + (j * gap_ns) in
        Engine.at eng t (fun () ->
            let dst = hosts.((i + 1 + (j mod (n - 1))) mod n) in
            let frame =
              Frame.udp_frame ~src_mac:src.Net.mac ~dst_mac:dst.Net.mac
                ~src_ip:src.Net.ip ~dst_ip:dst.Net.ip ~src_port:(4000 + i)
                ~dst_port:9 ~tpp:(Prog.copy tpp) ~payload ()
            in
            Net.host_send net src frame)
      done
  done

(* --- switch register fingerprints ----------------------------------- *)

module SS = Switch_state

let sram_hash (st : SS.t) =
  Array.fold_left (fun acc w -> (acc * 1_000_003) + w) 0 st.SS.sram

let port_fp (p : SS.Port.t) =
  [
    p.SS.Port.rx_bytes; p.rx_pkts; p.tx_bytes; p.tx_pkts; p.drops;
    p.offered_bytes; p.queue_bytes;
  ]

let switch_fp id sw =
  let st = Switch.state sw in
  ( id,
    [
      st.SS.packets_seen; st.SS.bytes_seen; st.SS.drops; st.SS.tpp_execs;
      st.SS.tpp_faults; st.SS.tpp_cycles; sram_hash st;
    ]
    @ List.concat_map port_fp (Array.to_list st.SS.ports) )

let net_fp ~owns net =
  Net.switches net
  |> List.filter (fun (id, _) -> owns id)
  |> List.map (fun (id, sw) -> switch_fp id sw)

let total_drops ~owns net =
  Net.switches net
  |> List.filter (fun (id, _) -> owns id)
  |> List.fold_left (fun a (_, sw) -> a + (Switch.state sw).SS.drops) 0

(* Sequential reference: same builder and traffic, one engine. *)
let run_sequential ~build ~traffic ~until =
  let eng = Engine.create () in
  let net = build eng in
  traffic ~owns:(fun _ -> true) net;
  Engine.run eng ~until;
  ( Engine.events_processed eng,
    Net.frames_delivered net,
    total_drops ~owns:(fun _ -> true) net,
    net_fp ~owns:(fun _ -> true) net )

let run_sharded ~shards ~build ~traffic ~until =
  let stats, fps =
    Parsim.run ~shards ~until ~build
      ~setup:(fun ~shard:_ ~owns net -> traffic ~owns net)
      ~collect:(fun ~shard:_ ~owns net ->
        (total_drops ~owns net, net_fp ~owns net))
      ()
  in
  let drops = Array.fold_left (fun a (d, _) -> a + d) 0 fps in
  let fp =
    Array.to_list fps
    |> List.concat_map snd
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (stats, drops, fp)

let fp_t = Alcotest.(list (pair int (list int)))

let check_matches_sequential ~build ~traffic ~until shard_counts =
  let seq_events, seq_delivered, seq_drops, seq_fp =
    run_sequential ~build ~traffic ~until
  in
  List.iter
    (fun shards ->
      let stats, drops, fp = run_sharded ~shards ~build ~traffic ~until in
      let lbl s = Printf.sprintf "%s (%d shards)" s shards in
      check Alcotest.int (lbl "events") seq_events stats.Parsim.events;
      check Alcotest.int (lbl "delivered") seq_delivered stats.Parsim.delivered;
      check Alcotest.int (lbl "drops") seq_drops drops;
      check fp_t (lbl "switch registers") seq_fp fp;
      (* These workloads quiesce before the horizon, so every frame
         that crossed a boundary must have returned to its receiving
         shard's pool (the cross-domain leak fix). *)
      check Alcotest.int (lbl "boundary pool drained") 0
        stats.Parsim.boundary_outstanding)
    shard_counts;
  (seq_delivered, seq_drops)

(* --- partitioning --------------------------------------------------- *)

let test_plan_fat_tree () =
  let eng = Engine.create () in
  let ft =
    Topology.fat_tree eng ~k:4 ~bps:1_000_000_000 ~delay:(Time_ns.us 1) ()
  in
  let net = ft.Topology.f_net in
  let plan = Parsim.Plan.make net ~shards:4 in
  check Alcotest.int "lookahead = min link delay" (Time_ns.us 1)
    plan.Parsim.Plan.lookahead;
  check Alcotest.bool "boundary links exist" true (plan.Parsim.Plan.cut_links > 0);
  Array.iter
    (fun w -> check Alcotest.bool "every shard loaded" true (w > 0))
    plan.Parsim.Plan.shard_weight;
  (* Hosts are pinned with their edge (ToR) switch. *)
  List.iter
    (fun h ->
      let id = h.Net.node_id in
      match Net.neighbors net id with
      | (_, tor, _) :: _ ->
        check Alcotest.int "host rides its ToR's shard"
          plan.Parsim.Plan.owner.(tor) plan.Parsim.Plan.owner.(id)
      | [] -> Alcotest.fail "unattached host")
    (Net.hosts net)

let test_sharding_hooks () =
  let eng = Engine.create () in
  let net = Net.create eng in
  let sw = Net.add_switch net (Switch.create ~id:1 ~num_ports:2 ()) in
  let a = Net.add_host net ~name:"a" in
  let b = Net.add_host net ~name:"b" in
  Net.connect net (a.Net.node_id, 0) (sw, 0) ~bps:1_000_000 ~delay:5;
  Net.connect net (b.Net.node_id, 0) (sw, 1) ~bps:1_000_000 ~delay:7;
  check Alcotest.int "link delay" 7 (Net.link_delay net (b.Net.node_id, 0));
  check Alcotest.bool "unsharded owns all" true (Net.owns net sw);
  let owner = [| 0; 0; 1 |] in  (* b lives on another shard *)
  Net.set_sharding net ~owner ~shard:0
    ~emit:(fun ~arrival:_ ~emitted:_ ~dst_node:_ ~dst_port:_ _ -> ());
  check Alcotest.bool "owns local" true (Net.owns net a.Net.node_id);
  check Alcotest.bool "foreign node" false (Net.owns net b.Net.node_id);
  let frame =
    Frame.udp_frame ~src_mac:b.Net.mac ~dst_mac:a.Net.mac ~src_ip:b.Net.ip
      ~dst_ip:a.Net.ip ~src_port:1 ~dst_port:2 ~payload:(Bytes.create 8) ()
  in
  Alcotest.check_raises "foreign host_send rejected"
    (Invalid_argument "Net.host_send: host is owned by another shard")
    (fun () -> Net.host_send net b frame)

(* --- sequential equivalence ----------------------------------------- *)

(* Each spec's sharded runs must reproduce its sequential run: event,
   delivery and fault counts, every switch register and every host's
   arrival times ({!Test_scenario.case}). *)

let dumbbell_drops =
  Scenario.spec "dumbbell-drops" (Dumbbell 5) Collect ~packets:60 ~queue_limit:3_000
    ~shards:[ 1; 2; 4 ]
    ~why:"bursts onto a dumbbell's shallow core queue tail-drop, identically sharded"
    ~asserts:
      [ Scenario.holds "congestion dropped frames"
          (fun c -> (Test_scenario.drained c.seq).switch_drops > 0)
          (fun c -> string_of_int (Test_scenario.drained c.seq).switch_drops) ]

let fat_tree =
  Scenario.spec "fat-tree" (Fat_tree 4) Collect ~packets:20 ~shards:[ 2; 4; 8 ]
    ~why:"a k=4 fat-tree forwards identically on 2, 4 and 8 shards"
    ~asserts:
      [ Scenario.holds "every frame delivered"
          (fun c -> c.seq.delivered = 16 * 20)
          (fun c -> Printf.sprintf "%d of %d" c.seq.delivered (16 * 20)) ]

let more_shards =
  Scenario.spec "more-shards" (Dumbbell 2) Pooled ~packets:8 ~shards:[ 5 ]
    ~why:"more shards than switches: the idle ones wait at the barriers, the run agrees"

(* --- barrier -------------------------------------------------------- *)

let test_barrier_poison_mid_spin () =
  (* [spin:max_int] forces the waiter to stay in the spin loop forever
     (it would never fall through to the condvar), so releasing it via
     [poison] proves spinners observe the poison flag mid-spin — on any
     machine, including 1-core CI where the default heuristic would
     pick spin = 0. *)
  let b = Parsim.Barrier.create ~spin:max_int 2 in
  let waiter =
    Domain.spawn (fun () ->
        match Parsim.Barrier.await b with
        | () -> false
        | exception Parsim.Barrier.Poisoned -> true)
  in
  (* Let the waiter reach its spin loop (await's entry check covers the
     race if poison wins). *)
  for _ = 1 to 50_000 do
    Domain.cpu_relax ()
  done;
  Parsim.Barrier.poison b;
  check Alcotest.bool "spinning waiter released with Poisoned" true
    (Domain.join waiter);
  check Alcotest.bool "poison is sticky for future waiters" true
    (match Parsim.Barrier.await b with
    | () -> false
    | exception Parsim.Barrier.Poisoned -> true)

(* --- boundary chunk codec ------------------------------------------- *)

(* A deterministic little frame zoo: plain UDP of several sizes and a
   TPP-tagged frame, with a nonzero hop count (the one Meta field that
   must survive the boundary). *)
let boundary_frame ~variant ~i =
  let tpp =
    if variant mod 3 = 0 then
      Some (Prog.copy (Result.get_ok (Asm.to_tpp ~mem_len:32 collect_src)))
    else None
  in
  let payload = Bytes.make (20 + (variant mod 5 * 111)) (Char.chr (i land 0xff)) in
  let f =
    Frame.udp_frame
      ~src_mac:(Mac.of_host_id (i + 1))
      ~dst_mac:(Mac.of_host_id (i + 2))
      ~src_ip:(Ipv4.Addr.of_host_id (i + 1))
      ~dst_ip:(Ipv4.Addr.of_host_id (i + 2))
      ~src_port:(4000 + i) ~dst_port:9 ?tpp ~payload ()
  in
  f.Frame.meta.Meta.hop_count <- variant land 7;
  f

let prop_boundary_codec_roundtrip =
  QCheck.Test.make
    ~name:"boundary codec: encode/decode roundtrips frames and stamps" ~count:30
    QCheck.(pair (list_of_size Gen.(1 -- 10) (int_range 0 11)) small_nat)
    (fun (variants, base) ->
      let chunk = Parsim.Boundary.chunk ~capacity:64 () in
      let pool = Frame.Pool.create () in
      let expected =
        List.mapi
          (fun i variant ->
            let f = boundary_frame ~variant ~i in
            let arrival = 1_000 + (base * 17) + (i * 31) in
            let emitted = arrival - 7 in
            let seq = i + 1 in
            let dst_node = variant mod 4 and dst_port = (variant / 4) mod 3 in
            let image = Frame.serialize f in
            Parsim.Boundary.append chunk ~arrival ~emitted ~seq ~dst_node
              ~dst_port f;
            ( arrival, emitted, seq, dst_node, dst_port, f.Frame.id,
              f.Frame.meta.Meta.hop_count, image ))
          variants
      in
      let got = ref [] in
      Parsim.Boundary.decode chunk ~pool
        (fun ~arrival ~emitted ~seq ~dst_node ~dst_port f ->
          (* Offsets recomputed by arithmetic must match the validating
             parser on the same image. *)
          let image = Frame.serialize f in
          let oracle = Result.get_ok (Frame.parse image) in
          check Alcotest.int "ip_off" oracle.Frame.ip_off f.Frame.ip_off;
          check Alcotest.int "udp_off" oracle.Frame.udp_off f.Frame.udp_off;
          check Alcotest.int "pay_off" oracle.Frame.pay_off f.Frame.pay_off;
          check Alcotest.bool "tpp presence"
            (Option.is_some oracle.Frame.tpp)
            (Option.is_some f.Frame.tpp);
          got :=
            ( arrival, emitted, seq, dst_node, dst_port, f.Frame.id,
              f.Frame.meta.Meta.hop_count, image )
            :: !got);
      check Alcotest.int "chunk count" (List.length expected)
        (Parsim.Boundary.count chunk);
      List.rev !got = expected)

let prop_chunk_recycle_never_aliases =
  QCheck.Test.make
    ~name:"chunk recycling never aliases a live frame" ~count:20
    QCheck.(list_of_size Gen.(1 -- 6) (int_range 0 11))
    (fun variants ->
      let chunk = Parsim.Boundary.chunk ~capacity:64 () in
      let pool = Frame.Pool.create () in
      let encode vs off =
        List.iteri
          (fun i v ->
            let f = boundary_frame ~variant:v ~i:(i + off) in
            Parsim.Boundary.append chunk ~arrival:(100 + i) ~emitted:(99 + i)
              ~seq:(i + 1) ~dst_node:0 ~dst_port:0 f)
          vs
      in
      encode variants 0;
      let live = ref [] in
      Parsim.Boundary.decode chunk ~pool
        (fun ~arrival:_ ~emitted:_ ~seq:_ ~dst_node:_ ~dst_port:_ f ->
          live := (f, Frame.serialize f) :: !live);
      (* Reuse the chunk for a different batch — if a materialized frame
         aliased the chunk buffer, its image would now change. *)
      Parsim.Boundary.reset chunk;
      encode (List.map (fun v -> (v + 5) mod 12) variants) 64;
      List.for_all
        (fun (f, image) -> Bytes.equal image (Frame.serialize f))
        !live)

(* A warm boundary crossing allocates nothing: plain pooled frames go
   through [Boundary.append] (and back to their sender's pool),
   [Boundary.decode] into the boundary pool, and [Net.schedule_delivery]
   to a host, whose delivery recycles them into the boundary pool. *)
let test_boundary_crossing_allocates_nothing () =
  let eng = Engine.create () in
  let net = Net.create eng in
  let a = Net.add_host net ~name:"a" in
  let b = Net.add_host net ~name:"b" in
  Net.connect net (a.Net.node_id, 0) (b.Net.node_id, 0) ~bps:1_000_000_000
    ~delay:1_000;
  let src_pool = Frame.Pool.create () and bpool = Frame.Pool.create () in
  let chunk = Parsim.Boundary.chunk () in
  let payload = Bytes.create 64 in
  let batch = 32 and rounds = 500 in
  let deliver ~arrival ~emitted ~seq:_ ~dst_node ~dst_port f =
    Net.schedule_delivery net ~arrival ~emitted ~dst_node ~dst_port f
  in
  let round r =
    let now = Engine.now eng in
    Parsim.Boundary.reset chunk;
    for i = 1 to batch do
      let f =
        Frame.Pool.udp_frame src_pool ~src_mac:a.Net.mac ~dst_mac:b.Net.mac
          ~src_ip:a.Net.ip ~dst_ip:b.Net.ip ~src_port:1 ~dst_port:2 ~payload ()
      in
      Parsim.Boundary.append chunk ~arrival:(now + i) ~emitted:now
        ~seq:((r * batch) + i) ~dst_node:b.Net.node_id ~dst_port:0 f;
      Frame.recycle f
    done;
    Parsim.Boundary.decode chunk ~pool:bpool deliver;
    Engine.run eng ~until:(now + batch + 1)
  in
  round 0;
  let w0 = Gc.minor_words () in
  for r = 1 to rounds do
    round r
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "every message delivered" ((rounds + 1) * batch)
    (Net.frames_delivered net);
  check Alcotest.int "one sender frame" 1 (Frame.Pool.created src_pool);
  check Alcotest.int "one boundary frame per message of a chunk" batch
    (Frame.Pool.created bpool);
  check Alcotest.int "boundary pool drained" 0 (Frame.Pool.outstanding bpool);
  check (Alcotest.float 0.0) "minor words across boundary crossings" 0.0 words

(* --- inbox merge order ---------------------------------------------- *)

let prop_inbox_sorts_like_compare_msg =
  QCheck.Test.make
    ~name:"inbox merge order is compare_msg, regardless of insertion order"
    ~count:100
    QCheck.(
      pair (list_of_size Gen.(0 -- 40) (triple small_nat small_nat (int_range 0 7)))
        int)
    (fun (rows, salt) ->
      (* seq = insertion index keeps (src, seq) unique, as in the real
         protocol (each producer's counter is monotone). *)
      let msgs =
        List.mapi
          (fun i (arr, emit, src) -> (arr land 7, emit land 3, src, i))
          rows
      in
      (* Insert in a salted pseudo-random order. *)
      let shuffled =
        List.sort
          (fun (_, _, _, a) (_, _, _, b) ->
            compare ((a * 2654435761) lxor salt) ((b * 2654435761) lxor salt))
          msgs
      in
      let inbox = Parsim.Inbox.create () in
      let dummy = Frame.placeholder () in
      List.iter
        (fun (arrival, emitted, src_shard, seq) ->
          Parsim.Inbox.add inbox ~arrival ~emitted ~src_shard ~seq ~dst_node:0
            ~dst_port:0 dummy)
        shuffled;
      Parsim.Inbox.sort inbox;
      let got = ref [] in
      Parsim.Inbox.iter_sorted inbox
        (fun ~arrival ~emitted ~src_shard ~seq ~dst_node:_ ~dst_port:_ _ ->
          got := (arrival, emitted, src_shard, seq) :: !got);
      Parsim.Inbox.clear inbox;
      List.rev !got = List.sort Parsim.compare_msg msgs)

let prop_random_topology_deterministic =
  QCheck.Test.make ~name:"random fabric: 1/2/4 shards match sequential engine"
    ~count:5
    QCheck.(
      quad (int_range 2 5) (int_range 4 9) (int_range 0 3) (int_range 0 10_000))
    (fun (switches, hosts, extra_links, seed) ->
      let build eng =
        let r =
          Topology.random eng ~switches ~hosts ~extra_links ~seed ~ecmp:true
            ~bps:200_000_000 ~delay:(Time_ns.us 2) ()
        in
        (* Tight queues so random runs exercise tail-drop paths too. *)
        List.iter
          (fun (_, sw) ->
            for p = 0 to Switch.num_ports sw - 1 do
              Switch.set_queue_limit sw ~port:p ~bytes:4_000
            done)
          (Net.switches r.Topology.r_net);
        r.Topology.r_net
      in
      let payload_bytes = 200 + (100 * (seed mod 4)) in
      let traffic = blast ~packets:12 ~gap_ns:3_000 ~payload_bytes in
      ignore
        (check_matches_sequential ~build ~traffic ~until:(Time_ns.ms 10)
           [ 1; 2; 4 ]);
      true)

let suite =
  [
    Alcotest.test_case "plan: fat-tree partition" `Quick test_plan_fat_tree;
    Alcotest.test_case "net sharding hooks" `Quick test_sharding_hooks;
    Alcotest.test_case "barrier poison mid-spin" `Quick
      test_barrier_poison_mid_spin;
    qtest prop_boundary_codec_roundtrip;
    qtest prop_chunk_recycle_never_aliases;
    Alcotest.test_case "warm boundary crossing allocates nothing" `Quick
      test_boundary_crossing_allocates_nothing;
    qtest prop_inbox_sorts_like_compare_msg;
    Alcotest.test_case "dumbbell w/ drops matches sequential" `Quick
      (Test_scenario.case dumbbell_drops);
    Alcotest.test_case "fat-tree matches sequential" `Quick
      (Test_scenario.case fat_tree);
    Alcotest.test_case "more shards than switches" `Quick
      (Test_scenario.case more_shards);
    qtest prop_random_topology_deterministic;
  ]
