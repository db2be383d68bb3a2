(* The udp-* workloads: a k=16 fat-tree (1024 hosts, 320 switches) with
   Pods addressing, aggregated FIBs and the Cached wire check, where
   every host sends pooled 64-byte UDP frames at a constant rate to a
   seeded partner in another pod.

   - udp-plain: bare forwarding at the smallest packet size.
   - udp-tpp: the same schedule, every frame carrying one of
     Programs.all, picked per flow by the seed.
   - udp-postcard: udp-plain plus a binary postcard tap on every switch,
     drained into a collector every 50 us of simulated time.

   Each host self-schedules its next send, so the whole input is fixed
   in simulated time and a run is a batch: Engine.run to the horizon as
   fast as the host allows. The horizon falls just after the last send;
   frames still in flight then count in fail_frac, and an untimed drain
   afterwards must deliver every one of them. *)

open Tpp
module State = Switch_state
module Ring = Tpp_util.Ring

type kind = Plain | With_tpp | Postcard

type size = { k : int; frames_per_host : int; gap_ns : int }

let full = { k = 16; frames_per_host = 200; gap_ns = Time_ns.us 4 }
let smoke = { k = 4; frames_per_host = 30; gap_ns = Time_ns.us 4 }

let link_bps = 10_000_000_000
let link_delay = Time_ns.us 1
let payload = Bytes.make 64 '\000'
let frame_bytes = 512
let dst_port = 7
let absorb_period = Time_ns.us 50

(* Edge, aggregation, core, aggregation, edge: every flow leaves its pod. *)
let hops_per_frame = 5

(* Two absorb periods of k=16 traffic (1024 hosts x 12.5 frames x 5
   hops = 64k cards), so the sink never overwrites unread cards. *)
let sink_chunks = 128

(* Long enough for every frame in flight at the horizon to arrive. *)
let drain_ns = Time_ns.ms 1

let min_runs = 3

(* Set-up samples taken after each run, so that they spread over the
   whole measurement as the runs do. setup_s is the fastest sample, for
   the reason run_s sums the fastest slices (see run_fastest): the
   median of a few milliseconds of set-up moved by a third between sets
   of ten runs as other tenants' load came and went. *)
let setups_per_run = 4

(* Built afresh by every set-up: Prog.copy shares a template's compile
   handle, so templates kept across runs would turn every later run's
   compile misses into hits. *)
let templates () =
  Array.of_list
    (List.map
       (fun (name, source) ->
         match Programs.build source with
         | Ok t -> t
         | Error e -> failwith (Printf.sprintf "Programs.%s: %s" name e))
       Programs.all)

let generate size ~seed =
  Gen.make ~k:size.k ~frames_per_host:size.frames_per_host ~gap_ns:size.gap_ns
    ~programs:(List.length Programs.all) ~seed

let build_net size eng =
  (Topology.fat_tree eng ~wire_check:`Cached ~ecmp:true ~addressing:`Pods
     ~fib:`Aggregated ~k:size.k ~bps:link_bps ~delay:link_delay ())
    .Topology.f_net

let fib_per_switch net =
  let sws = Net.switches net in
  float_of_int (List.fold_left (fun a (_, sw) -> a + Switch.l3_size sw) 0 sws)
  /. float_of_int (max 1 (List.length sws))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let deadline seconds = Clock.now_ns () + (seconds * 1_000_000_000)

(* ---- Traffic ---- *)

type traffic = {
  hosts : Net.host array;  (* node-id order, which is pod-major *)
  pools : Frame.Pool.t array;  (* one per sending host, i.e. per flow *)
  mutable rx_frames : int;
  mutable rx_digest : int;
      (* a sum of per-frame digests: order-independent, so the shards of
         a sharded run add up to the sequential run *)
}

let rec fold_words (t : Prog.t) acc off stop =
  if off >= stop then acc
  else fold_words t ((acc * 31) + Prog.mem_get t off) (off + 4) stop

(* What a receiver saw in one frame: its flow and, for a TPP frame,
   every word the switches wrote along the path. *)
let frame_digest (f : Frame.t) =
  let h = Frame.udp_src_port f in
  let h =
    match f.Frame.tpp with
    | None -> h
    | Some t ->
      let stop =
        match t.Prog.addr_mode with
        | Prog.Stack -> t.Prog.sp
        | Prog.Hop_addressed -> t.Prog.base + (t.Prog.hop * t.Prog.perhop_len)
      in
      fold_words t (h + t.Prog.hop) t.Prog.base stop
  in
  Frame.flow_hash_values ~src:h ~dst:0 ~proto:0 ~src_port:0 ~dst_port:0

let schedule ?tracer kind gen ~owns net =
  let eng = Net.engine net in
  let hosts = Array.of_list (Net.hosts net) in
  if Array.length hosts <> Array.length gen.Gen.partner then
    invalid_arg "Udp_workload.schedule: fabric and schedule disagree on hosts";
  let templates =
    match kind with With_tpp -> templates () | Plain | Postcard -> [||]
  in
  let t =
    { hosts;
      pools = Array.map (fun _ -> Frame.Pool.create ~frame_bytes ()) hosts;
      rx_frames = 0;
      rx_digest = 0 }
  in
  let receive ~now:_ frame =
    Spans.enter_opt tracer Spans.receive;
    t.rx_frames <- t.rx_frames + 1;
    t.rx_digest <- t.rx_digest + frame_digest frame;
    Spans.leave_opt tracer
  in
  let send src =
    let s = hosts.(src) and d = hosts.(gen.Gen.partner.(src)) in
    Spans.enter_opt tracer Spans.build;
    let tpp =
      match kind with
      | With_tpp -> Some (Prog.copy templates.(gen.Gen.program.(src)))
      | Plain | Postcard -> None
    in
    let frame =
      Frame.Pool.udp_frame t.pools.(src) ~src_mac:s.Net.mac ~dst_mac:d.Net.mac
        ~src_ip:s.Net.ip ~dst_ip:d.Net.ip ~src_port:(1024 + src) ~dst_port ?tpp
        ~payload ()
    in
    Spans.leave_opt tracer;
    Spans.enter_opt tracer Spans.send;
    Net.host_send net s frame;
    Spans.leave_opt tracer
  in
  let rec tick src j () =
    Spans.enter_opt tracer Spans.tick;
    send src;
    if j + 1 < gen.Gen.frames_per_host then
      Engine.at eng (Gen.send_time gen ~host:src ~frame:(j + 1)) (tick src (j + 1));
    Spans.leave_opt tracer
  in
  Array.iteri
    (fun src (h : Net.host) ->
      if owns h.Net.node_id then begin
        h.Net.receive <- receive;
        if gen.Gen.frames_per_host > 0 then
          Engine.at eng (Gen.send_time gen ~host:src ~frame:0) (tick src 0)
      end)
    hosts;
  t

type telemetry = { sink : Telemetry_sink.t; col : Collector.t }

let attach ?tracer gen net =
  let sink = Telemetry_sink.create ~max_chunks:sink_chunks () in
  let col = Collector.create () in
  Telemetry_emit.tap_switches sink net;
  Engine.every (Net.engine net) ~period:absorb_period ~until:(Gen.horizon gen)
    (fun () ->
      Spans.enter_opt tracer Spans.absorb;
      Collector.absorb col sink;
      Spans.leave_opt tracer);
  { sink; col }

type fabric = {
  gen : Gen.t;
  eng : Engine.t;
  net : Net.t;
  traffic : traffic;
  telemetry : telemetry option;
}

(* Topology build with route install, traffic scheduling, and for
   udp-postcard the tap and collector: all of what setup_s times. *)
let setup ?tracer kind size gen =
  Spans.enter_opt tracer Spans.setup;
  let eng = Engine.create () in
  Spans.enter_opt tracer Spans.topology;
  let net = build_net size eng in
  Spans.leave_opt tracer;
  Spans.enter_opt tracer Spans.schedule;
  let traffic = schedule ?tracer kind gen ~owns:(fun _ -> true) net in
  Spans.leave_opt tracer;
  let telemetry =
    match kind with
    | Postcard ->
      Spans.enter_opt tracer Spans.attach;
      let t = attach ?tracer gen net in
      Spans.leave_opt tracer;
      Some t
    | Plain | With_tpp -> None
  in
  Spans.leave_opt tracer;
  { gen; eng; net; traffic; telemetry }

(* ---- Counters and fingerprints ---- *)

let sum_pools f pools = Array.fold_left (fun a p -> a + f p) 0 pools

let offered pools =
  sum_pools (fun p -> Frame.Pool.created p + Frame.Pool.reused p) pools

let outstanding pools = sum_pools Frame.Pool.outstanding pools

let sum_switches ?(owns = fun _ -> true) net f =
  List.fold_left
    (fun a (id, sw) -> if owns id then a + f (Switch.state sw) else a)
    0 (Net.switches net)

let mix h x = (h * 1_000_003) lxor x

let port_fp h (p : State.Port.t) =
  List.fold_left mix h
    State.Port.
      [ p.rx_bytes; p.rx_pkts; p.tx_bytes; p.tx_pkts; p.drops; p.trims;
        p.offered_bytes; p.queue_bytes ]

let idle_port = [ 0; 0; 0; 0; 0; 0; 0; 0 ]

(* Every architectural register of one switch. The compile-cache
   hit/miss counters stay out, as State documents: which switch first
   links a template depends on the shard layout. *)
let switch_fp sw =
  let st = Switch.state sw in
  let h =
    List.fold_left mix 0
      State.
        [ st.packets_seen; st.bytes_seen; st.drops; st.trims; st.tpp_execs;
          st.tpp_faults; st.tpp_cycles ]
  in
  let h = Array.fold_left mix h st.State.sram in
  if State.ports_materialized st then Array.fold_left port_fp h st.State.ports
  else begin
    let h = ref h in
    for _ = 1 to st.State.num_ports do
      h := List.fold_left mix !h idle_port
    done;
    !h
  end

let switch_fps ~owns net =
  List.filter_map
    (fun (id, sw) -> if owns id then Some (id, switch_fp sw) else None)
    (Net.switches net)

let combine fps =
  List.fold_left (fun h (id, fp) -> mix (mix h id) fp) 0 (List.sort compare fps)

type fingerprint = {
  switches : int;
  delivered : int;
  digest : int;
  drops : int;
}

let fingerprint fab =
  { switches = combine (switch_fps ~owns:(fun _ -> true) fab.net);
    delivered = fab.traffic.rx_frames;
    digest = fab.traffic.rx_digest;
    drops = sum_switches fab.net (fun st -> st.State.drops) }

let show fp =
  Printf.sprintf "switches %x, %d delivered, digest %x, %d dropped" fp.switches
    fp.delivered fp.digest fp.drops

let same_fp ~workload ~layer ~invariant a b =
  Check.that ~workload ~layer ~invariant (a = b) (fun () ->
      show a ^ " vs " ^ show b)

(* ---- Correctness at the end of a run ---- *)

let pod_of_ip ip = (Ipv4.Addr.to_int ip lsr 16) land 0xff

(* The generator assumes pod-major host indices and picks partners in
   other pods by index: check both against the addresses the fabric
   assigned (10.pod.edge.host). *)
let check_pods ~workload fab =
  let hosts = fab.traffic.hosts in
  let pod i = pod_of_ip hosts.(i).Net.ip in
  Array.iteri
    (fun i _ ->
      Check.that ~workload ~layer:"gen" ~invariant:"the fabric's hosts are pod-major"
        (pod i = Gen.pod_of fab.gen i)
        (fun () -> Printf.sprintf "host %d is in pod %d" i (pod i)))
    hosts;
  Array.iteri
    (fun src dst ->
      Check.that ~workload ~layer:"gen" ~invariant:"every partner lies in another pod"
        (pod src <> pod dst)
        (fun () ->
          Printf.sprintf "host %d sends to host %d, both in pod %d" src dst
            (pod src)))
    fab.gen.Gen.partner

type outcome = {
  offered_frames : int;
  fail_frac : float;
  events : int;
  (* counted at the horizon, so they match what the timed run did *)
  hops : int;  (* switch ingresses *)
  execs : int;
  faults : int;
  cycles : int;
  hits : int;
  misses : int;
  cards_at_horizon : int;
  at_horizon : fingerprint;
  final : fingerprint;  (* after the drain *)
}

let finish ~workload fab =
  let check = Check.that ~workload in
  let t = fab.traffic in
  let offered_frames = offered t.pools and expected = Gen.frames fab.gen in
  check ~layer:"traffic"
    ~invariant:"every scheduled frame is offered before the horizon"
    (offered_frames = expected)
    (Check.ints offered_frames expected);
  check ~layer:"net" ~invariant:"receive callbacks = Net.frames_delivered"
    (t.rx_frames = Net.frames_delivered fab.net)
    (Check.ints t.rx_frames (Net.frames_delivered fab.net));
  let at_horizon = fingerprint fab in
  let in_flight = outstanding t.pools in
  check ~layer:"net"
    ~invariant:"frame conservation: offered = delivered + dropped + in flight"
    (offered_frames = at_horizon.delivered + at_horizon.drops + in_flight)
    (fun () ->
      Printf.sprintf "%d offered, %d delivered, %d dropped, %d in flight"
        offered_frames at_horizon.delivered at_horizon.drops in_flight);
  let sum f = sum_switches fab.net f in
  let events = Engine.events_processed fab.eng in
  let hops = sum (fun st -> st.State.packets_seen) in
  let execs = sum (fun st -> st.State.tpp_execs) in
  let faults = sum (fun st -> st.State.tpp_faults) in
  let cycles = sum (fun st -> st.State.tpp_cycles) in
  let hits = sum (fun st -> st.State.tpp_compile_hits) in
  let misses = sum (fun st -> st.State.tpp_compile_misses) in
  let cards_at_horizon =
    match fab.telemetry with Some tm -> Collector.cards tm.col | None -> 0
  in
  Engine.run fab.eng ~until:(Gen.horizon fab.gen + drain_ns);
  Option.iter (fun tm -> Collector.absorb tm.col tm.sink) fab.telemetry;
  let final = fingerprint fab in
  let left = outstanding t.pools in
  check ~layer:"frame" ~invariant:"frame.pool_outstanding = 0 after the drain"
    (left = 0) (Check.ints left 0);
  check ~layer:"net"
    ~invariant:"frame conservation after the drain: offered = delivered + dropped"
    (offered_frames = final.delivered + final.drops)
    (fun () ->
      Printf.sprintf "%d offered, %d delivered, %d dropped" offered_frames
        final.delivered final.drops);
  (match fab.telemetry with
   | None -> ()
   | Some tm ->
     let emitted = Telemetry_sink.emitted tm.sink
     and dropped = Telemetry_sink.dropped tm.sink
     and drained = Collector.cards tm.col
     and pending = Telemetry_sink.pending tm.sink in
     check ~layer:"telemetry" ~invariant:"Sink drained + dropped = emitted"
       (drained + dropped = emitted && pending = 0)
       (fun () ->
         Printf.sprintf "%d drained, %d dropped, %d emitted, %d pending" drained
           dropped emitted pending);
     let ingresses = sum (fun st -> st.State.packets_seen) in
     check ~layer:"telemetry" ~invariant:"one hop card per switch ingress"
       (emitted = ingresses) (Check.ints emitted ingresses));
  check_pods ~workload fab;
  { offered_frames;
    fail_frac =
      float_of_int (offered_frames - at_horizon.delivered)
      /. float_of_int offered_frames;
    events; hops; execs; faults; cycles; hits; misses; cards_at_horizon;
    at_horizon; final }

(* ---- Untraced runs: the end-to-end metrics ---- *)

(* udp-tpp and udp-postcard are checked against a plain run of the same
   schedule. Returns the number of extra runs made. *)
let cross_check ~workload kind size gen (o : outcome) =
  match kind with
  | Plain -> 0
  | With_tpp | Postcard ->
    let fab = setup Plain size gen in
    Engine.run fab.eng ~until:(Gen.horizon gen);
    let p = finish ~workload fab in
    (match kind with
     | Postcard ->
       let invariant = "udp-postcard forwarding fingerprint = udp-plain" in
       same_fp ~workload ~layer:"telemetry" ~invariant o.at_horizon p.at_horizon;
       same_fp ~workload ~layer:"telemetry"
         ~invariant:(invariant ^ ", after the drain") o.final p.final
     | With_tpp | Plain ->
       Check.that ~workload ~layer:"tcpu"
         ~invariant:"udp-tpp deliveries = udp-plain deliveries"
         (o.final.delivered = p.final.delivered)
         (Check.ints o.final.delivered p.final.delivered));
    1

(* One set-up sample, after a full major collection so that every
   sample starts from the same heap state. *)
let time_setup kind size gen =
  Gc.full_major ();
  let t0 = Clock.cpu_ns () in
  let fab = setup kind size gen in
  (Clock.cpu_since_s t0, fab)

(* Engine.run to the horizon is timed in [run_slices] equal
   simulated slices; [fastest] keeps each slice's least CPU time over
   the repetitions. On a shared host other tenants slow this simulation
   by up to half, and at times double it, for seconds to minutes at a
   time. A slice a few milliseconds long runs undisturbed in some
   repetition unless the slowdown outlasts the whole measurement, so the
   sum of the per-slice minima is the run's time to result without that
   interference. A slower simulator raises every slice, so the sum
   still shows it. *)
let run_slices = 500

let run_fastest fab fastest =
  let h = Gen.horizon fab.gen in
  let total = ref 0 in
  for i = 1 to run_slices do
    let t0 = Clock.cpu_ns () in
    Engine.run fab.eng ~until:(h * i / run_slices);
    let ns = Clock.cpu_ns () - t0 in
    total := !total + ns;
    if ns < fastest.(i - 1) then fastest.(i - 1) <- ns
  done;
  float_of_int !total *. 1e-9

let measure ~workload kind size ~seed ~seconds =
  let gen = generate size ~seed in
  let stop = deadline seconds in
  let fastest = Array.make run_slices max_int in
  let runs = ref [] and setups = ref [] and peak = ref 0.0 in
  while List.length !runs < min_runs || Clock.now_ns () < stop do
    let setup_s, fab = time_setup kind size gen in
    setups := setup_s :: !setups;
    let w0 = Gc.minor_words () in
    let run_s = run_fastest fab fastest in
    let words = Gc.minor_words () -. w0 in
    let o = finish ~workload fab in
    if !runs = [] then peak := peak_heap_mb ();
    runs := (run_s, words, o) :: !runs;
    for _ = 2 to setups_per_run do
      setups := fst (time_setup kind size gen) :: !setups
    done
  done;
  let runs = List.rev !runs in
  let _, _, first = List.hd runs in
  List.iter
    (fun (_, _, o) ->
      let invariant = "register fingerprints identical across repetitions" in
      same_fp ~workload ~layer:"engine" ~invariant o.at_horizon first.at_horizon;
      same_fp ~workload ~layer:"engine"
        ~invariant:(invariant ^ ", after the drain") o.final first.final)
    runs;
  let extra = cross_check ~workload kind size gen first in
  let med f = Metrics.median (List.map f runs) in
  Printf.printf
    "%s: %d runs of k=%d, %d hosts x %d frames (median %.4f s of CPU time \
     each); %d set-up samples\n"
    workload (List.length runs) size.k (Array.length gen.Gen.partner)
    size.frames_per_host (med (fun (s, _, _) -> s)) (List.length !setups);
  ( List.length runs + extra,
    [ ("run_s", float_of_int (Array.fold_left ( + ) 0 fastest) *. 1e-9);
      ("setup_s", List.fold_left Float.min infinity !setups);
      ("alloc_mwords", med (fun (_, w, _) -> w) /. 1e6);
      ("peak_heap_mb", !peak);
      ("fail_frac", first.fail_frac) ] )

(* ---- The traced run: per-layer metrics and the ledger ---- *)

let slices = 2000
let capture_capacity = 4096
let replay_ops = 500_000
let replay_batch = 16_384
let depth_buckets = 1 lsl 18

(* Frames sampled at the switch tap (after the forwarding decision and
   the TCPU), cloned with the state needed to replay them. *)
type capture = {
  stride : int;
  mutable seen : int;
  mutable n : int;
  frames : Frame.t array;
  switch : Switch.t array;
  in_port : int array;
  ttl : int array;
  sp : int array;  (* TPP stack pointer and hop counter at capture *)
  hop : int array;
}

let copy_meta ~(src : Meta.t) ~(dst : Meta.t) =
  let open Meta in
  dst.in_port <- src.in_port;
  dst.out_port <- src.out_port;
  dst.queue_id <- src.queue_id;
  dst.matched_entry <- src.matched_entry;
  dst.matched_version <- src.matched_version;
  dst.table_hit <- src.table_hit;
  dst.arrival_ns <- src.arrival_ns;
  dst.hop_count <- src.hop_count

let capture_frames gen net =
  let cap =
    { stride = max 1 (Gen.frames gen * hops_per_frame / capture_capacity);
      seen = 0;
      n = 0;
      frames = Array.make capture_capacity (Frame.placeholder ());
      switch = Array.make capture_capacity (Switch.create ~id:0 ~num_ports:1 ());
      in_port = Array.make capture_capacity 0;
      ttl = Array.make capture_capacity 0;
      sp = Array.make capture_capacity 0;
      hop = Array.make capture_capacity 0 }
  in
  List.iter
    (fun (_, sw) ->
      Switch.set_tap sw
        (Some
           (fun ~now:_ ~in_port ~out_port:_ frame ->
             cap.seen <- cap.seen + 1;
             if cap.seen mod cap.stride = 0 && cap.n < capture_capacity then begin
               let c = Frame.clone frame in
               copy_meta ~src:frame.Frame.meta ~dst:c.Frame.meta;
               let i = cap.n in
               cap.frames.(i) <- c;
               cap.switch.(i) <- sw;
               cap.in_port.(i) <- in_port;
               cap.ttl.(i) <- Frame.ip_ttl c;
               (match c.Frame.tpp with
                | Some t ->
                  cap.sp.(i) <- t.Prog.sp;
                  cap.hop.(i) <- t.Prog.hop
                | None -> ());
               cap.n <- i + 1
             end)))
    (Net.switches net);
  cap

(* Queue depth at every enqueue, from the switches' binary tap. *)
let depth_histogram net =
  let hist = Array.make depth_buckets 0 in
  List.iter
    (fun (_, sw) ->
      Switch.set_bin_tap sw
        (Some
           (fun ~now:_ ~in_port:_ ~out_port:_ ~queue_bytes ~version:_
                ~frame_id:_ ~flow_hash:_ ~wire_bytes:_ ~entry:_ ->
             let b = min queue_bytes (depth_buckets - 1) in
             hist.(b) <- hist.(b) + 1)))
    (Net.switches net);
  hist

let hist_percentile hist q =
  let total = Array.fold_left ( + ) 0 hist in
  let target = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
  let rec go b seen =
    let seen = seen + hist.(b) in
    if seen >= target || b = Array.length hist - 1 then b else go (b + 1) seen
  in
  if total = 0 then 0 else go 0 0

(* Engine.run to the horizon in equal simulated slices, timing each and
   sampling the NIC queues between them. *)
let run_sliced tr fab =
  let h = Gen.horizon fab.gen in
  let n = min slices h in
  let slice_ns = Array.make n 0 in
  let nic_max = ref 0 in
  let sample (host : Net.host) =
    match host.Net.nic_q with
    | Some r -> nic_max := max !nic_max (Ring.length r)
    | None -> ()
  in
  Spans.enter tr Spans.run;
  let t0 = Clock.now_ns () in
  for i = 1 to n do
    let s0 = Clock.now_ns () in
    Spans.enter tr Spans.slice;
    Engine.run fab.eng ~until:(h * i / n);
    Spans.leave tr;
    slice_ns.(i - 1) <- Clock.now_ns () - s0;
    Array.iter sample fab.traffic.hosts
  done;
  let run_s = Clock.since_s t0 in
  Spans.leave tr;
  (run_s, slice_ns, !nic_max)

(* Runs [op] over the captured frames, cycling, [replay_ops] times in
   timed batches; [between] runs untimed after each batch. Returns
   nanoseconds and minor words per op. *)
let replay cap ~op ~between =
  if cap.n = 0 then (0.0, 0.0)
  else begin
    let ns = ref 0 and words = ref 0.0 and i = ref 0 in
    while !i < replay_ops do
      let first = !i in
      let b = min replay_batch (replay_ops - first) in
      let w0 = Gc.minor_words () in
      let t0 = Clock.now_ns () in
      for j = first to first + b - 1 do
        op (j mod cap.n)
      done;
      let t1 = Clock.now_ns () in
      let w1 = Gc.minor_words () in
      ns := !ns + (t1 - t0);
      words := !words +. (w1 -. w0);
      i := first + b;
      between ()
    done;
    ( float_of_int !ns /. float_of_int replay_ops,
      !words /. float_of_int replay_ops )
  end

let replay_tcpu cap =
  replay cap ~between:ignore ~op:(fun i ->
      let f = cap.frames.(i) in
      match f.Frame.tpp with
      | Some t ->
        t.Prog.sp <- cap.sp.(i);
        t.Prog.hop <- cap.hop.(i);
        t.Prog.faulted <- false;
        ignore (Tcpu.execute (Switch.state cap.switch.(i)) ~now:0 ~frame:f)
      | None -> ())

let replay_route cap =
  replay cap ~between:ignore ~op:(fun i ->
      ignore
        (Sys.opaque_identity
           (Switch.route_action cap.switch.(i) (Frame.ip_dst cap.frames.(i)))))

let sentinel = Frame.placeholder ()

(* Ingress plus the dequeue that empties the queue again, with the TCPU
   off (its cost is replayed on its own). On udp-postcard the switches
   keep emitting hop cards, into a scratch sink drained between
   batches, so the replay pays the per-hop emit the run paid. *)
let replay_switch fab cap =
  let failures = ref 0 in
  let between =
    match fab.telemetry with
    | Some _ ->
      let sink = Telemetry_sink.create ~max_chunks:sink_chunks () in
      let col = Collector.create () in
      Telemetry_emit.tap_switches sink fab.net;
      fun () -> Collector.absorb col sink
    | None -> ignore
  in
  List.iter
    (fun (_, sw) -> Switch.set_tcpu_enabled sw false)
    (Net.switches fab.net);
  let op i =
    let f = cap.frames.(i) and sw = cap.switch.(i) in
    Frame.set_ip_ttl f cap.ttl.(i);
    match Switch.handle_ingress sw ~now:0 ~in_port:cap.in_port.(i) f with
    | Switch.Queued (port :: _) ->
      ignore (Switch.dequeue_or sw ~port ~default:sentinel)
    | Switch.Queued [] | Switch.Dropped _ -> incr failures
  in
  let r = replay cap ~op ~between in
  (r, !failures)

let parsim ~workload size gen ~(expect : fingerprint) =
  let slots = Array.make 2 None in
  let t0 = Clock.now_ns () in
  let stats, parts =
    Parsim.run ~shards:2 ~until:(Gen.horizon gen + drain_ns)
      ~build:(build_net size)
      ~setup:(fun ~shard ~owns net ->
        slots.(shard) <- Some (schedule Plain gen ~owns net))
      ~collect:(fun ~shard ~owns net ->
        match slots.(shard) with
        | None -> invalid_arg "Udp_workload.parsim: shard without traffic"
        | Some t ->
          ( switch_fps ~owns net,
            t.rx_frames,
            t.rx_digest,
            sum_switches ~owns net (fun st -> st.State.drops),
            outstanding t.pools ))
      ()
  in
  let run_s = Clock.since_s t0 in
  let parts = Array.to_list parts in
  let sum f = List.fold_left (fun a p -> a + f p) 0 parts in
  let got =
    { switches = combine (List.concat_map (fun (f, _, _, _, _) -> f) parts);
      delivered = sum (fun (_, r, _, _, _) -> r);
      digest = sum (fun (_, _, d, _, _) -> d);
      drops = sum (fun (_, _, _, d, _) -> d) }
  in
  same_fp ~workload ~layer:"parsim" ~invariant:"the 2-shard run = sequential"
    got expect;
  let left = sum (fun (_, _, _, _, o) -> o) + stats.Parsim.boundary_outstanding in
  Check.that ~workload ~layer:"parsim"
    ~invariant:"every frame pool and boundary pool drained" (left = 0)
    (Check.ints left 0);
  let ev = stats.Parsim.shard_events in
  let mean =
    float_of_int (Array.fold_left ( + ) 0 ev) /. float_of_int (Array.length ev)
  in
  let fl = float_of_int in
  [ ("parsim.run_s_2shard", run_s);
    ("parsim.rounds", fl stats.Parsim.rounds);
    ("parsim.messages", fl stats.Parsim.messages);
    ("parsim.chunks", fl stats.Parsim.chunks);
    ("parsim.cut_links", fl stats.Parsim.cut_links);
    ("parsim.shard_imbalance", fl (Array.fold_left max 0 ev) /. mean);
    ("parsim.boundary_outstanding", fl stats.Parsim.boundary_outstanding) ]

let gc_mark () =
  let s = Gc.quick_stat () in
  let _, promoted, _ = Gc.counters () in
  (s.Gc.minor_collections, s.Gc.major_collections, promoted)

type untraced = {
  u_run_s : float;
  u_gc : int * int * float;  (* minor and major collections, promoted words *)
  u_outcome : outcome;
  u_pools : int * int * int;  (* created, reused, outstanding after the drain *)
}

let run_untraced ~workload kind size gen =
  let fab = setup kind size gen in
  let c0, m0, p0 = gc_mark () in
  let t0 = Clock.now_ns () in
  Engine.run fab.eng ~until:(Gen.horizon gen);
  let u_run_s = Clock.since_s t0 in
  let c1, m1, p1 = gc_mark () in
  let u_outcome = finish ~workload fab in
  let pools = fab.traffic.pools in
  { u_run_s;
    u_gc = (c1 - c0, m1 - m0, p1 -. p0);
    u_outcome;
    u_pools =
      ( sum_pools Frame.Pool.created pools,
        sum_pools Frame.Pool.reused pools,
        outstanding pools ) }

type traced_run = {
  tr : Spans.t;
  fab : fabric;
  cap : capture;
  hist : int array option;
  t_run_s : float;
  slice_ns : int array;
  nic_max : int;
  t_outcome : outcome;
}

let run_traced ~workload kind size gen =
  let tr = Spans.create () in
  let fab = setup ~tracer:tr kind size gen in
  let cap = capture_frames gen fab.net in
  let hist =
    match kind with
    | Postcard -> None
    | Plain | With_tpp -> Some (depth_histogram fab.net)
  in
  let t_run_s, slice_ns, nic_max = run_sliced tr fab in
  List.iter
    (fun (_, sw) ->
      Switch.set_tap sw None;
      if Option.is_some hist then Switch.set_bin_tap sw None)
    (Net.switches fab.net);
  let t_outcome = finish ~workload fab in
  { tr; fab; cap; hist; t_run_s; slice_ns; nic_max; t_outcome }

let print_ledger ~base rows =
  Printf.printf "ledger: %.3f ms in the traced run's Engine.run slices\n"
    (base *. 1e-6);
  List.iter
    (fun (name, ns) ->
      Printf.printf "  %-13s %10.3f ms %6.1f%%\n" name (ns *. 1e-6)
        (100.0 *. ns /. base))
    rows

let traced ?spans_dir ~workload kind size ~seed ~seconds =
  let gen = generate size ~seed in
  let stop = deadline seconds in
  let pairs = ref [] and last = ref None in
  while !pairs = [] || Clock.now_ns () < stop do
    last := None;
    Gc.full_major ();
    let u = run_untraced ~workload kind size gen in
    Gc.full_major ();
    let t = run_traced ~workload kind size gen in
    let invariant = "a sliced traced run = one untraced Engine.run" in
    same_fp ~workload ~layer:"engine" ~invariant t.t_outcome.at_horizon
      u.u_outcome.at_horizon;
    same_fp ~workload ~layer:"engine" ~invariant:(invariant ^ ", after the drain")
      t.t_outcome.final u.u_outcome.final;
    pairs := (u.u_run_s, t.t_run_s) :: !pairs;
    last := Some (u, t)
  done;
  let u, t = Option.get !last in
  let o = t.t_outcome and tr = t.tr and net = t.fab.net in
  let fl = float_of_int in
  (* Read every register before the replays drive the same switches. *)
  let trims = sum_switches net (fun st -> st.State.trims) in
  let fib = fib_per_switch net in
  let telemetry =
    match t.fab.telemetry with
    | None -> []
    | Some tm ->
      [ ("telemetry.cards", fl (Collector.cards tm.col));
        ("telemetry.cards_dropped", fl (Telemetry_sink.dropped tm.sink));
        ( "telemetry.absorb_ns_per_card",
          if o.cards_at_horizon = 0 then 0.0
          else fl (Spans.total_ns tr Spans.absorb) /. fl o.cards_at_horizon );
        ("telemetry.sink_bytes_max", fl (Telemetry_sink.card_bytes_alive tm.sink)) ]
  in
  let tcpu_ns, tcpu_words =
    match kind with
    | With_tpp -> replay_tcpu t.cap
    | Plain | Postcard -> (0.0, 0.0)
  in
  let route_ns, _ = replay_route t.cap in
  let (switch_ns, switch_words), failures = replay_switch t.fab t.cap in
  Check.that ~workload ~layer:"switch"
    ~invariant:"captured frames forward again on replay" (failures = 0)
    (Check.ints failures 0);
  let parsim_metrics =
    match kind with
    | Plain -> parsim ~workload size gen ~expect:u.u_outcome.final
    | With_tpp | Postcard -> []
  in
  let slices = Array.map fl t.slice_ns in
  Array.sort Float.compare slices;
  let base = fl (Spans.total_ns tr Spans.slice) in
  let ledger =
    [ ("frame", fl (Spans.self_ns tr Spans.build));
      ("net", fl (Spans.self_ns tr Spans.send));
      ("switch", switch_ns *. fl o.hops);
      ("tcpu", tcpu_ns *. fl o.execs);
      ("telemetry", fl (Spans.self_ns tr Spans.absorb));
      ("bench", fl (Spans.self_ns tr Spans.tick + Spans.self_ns tr Spans.receive)) ]
  in
  let unattributed =
    base -. List.fold_left (fun a (_, ns) -> a +. ns) 0.0 ledger
  in
  print_ledger ~base (ledger @ [ ("unattributed", unattributed) ]);
  let untraced_s = Metrics.median (List.map fst !pairs)
  and traced_s = Metrics.median (List.map snd !pairs) in
  let created, reused, left = u.u_pools in
  let minor, major, promoted = u.u_gc in
  Option.iter
    (fun dir ->
      Spans.write tr ~dir
        ~file:(Printf.sprintf "spans-%s-seed%d.tsv" workload seed))
    spans_dir;
  let runs =
    (2 * List.length !pairs) + if parsim_metrics = [] then 0 else 1
  in
  ( runs,
    [ ("topology.build_s", Spans.mean_ns tr Spans.topology *. 1e-9);
      ("topology.fib_per_switch", fib);
      ("engine.events", fl o.events);
      ("engine.events_per_s", fl o.events /. untraced_s);
      ("engine.events_per_frame", fl o.events /. fl o.offered_frames);
      ("engine.slice_ms_p50", Metrics.percentile slices 0.5 *. 1e-6);
      ("engine.slice_ms_p99", Metrics.percentile slices 0.99 *. 1e-6);
      ("net.host_send_ns", Spans.mean_ns tr Spans.send);
      ("net.frames_offered", fl o.offered_frames);
      ("net.frames_delivered", fl o.at_horizon.delivered);
      ("net.link_hops", fl o.hops);
      ("net.nic_queue_max", fl t.nic_max);
      ("frame.build_ns", Spans.mean_ns tr Spans.build);
      ("frame.build_words", Spans.mean_words tr Spans.build);
      ("frame.pool_created", fl created);
      ("frame.pool_reused", fl reused);
      ("frame.pool_outstanding", fl left);
      ("switch.ingress_ns", switch_ns);
      ("switch.ingress_words", switch_words);
      ("switch.route_ns", route_ns);
      ( "switch.queue_bytes_p99",
        match t.hist with Some h -> fl (hist_percentile h 0.99) | None -> 0.0 );
      ("switch.drops", fl o.final.drops);
      ("switch.trims", fl trims);
      ("tcpu.execs", fl o.execs);
      ("tcpu.faults", fl o.faults);
      ("tcpu.instrs", fl (o.cycles - (4 * o.execs)));
      ("tcpu.compile_hits", fl o.hits);
      ("tcpu.compile_misses", fl o.misses);
      ("tcpu.exec_ns", tcpu_ns);
      ("tcpu.exec_words", tcpu_words);
      ("gc.minor_collections", fl minor);
      ("gc.major_collections", fl major);
      ("gc.promoted_mwords", promoted /. 1e6);
      ( "bench.callback_mwords",
        (Spans.self_words tr Spans.tick +. Spans.self_words tr Spans.receive)
        /. 1e6 );
      ("ledger.unattributed_frac", unattributed /. base);
      ("trace.overhead", traced_s /. untraced_s) ]
    @ List.map (fun (name, ns) -> ("ledger." ^ name ^ "_frac", ns /. base)) ledger
    @ telemetry @ parsim_metrics )
