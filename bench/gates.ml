(* The simulator's gates as one scenario table.

   A row names a topology, a traffic kind, a chaos setting, the shard
   counts to repeat it at, an oracle and the assertions that judge it.
   [run] executes any row at any shard count and returns one [row]
   record. [check_identity] compares the sequential run with the
   oracle's and every sharded run with the sequential one, and names
   the first field that differs. [run_table] runs rows in order and
   renders each as one line of BENCH.json (Report.write_benches writes
   the file); bench/perf.ml is the command line.

   Every allocation figure is exact: domain-local [Gc.minor_words],
   sampled in the running domain and summed across shards. *)

open Tpp

type topo =
  | Fat_tree of int                 (* k; per-host /32 routes, ECMP *)
  | Pods of int                     (* k; pod addressing, aggregated FIBs *)
  | Leaf_spine of int * int * int   (* leaves, spines, hosts per leaf *)
  | Fct_fabric                      (* the fat-tree inside Fct.fabric_run *)
  | No_fabric                       (* a microbench *)

type traffic =
  | Collect    (* unpooled UDP, each frame carrying a 5-instruction TPP *)
  | Heavy      (* unpooled UDP, a 99-instruction TPP, 1 in 16 faulting *)
  | Pooled     (* plain UDP from one frame pool per sending host *)
  | Postcard   (* Pooled, with a binary tap on every switch *)
  | Flows of Fct.transport * Fct.fabric_params   (* a transport flow set *)
  | Build      (* build the topology only *)
  | Ingest of int    (* synthetic postcards through one sink *)
  | Overload         (* a small sink fed 10x its capacity, never drained *)
  | Sketch of int    (* samples into CMS and t-digest *)
  | Trim of int      (* frames into a full data queue, trim vs drop *)

type chaos = No_chaos | Empty | Chaotic

type oracle =
  | Sequential   (* nothing beyond the sequential run itself *)
  | Interpreter  (* the TCPU interpreter backend *)
  | Unpooled     (* a fresh frame per send *)
  | Host32       (* per-host /32 FIBs *)
  | Always       (* the full per-frame wire round trip *)
  | Bare         (* no fault schedule attached *)

(* One run of one row. Non-fabric rows fill what they measure: a
   microbench's [events] are its iterations. *)
type row = {
  events : int;
  delivered : int;
  registers : int;  (* digest of every switch register; of Fct.fingerprint for flow sets *)
  tpp_execs : int;
  tpp_faults : int;
  tpp_cycles : int;
  faults : int list;  (* Fault.stats in declaration order; zeros without a schedule *)
  cards : int;  (* postcards collected *)
  collector : int;  (* the collector's order-independent fingerprint *)
  pool_outstanding : int;
  boundary_outstanding : int;
  wall : float;  (* build + setup + run *)
  minor_pe : float;  (* minor words per event, exact *)
  promoted_pe : float;
  metrics : (string * float) list;  (* row-specific measurements *)
}

type verdict = Pass | Warn | Skip | Fail

type ctx = {
  smoke : bool;
  seq : row;
  oracle_run : row option;
  sharded : (int * row) list;
  prior : string -> row option;  (* an earlier row of the same invocation *)
}

type assertion = { what : string; eval : ctx -> verdict * string }

type spec = {
  name : string;
  why : string;  (* the gate this row carries *)
  topo : topo;
  traffic : traffic;
  chaos : chaos;
  packets : int;  (* per host, for per-host traffic *)
  shards : int list;
  oracle : oracle;
  best_of_two : bool;  (* for the sequential and oracle runs *)
  asserts : assertion list;
}

let zero_faults = [ 0; 0; 0; 0; 0; 0 ]

let blank =
  { events = 0; delivered = 0; registers = 0; tpp_execs = 0; tpp_faults = 0;
    tpp_cycles = 0; faults = zero_faults; cards = 0; collector = 0;
    pool_outstanding = 0; boundary_outstanding = 0; wall = 0.0;
    minor_pe = 0.0; promoted_pe = 0.0; metrics = [] }

let per n x = if n = 0 then 0.0 else x /. float_of_int n
let eps r = float_of_int r.events /. r.wall
let metric key r = Option.value (List.assoc_opt key r.metrics) ~default:nan

let promoted_words () =
  let _, promoted, _ = Gc.counters () in
  promoted

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* ---- fabrics and their traffic -------------------------------------- *)

let horizon = Time_ns.sec 10
let gap_ns = 6_000
let payload_bytes = 1000
let link_bps = 10_000_000_000
let link_delay = Time_ns.us 1

let collect_program =
  "PUSH [Switch:SwitchID]\n\
   PUSH [Link:QueueSize]\n\
   PUSH [Link:RxUtilization]\n\
   PUSH [Link:CapacityKbps]\n\
   PUSH [Link:Drops]\n"

let heavy_block =
  "LOAD [Switch:PacketsSeen], [Packet:0]\n\
   LOAD [Link:QueueSize], [Packet:4]\n\
   ADD [Packet:0], [Packet:4]\n\
   LOAD [Link:TxBytes], [Packet:8]\n\
   MAX [Packet:8], [Packet:0]\n\
   AND [Packet:0], 0xFFF\n\
   OR [Packet:4], 7\n\
   SUB [Packet:8], [Packet:4]\n\
   ADD [Packet:12], 1\n\
   MIN [Packet:12], 0xFFF\n\
   MOV [Packet:16], [Packet:8]\n\
   ADD [Packet:16], [Packet:0]\n"

(* Long per-hop programs make the TCPU the dominant per-event cost. The
   CEXEC's mask 0 always passes: it keeps the pool machinery on the hot
   path. 8 blocks = 99 instructions, inside the 300-cycle budget. *)
let heavy_program =
  "CEXEC [Switch:Version], 0, 0\n"
  ^ String.concat "" (List.init 8 (fun _ -> heavy_block))
  ^ "ADD [Sram:7], 1\n\
     MAX [Sram:8], [Link:QueueSize]\n"

(* Every 16th heavy packet stores to a read-only register and faults at
   the first hop, exercising the inert faulted-TPP path. *)
let heavy_fault_program =
  "ADD [Sram:9], 1\n\
   STORE [Switch:SwitchID], 1\n\
   ADD [Sram:9], 1\n"

let assemble ~mem_len src = Result.get_ok (Asm.to_tpp ~mem_len src)
let mix h x = (h * 1_000_003) + x
let digest = List.fold_left mix 0

(* [oracle] selects the row's oracle run; true when that oracle is [o]. *)
let oracle_is spec ~oracle o = oracle && spec.oracle = o

let build spec ~oracle eng =
  let flip = oracle_is spec ~oracle in
  let wire_check = if flip Always then `Always else `Cached in
  let bps = link_bps and delay = link_delay in
  match spec.topo with
  | Fat_tree k ->
    (Topology.fat_tree eng ~wire_check ~ecmp:true ~k ~bps ~delay ())
      .Topology.f_net
  | Pods k ->
    let fib = if flip Host32 then `Host32 else `Aggregated in
    (Topology.fat_tree eng ~wire_check ~ecmp:true ~addressing:`Pods ~fib ~k
       ~bps ~delay ())
      .Topology.f_net
  | Leaf_spine (leaves, spines, hosts_per_leaf) ->
    (Topology.leaf_spine eng ~wire_check ~ecmp:true ~leaves ~spines
       ~hosts_per_leaf ~bps ~delay ())
      .Topology.ls_net
  | Fct_fabric | No_fabric -> invalid_arg "Gates.build: not a fabric row"

(* Each host streams [packets] frames [gap_ns] apart to its partner in
   the opposite half, so flows cross every layer and exercise ECMP;
   hosts are offset 7 ns apart so departures never coincide. Sends
   schedule their successor, so the wheel holds one pending send per
   host instead of hosts x packets closures. Which frames carry the
   faulting program depends only on (src, j), so the set is the same
   under any shard layout. Returns the per-host pools. *)
let start_traffic spec ~pooled ~owns net =
  let hosts = Array.of_list (Net.hosts net) in
  let n = Array.length hosts in
  let eng = Net.engine net in
  let payload = Bytes.create payload_bytes in
  let tpp =
    match spec.traffic with
    | Collect ->
      let p = assemble ~mem_len:64 collect_program in
      fun _ -> Some (Prog.copy p)
    | Heavy ->
      let p = assemble ~mem_len:32 heavy_program in
      let f = assemble ~mem_len:32 heavy_fault_program in
      fun j -> Some (Prog.copy (if j mod 16 = 0 then f else p))
    | _ -> fun _ -> None
  in
  (* Created in the calling domain: under Parsim that is the shard's
     own, so recycling at delivery stays a same-domain operation. *)
  let pools =
    if pooled then
      Array.map (fun _ -> Frame.Pool.create ~capacity:64 ~frame_bytes:2048 ()) hosts
    else [||]
  in
  let send src j =
    let s = hosts.(src) and d = hosts.((src + (n / 2)) mod n) in
    let src_mac = s.Net.mac and dst_mac = d.Net.mac in
    let src_ip = s.Net.ip and dst_ip = d.Net.ip and src_port = 1000 + src in
    let tpp = tpp j in
    Net.host_send net s
      (if pooled then
         Frame.Pool.udp_frame pools.(src) ~src_mac ~dst_mac ~src_ip ~dst_ip
           ~src_port ~dst_port:7 ?tpp ~payload ()
       else
         Frame.udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port:7
           ?tpp ~payload ())
  in
  let at j src = (j * gap_ns) + (src * 7) + 1 in
  let rec tick src j () =
    send src j;
    if j + 1 < spec.packets then Engine.at eng (at (j + 1) src) (tick src (j + 1))
  in
  for src = 0 to n - 1 do
    if owns hosts.(src).Net.node_id && spec.packets > 0 then
      Engine.at eng (at 0 src) (tick src 0)
  done;
  pools

(* Flap, loss with corruption, freeze-restart and degradation at once,
   on host access links and the edge switch above host 1 (cables that
   carry traffic by construction). Windows scale with the send span so
   every rule fires at any size. *)
let chaos_schedule spec net =
  let span = spec.packets * gap_ns in
  let f = Fault.create ~seed:4242 in
  let hosts = Array.of_list (Net.hosts net) in
  let access i = (hosts.(i).Net.node_id, 0) in
  let edge_above i =
    match Net.neighbors net hosts.(i).Net.node_id with
    | (_, peer, _) :: _ -> peer
    | [] -> invalid_arg "chaos_schedule: host has no uplink"
  in
  let period = max 2 (span / 25) in
  Fault.flap f ~from_:(span / 10) ~until_:(span * 4 / 5) ~period
    ~down_for:(max 1 (period * 2 / 5)) (access 0);
  Fault.lossy f ~from_:0 ~until_:span ~drop:0.2 ~corrupt:0.05 (access 5);
  Fault.freeze f ~from_:(span / 5) ~until_:(span * 2 / 5) (edge_above 1);
  Fault.degrade f ~from_:(span / 3) ~until_:(span * 9 / 10) ~rate_factor:0.5
    ~extra_delay:(Time_ns.us 2) (access 9);
  Fault.attach f net;
  f

let fault_list (s : Fault.stats) =
  [ s.Fault.lost_down; s.Fault.dropped; s.Fault.corrupt_header;
    s.Fault.corrupt_fcs; s.Fault.frozen_arrivals; s.Fault.restarts ]

let fault_names =
  [ "lost_down"; "dropped"; "corrupt_header"; "corrupt_fcs";
    "frozen_arrivals"; "restarts" ]

(* Per-switch architectural registers. Compile hit/miss counters are
   left out: each shard links its own template family, so their split
   legitimately varies with the shard count. *)
module SS = Switch_state

let switch_fp st =
  let port (p : SS.Port.t) =
    [ p.SS.Port.rx_bytes; p.rx_pkts; p.tx_bytes; p.tx_pkts; p.drops;
      p.offered_bytes; p.queue_bytes ]
  in
  [ st.SS.packets_seen; st.SS.bytes_seen; st.SS.drops; st.SS.tpp_execs;
    st.SS.tpp_faults; st.SS.tpp_cycles;
    Array.fold_left mix 0 st.SS.sram ]
  @ List.concat_map port (Array.to_list st.SS.ports)

let absorb_period = Time_ns.us 50

(* What one shard (or the whole sequential fabric) contributes. *)
type part = {
  fp : (int * int list) list;
  tpp : int list;  (* execs, faults, cycles *)
  p_faults : int list;
  outstanding : int;
  words : float * float;  (* minor, promoted *)
  sums : (string * float) list;  (* additive metrics *)
  tap : (Collector.t * int) option;  (* collector, cards dropped *)
}

(* Attaches the row's faults, tap and traffic to [net]; the returned
   closure, called after the run, reads back what the owned switches
   and pools hold. Allocation is counted from the end of setup. *)
let setup spec ~oracle ~owns net =
  let flip = oracle_is spec ~oracle in
  let fault =
    match spec.chaos with
    | Chaotic -> Some (chaos_schedule spec net)
    | Empty when not (flip Bare) ->
      let f = Fault.create ~seed:1 in
      Fault.attach f net;
      Some f
    | _ -> None
  in
  let tap =
    if spec.traffic <> Postcard then None
    else begin
      let sink = Telemetry_sink.create () and col = Collector.create () in
      Telemetry_emit.tap_switches sink net;
      Some (sink, col)
    end
  in
  let pooled = (spec.traffic = Pooled || spec.traffic = Postcard) && not (flip Unpooled) in
  let pools = start_traffic spec ~pooled ~owns net in
  (* Absorbing every 50 us keeps the default sink from ever dropping;
     the ticks stop 10 ms after the last send. *)
  Option.iter
    (fun (sink, col) ->
      Engine.every (Net.engine net) ~period:absorb_period
        ~until:((spec.packets * gap_ns) + Time_ns.ms 10)
        (fun () -> Collector.absorb col sink))
    tap;
  let m0 = Gc.minor_words () and p0 = promoted_words () in
  fun () ->
    let words = (Gc.minor_words () -. m0, promoted_words () -. p0) in
    let owned = List.filter (fun (id, _) -> owns id) (Net.switches net) in
    let switches f = List.fold_left (fun a (_, sw) -> a + f sw) 0 owned in
    let state f = switches (fun sw -> f (Switch.state sw)) in
    let pools f = Array.fold_left (fun a p -> a + f p) 0 pools in
    {
      fp = List.map (fun (id, sw) -> (id, switch_fp (Switch.state sw))) owned;
      tpp =
        [ state (fun s -> s.SS.tpp_execs); state (fun s -> s.SS.tpp_faults);
          state (fun s -> s.SS.tpp_cycles) ];
      p_faults =
        Option.fold ~none:zero_faults ~some:(fun f -> fault_list (Fault.stats f)) fault;
      outstanding = pools Frame.Pool.outstanding;
      words;
      sums =
        [ ("compile_hits", float_of_int (state (fun s -> s.SS.tpp_compile_hits)));
          ("compile_misses", float_of_int (state (fun s -> s.SS.tpp_compile_misses)));
          ("pool_created", float_of_int (pools Frame.Pool.created));
          ("pool_reused", float_of_int (pools Frame.Pool.reused));
          ("switches", float_of_int (List.length owned));
          ("fib_entries", float_of_int (switches Switch.l3_size)) ];
      tap =
        Option.map
          (fun (sink, col) ->
            Collector.absorb col sink;
            (col, Telemetry_sink.dropped sink))
          tap;
    }

let add_up = List.fold_left (List.map2 ( + ))

let run_fabric spec ~oracle ~shards =
  let build = build spec ~oracle in
  let (events, delivered, stats, parts), wall =
    timed (fun () ->
        if shards = 0 then begin
          let eng = Engine.create () in
          let net = build eng in
          let finish = setup spec ~oracle ~owns:(fun _ -> true) net in
          Engine.run eng ~until:horizon;
          (Engine.events_processed eng, Net.frames_delivered net, None, [ finish () ])
        end
        else begin
          let finish = Array.make shards (fun () -> assert false) in
          let stats, parts =
            Parsim.run ~shards ~until:horizon ~build
              ~setup:(fun ~shard ~owns net -> finish.(shard) <- setup spec ~oracle ~owns net)
              ~collect:(fun ~shard ~owns:_ _ -> finish.(shard) ())
              ()
          in
          (stats.Parsim.events, stats.Parsim.delivered, Some stats, Array.to_list parts)
        end)
  in
  let words f = List.fold_left (fun a p -> a +. f p.words) 0.0 parts in
  let fp =
    List.concat_map (fun p -> p.fp) parts |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let sums =
    List.fold_left
      (fun a p -> List.map2 (fun (k, x) (_, y) -> (k, x +. y)) a p.sums)
      (List.map (fun (k, _) -> (k, 0.0)) (List.hd parts).sums)
      parts
  in
  let taps = List.filter_map (fun p -> p.tap) parts in
  let merged = Collector.create () in
  List.iter (fun (col, _) -> Collector.merge ~into:merged col) taps;
  let f = float_of_int in
  let tpp = add_up [ 0; 0; 0 ] (List.map (fun p -> p.tpp) parts) in
  {
    events;
    delivered;
    registers = List.fold_left (fun h (id, regs) -> List.fold_left mix (mix h id) regs) 0 fp;
    tpp_execs = List.nth tpp 0;
    tpp_faults = List.nth tpp 1;
    tpp_cycles = List.nth tpp 2;
    faults = add_up zero_faults (List.map (fun p -> p.p_faults) parts);
    cards = (if taps = [] then 0 else Collector.cards merged);
    collector = (if taps = [] then 0 else Collector.fingerprint merged);
    pool_outstanding = List.fold_left (fun a p -> a + p.outstanding) 0 parts;
    boundary_outstanding =
      Option.fold ~none:0 ~some:(fun s -> s.Parsim.boundary_outstanding) stats;
    wall;
    minor_pe = per events (words fst);
    promoted_pe = per events (words snd);
    metrics =
      sums
      @ [ ("fib_per_switch", List.assoc "fib_entries" sums /. List.assoc "switches" sums) ]
      @ (if taps = [] then []
         else [ ("cards_dropped", f (List.fold_left (fun a (_, d) -> a + d) 0 taps)) ])
      @
      match stats with
      | None -> []
      | Some s ->
        [ ("rounds", f s.Parsim.rounds); ("boundary_messages", f s.Parsim.messages);
          ("boundary_chunks", f s.Parsim.chunks); ("cut_links", f s.Parsim.cut_links);
          ("lookahead_ns", f s.Parsim.lookahead) ];
  }

(* ---- transport flow sets -------------------------------------------- *)

let flow_chaos_drop = 0.01

(* A chaotic flow set drops on every access link. Fct runs every shard,
   a lone one included, in a domain of its own, out of sight of this
   domain's counters: a flow set's allocation is left unmeasured (null)
   rather than reported as this domain's near-zero. *)
let run_flows spec transport params ~shards =
  let p =
    if spec.chaos = Chaotic then { params with Fct.f_chaos_drop = flow_chaos_drop }
    else params
  in
  let o, wall = timed (fun () -> Fct.fabric_run ~shards:(max 1 shards) transport p) in
  let short = Fct.summarize (Fct.short_samples o ~threshold:p.Fct.f_short_bytes) in
  let long =
    Fct.summarize
      (List.filter (fun (size, _) -> size > p.Fct.f_short_bytes) o.Fct.fo_samples)
  in
  let f = float_of_int in
  {
    blank with
    events = o.Fct.fo_events;
    delivered = o.Fct.fo_completed;
    registers = digest (Fct.fingerprint o);
    wall;
    minor_pe = nan;
    promoted_pe = nan;
    metrics =
      [ ("started", f o.Fct.fo_started);
        ("completed_frac", per o.Fct.fo_started (f o.Fct.fo_completed));
        ("short_p50_ns", f short.Fct.fs_p50_ns); ("short_p99_ns", f short.Fct.fs_p99_ns);
        ("long_p50_ns", f long.Fct.fs_p50_ns); ("long_p99_ns", f long.Fct.fs_p99_ns);
        ("drops", f o.Fct.fo_drops); ("trims", f o.Fct.fo_trims);
        ("invariants_ok", if o.Fct.fo_ok then 1.0 else 0.0) ];
  }

(* ---- microbenches --------------------------------------------------- *)

(* Compacted live words before and after [f], whose result stays alive
   across the second compaction: the structure's steady-state
   footprint, not its garbage. *)
let run_build spec =
  let (bytes, (_eng, net)), wall =
    timed (fun () ->
        Gc.compact ();
        let w0 = (Gc.stat ()).Gc.live_words in
        let keep =
          Sys.opaque_identity
            (let eng = Engine.create () in
             (eng, build spec ~oracle:false eng))
        in
        Gc.compact ();
        ((Gc.stat ()).Gc.live_words - w0, keep))
  in
  let hosts = List.length (Net.hosts net) in
  let switches = Net.switches net in
  let fib =
    per (List.length switches)
      (float_of_int (List.fold_left (fun a (_, sw) -> a + Switch.l3_size sw) 0 switches))
  in
  {
    blank with
    wall;
    minor_pe = nan;  (* a build has no events: bytes_per_host is its figure *)
    promoted_pe = nan;
    metrics =
      [ ("hosts", float_of_int hosts);
        ("bytes_per_host", per hosts (float_of_int (bytes * (Sys.word_size / 8))));
        ("fib_per_switch", fib);
        (* The /32 oracle installs every host on every switch. *)
        ("fib_reduction", float_of_int hosts /. fib) ];
  }

let sink_cards_per_chunk = 1024
let sink_max_chunks = 64
let sink_cap = sink_max_chunks * sink_cards_per_chunk * Telemetry_wire.bytes_per_card

(* Synthetic hop cards through a default-shaped sink into a collector
   that drains every ~8k cards, i.e. always keeps up; the largest
   footprint seen across rotations is the bounded-memory witness. *)
let run_ingest cards =
  let sink =
    Telemetry_sink.create ~cards_per_chunk:sink_cards_per_chunk
      ~max_chunks:sink_max_chunks ()
  in
  let col = Collector.create () in
  let max_bytes = ref 0 in
  let m0 = Gc.minor_words () in
  let (), wall =
    timed (fun () ->
        for i = 0 to cards - 1 do
          Telemetry_sink.emit_hop sink ~now:(i * 50) ~switch_id:(i land 63)
            ~in_port:(i land 3) ~out_port:((i lsr 2) land 3)
            ~queue_bytes:(i land 0xFFFF) ~version:1 ~frame_id:i
            ~flow_hash:(i land 1023) ~wire_bytes:1000 ~entry:1;
          if i land 0x1FFF = 0x1FFF then begin
            max_bytes := max !max_bytes (Telemetry_sink.card_bytes_alive sink);
            Collector.absorb col sink
          end
        done;
        Collector.absorb col sink)
  in
  {
    blank with
    events = cards;
    cards = Collector.cards col;
    wall;
    minor_pe = per cards (Gc.minor_words () -. m0);
    metrics =
      [ ("cards_dropped", float_of_int (Telemetry_sink.dropped sink));
        ("max_sink_bytes", float_of_int !max_bytes) ];
  }

let run_overload () =
  let cards_per_chunk = 256 and max_chunks = 8 in
  let sink = Telemetry_sink.create ~cards_per_chunk ~max_chunks () in
  let offered = 10 * max_chunks * cards_per_chunk in
  let drained = ref 0 in
  let m0 = Gc.minor_words () in
  let (), wall =
    timed (fun () ->
        for i = 0 to offered - 1 do
          Telemetry_sink.emit_hop sink ~now:i ~switch_id:0 ~in_port:0 ~out_port:0
            ~queue_bytes:0 ~version:1 ~frame_id:i ~flow_hash:0 ~wire_bytes:64
            ~entry:0
        done)
  in
  let held = Telemetry_sink.card_bytes_alive sink in
  Telemetry_sink.drain sink (fun _ ~off:_ -> incr drained);
  let f = float_of_int in
  {
    blank with
    events = offered;
    cards = !drained;
    wall;
    minor_pe = per offered (Gc.minor_words () -. m0);
    metrics =
      [ ("cards_dropped", f (Telemetry_sink.dropped sink)); ("held_bytes", f held);
        ("cap_bytes", f (max_chunks * cards_per_chunk * Telemetry_wire.bytes_per_card)) ];
  }

(* k1-scale cluster width in q-space at q: a cluster spans at most dq
   where k(q+dq) - k(q) = 1, with k'(q) = delta / (2 pi sqrt (q (1-q))),
   so interpolation cannot miss the true rank by more than
   2 pi sqrt (q (1-q)) / delta, plus the oracle's own 1/n. *)
let td_delta = 100.0

let td_rank_bound ~n q =
  (2.0 *. Float.pi /. td_delta *. sqrt (q *. (1.0 -. q))) +. (1.0 /. float_of_int n)

let run_sketch samples =
  let rng = Rng.create ~seed:4242 in
  let t0 = Unix.gettimeofday () and m0 = Gc.minor_words () in
  (* Count-min vs an exact table; min-of-two-uniforms gives the stream
     genuine heavy hitters. *)
  let keys = 4096 in
  let cms = Sketch.Cms.create () in
  let shard_cms = Array.init 4 (fun _ -> Sketch.Cms.create ()) in
  let exact = Hashtbl.create keys in
  for i = 0 to samples - 1 do
    let key = min (Rng.int rng keys) (Rng.int rng keys) in
    let w = 64 + Rng.int rng 1400 in
    Sketch.Cms.add cms ~key w;
    Sketch.Cms.add shard_cms.(i land 3) ~key w;
    Hashtbl.replace exact key (w + Option.value ~default:0 (Hashtbl.find_opt exact key))
  done;
  let total = Sketch.Cms.total cms in
  let bound = Float.ceil (Sketch.Cms.epsilon cms *. float_of_int total) in
  let max_over = ref 0 and under = ref 0 and viol = ref 0 in
  Hashtbl.iter
    (fun key v ->
      let over = Sketch.Cms.estimate cms ~key - v in
      if over < 0 then incr under;
      max_over := max !max_over over;
      if float_of_int over > bound then incr viol)
    exact;
  let merged = Sketch.Cms.create () in
  Array.iter (fun s -> Sketch.Cms.merge ~into:merged s) shard_cms;
  (* Estimates never underestimate, so the exact-heaviest key must pass
     a threshold of its own exact count. *)
  let top_key, top =
    Hashtbl.fold (fun k v ((_, bv) as b) -> if v > bv then (k, v) else b) exact (-1, min_int)
  in
  let hh =
    Sketch.Cms.heavy_hitters cms ~candidates:(List.init keys Fun.id) ~threshold:top
  in
  (* t-digest vs the exact sorted sample: where the digest's answer
     really falls in the data, against the q asked. A 4-way merged
     digest may coarsen once, so it gets twice the bound. *)
  let td = Sketch.Tdigest.create ~delta:td_delta () in
  let shard_td = Array.init 4 (fun _ -> Sketch.Tdigest.create ~delta:td_delta ()) in
  let vals = Array.init samples (fun _ -> Rng.exponential rng ~mean:250.0) in
  Array.iteri
    (fun i v ->
      Sketch.Tdigest.add td v;
      Sketch.Tdigest.add shard_td.(i land 3) v)
    vals;
  Array.sort compare vals;
  let rank_of v =
    let lo = ref 0 and hi = ref samples in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if vals.(mid) <= v then lo := mid + 1 else hi := mid
    done;
    float_of_int !lo /. float_of_int samples
  in
  let merged_td = Sketch.Tdigest.create ~delta:td_delta () in
  Array.iter (fun s -> Sketch.Tdigest.merge ~into:merged_td s) shard_td;
  let ratio d scale =
    List.fold_left
      (fun a q ->
        let err = Float.abs (rank_of (Sketch.Tdigest.quantile d q) -. q) in
        Float.max a (err /. (scale *. td_rank_bound ~n:samples q)))
      0.0 [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]
  in
  let f = float_of_int in
  {
    blank with
    events = samples;
    wall = Unix.gettimeofday () -. t0;
    minor_pe = per samples (Gc.minor_words () -. m0);
    metrics =
      [ ("cms_bound", bound); ("cms_max_over", f !max_over);
        ("cms_underestimates", f !under); ("cms_violations", f !viol);
        ("cms_merged_equal", if Sketch.Cms.equal cms merged then 1.0 else 0.0);
        ("heaviest_found", if List.mem_assoc top_key hh then 1.0 else 0.0);
        ("td_centroids", f (Sketch.Tdigest.centroids td));
        ("td_error_over_bound", ratio td 1.0);
        ("td_merged_error_over_2x_bound", ratio merged_td 2.0) ];
  }

(* One switch whose data subqueue is too small for any data frame, so
   every ingress overflows: trimmed onto the priority queue when
   trimming is on, dropped when off. Returns (trims, exact minor words
   per frame). *)
let trim_words ~trim ~iters =
  let dst_ip = Ipv4.Addr.of_host_id 2 in
  let sw = Switch.create ~id:1 ~num_ports:2 () in
  Switch.install_route sw (Ipv4.Prefix.host dst_ip) ~port:1 ~entry_id:1 ~version:1;
  Switch.configure_queues sw ~port:1 ~count:2;
  Switch.set_subqueue_limit sw ~port:1 ~queue:0 ~bytes:512;
  Switch.set_subqueue_limit sw ~port:1 ~queue:1 ~bytes:1_000_000;
  if trim then Switch.set_trim_keep sw ~keep:28;
  let pool = Frame.Pool.create ~capacity:4 () in
  let payload = Bytes.make 1000 'x' in
  (* The unboxed dequeue, as the simulator drives it. *)
  let none = Frame.placeholder () in
  let one now =
    let f =
      Frame.Pool.udp_frame pool ~src_mac:(Mac.of_host_id 1) ~dst_mac:(Mac.of_host_id 2)
        ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip ~src_port:5 ~dst_port:6 ~payload ()
    in
    match Switch.handle_ingress sw ~now ~in_port:0 f with
    | Switch.Queued _ ->
      let g = Switch.dequeue_or sw ~port:1 ~default:none in
      if g != none then Frame.recycle g
    | Switch.Dropped _ -> Frame.recycle f
  in
  for i = 0 to 99 do
    one i (* warm the pool and the priority ring *)
  done;
  let m0 = Gc.minor_words () in
  for i = 0 to iters - 1 do
    one (100 + i)
  done;
  (Switch.trims sw, per iters (Gc.minor_words () -. m0))

let run_trim iters =
  let ((drop_trims, drop_w), (trims, trim_w)), wall =
    timed (fun () -> (trim_words ~trim:false ~iters, trim_words ~trim:true ~iters))
  in
  {
    blank with
    events = iters;
    wall;
    minor_pe = trim_w;
    metrics =
      [ ("trims", float_of_int trims); ("drop_path_trims", float_of_int drop_trims);
        ("drop_path_words", drop_w); ("trim_minus_drop_words", trim_w -. drop_w) ];
  }

(* ---- one runner ----------------------------------------------------- *)

(* The row run at [shards] (0 = the sequential engine), or its oracle. *)
let run ?(oracle = false) spec ~shards =
  match spec.traffic with
  | Collect | Heavy | Pooled | Postcard ->
    if oracle_is spec ~oracle Interpreter then begin
      Tcpu.set_default_backend Tcpu.Interpreter;
      Fun.protect
        ~finally:(fun () -> Tcpu.set_default_backend Tcpu.Compiled)
        (fun () -> run_fabric spec ~oracle ~shards)
    end
    else run_fabric spec ~oracle ~shards
  | Flows (t, p) -> run_flows spec t p ~shards
  | Build -> run_build spec
  | Ingest cards -> run_ingest cards
  | Overload -> run_overload ()
  | Sketch samples -> run_sketch samples
  | Trim iters -> run_trim iters

(* Fields an oracle or a sharded run must reproduce exactly. Event
   counts of a flow set, and of a tapped fabric whose every shard ticks
   its own collector, depend on the shard layout. *)
let identity spec r =
  (match spec.traffic with Flows _ | Postcard -> [] | _ -> [ ("events", r.events) ])
  @ [ ("delivered", r.delivered); ("registers", r.registers);
      ("tpp_execs", r.tpp_execs); ("tpp_faults", r.tpp_faults);
      ("tpp_cycles", r.tpp_cycles); ("cards", r.cards); ("collector", r.collector) ]
  @ List.combine fault_names r.faults

(* The first identity field in which [got] differs from [expected]. *)
let check_identity spec expected got =
  match
    List.find_opt
      (fun ((_, want), (_, have)) -> want <> have)
      (List.combine (identity spec expected) (identity spec got))
  with
  | None -> (Pass, "identical")
  | Some ((field, want), (_, have)) ->
    (Fail, Printf.sprintf "%s differs (%d vs %d)" field have want)

let oracle_name = function
  | Sequential -> "sequential run"
  | Interpreter -> "interpreter backend"
  | Unpooled -> "unpooled frames"
  | Host32 -> "per-host /32 FIBs"
  | Always -> "Always wire check"
  | Bare -> "no fault schedule"

let workload spec =
  let topo =
    match spec.topo with
    | Fat_tree k -> Printf.sprintf "fat-tree k=%d (ECMP, %d hosts)" k (k * k * k / 4)
    | Pods k ->
      Printf.sprintf "fat-tree k=%d (ECMP, %d hosts, aggregated FIBs)" k (k * k * k / 4)
    | Leaf_spine (l, s, h) -> Printf.sprintf "leaf-spine %dx%d (%d hosts)" l s (l * h)
    | Fct_fabric -> Printf.sprintf "fat-tree k=%d" Fct.fabric_default.Fct.fk
    | No_fabric -> "one process"
  in
  let per_host what = Printf.sprintf "%d %s UDP packets/host" spec.packets what in
  let traffic =
    match spec.traffic with
    | Collect -> per_host "collect-TPP"
    | Heavy -> per_host "99-instruction-TPP (1 in 16 faulting)"
    | Pooled -> per_host "pooled plain"
    | Postcard -> per_host "pooled plain" ^ ", binary tap on every switch"
    | Flows (t, p) ->
      Printf.sprintf "%s flow set at load %.2f for %d ms" (Fct.transport_name t)
        p.Fct.f_load (p.Fct.f_duration / 1_000_000)
    | Build -> "build only"
    | Ingest n -> Printf.sprintf "%d postcards through a 64-chunk sink" n
    | Overload -> "an 8-chunk sink offered 10x its capacity"
    | Sketch n -> Printf.sprintf "%d samples into CMS and t-digest" n
    | Trim n -> Printf.sprintf "%d frames into a full data queue" n
  in
  let chaos =
    match spec.chaos with
    | No_chaos -> ""
    | Empty -> ", empty fault schedule"
    | Chaotic -> ", chaotic fault schedule"
  in
  Printf.sprintf "%s, %s%s" topo traffic chaos

(* ---- assertions ----------------------------------------------------- *)

let runs c = (c.seq :: Option.to_list c.oracle_run) @ List.map snd c.sharded
let ok b = if b then Pass else Fail

let holds what test detail = { what; eval = (fun c -> (ok (test c), detail c)) }

let at_most ?(over = Fail) what limit get =
  { what;
    eval = (fun c ->
      let v = get c in
      ((if v <= limit then Pass else over), Printf.sprintf "%.4g, limit %.4g" v limit)) }

let at_least ?(under = Fail) what limit get =
  { what;
    eval = (fun c ->
      let v = get c in
      ((if v >= limit then Pass else under), Printf.sprintf "%.4g, floor %.4g" v limit)) }

let oracle_of c = Option.get c.oracle_run

(* Speed and allocation ratios of smoke-size runs measure fixed costs,
   not the fabric: such an assertion still runs and is recorded there,
   but as a loud skip. *)
let at_full_size a =
  { a with
    eval = (fun c ->
      let v, d = a.eval c in
      if c.smoke && v <> Pass then (Skip, d ^ "; not judged at smoke size") else (v, d)) }

let drained =
  holds "every traffic-pool and boundary frame back in its pool"
    (fun c ->
      List.for_all (fun r -> r.pool_outstanding = 0 && r.boundary_outstanding = 0) (runs c))
    (fun c ->
      let sum f = List.fold_left (fun a r -> a + f r) 0 (runs c) in
      Printf.sprintf "%d traffic-pool, %d boundary frames outstanding"
        (sum (fun r -> r.pool_outstanding)) (sum (fun r -> r.boundary_outstanding)))

let sharded_alloc =
  at_full_size @@ holds "sharded minor words/event <= 2x sequential"
    (fun c -> List.for_all (fun (_, r) -> r.minor_pe <= 2.0 *. c.seq.minor_pe) c.sharded)
    (fun c ->
      String.concat ", "
        (Printf.sprintf "sequential %.2f" c.seq.minor_pe
        :: List.map (fun (s, r) -> Printf.sprintf "%d-shard %.2f" s r.minor_pe) c.sharded))

(* A 1-2 core machine cannot speed anything up: asserting there would
   only test the scheduler's mercy, so the skip is loud and recorded. *)
let speedup_gate =
  at_full_size
    { what = "sharded events/sec >= 2x sequential";
      eval = (fun c ->
        let cores = Domain.recommended_domain_count () in
        match List.rev c.sharded with
        | [] -> (Skip, "no sharded run")
        | (s, r) :: _ ->
          let x = c.seq.wall /. r.wall in
          let d = Printf.sprintf "%.2fx at %d shards on %d core(s)" x s cores in
          if cores < 4 then (Skip, d ^ "; needs >= 4 cores") else (ok (x >= 2.0), d)) }

let faults_fire =
  holds "every fault class fires"
    (fun c ->
      match c.seq.faults with
      | [ lost; dropped; hdr; fcs; frozen; restarts ] ->
        lost > 0 && dropped > 0 && hdr + fcs > 0 && frozen > 0 && restarts = 1
      | _ -> false)
    (fun c ->
      String.concat " "
        (List.map2 (Printf.sprintf "%s=%d") fault_names c.seq.faults))

let no_cards_dropped =
  holds "no postcard dropped"
    (fun c -> List.for_all (fun r -> metric "cards_dropped" r = 0.0) (runs c))
    (fun c -> Printf.sprintf "%d cards collected" c.seq.cards)

let as_fast_as row =
  at_full_size
  { what = Printf.sprintf "events/sec >= row %s's" row;
    eval = (fun c ->
      match c.prior row with
      | None -> (Skip, Printf.sprintf "row %s did not run in this invocation" row)
      | Some p ->
        (ok (eps c.seq >= eps p), Printf.sprintf "%.3e vs %.3e" (eps c.seq) (eps p))) }

let completes =
  at_least ~under:Warn
    "completed fraction >= 0.9 (FCT percentiles cover completed flows only)" 0.9
    (fun c -> metric "completed_frac" c.seq)

let beats_p99 row =
  { what = Printf.sprintf "99p short-flow FCT beats row %s's" row;
    eval = (fun c ->
      match c.prior row with
      | None -> (Skip, Printf.sprintf "row %s did not run in this invocation" row)
      | Some p ->
        let a = metric "short_p99_ns" c.seq and b = metric "short_p99_ns" p in
        (ok (a > 0.0 && a < b), Printf.sprintf "%.0f us vs %.0f us" (a /. 1e3) (b /. 1e3))) }

(* ---- the table ------------------------------------------------------ *)

let spec ?(chaos = No_chaos) ?(packets = 0) ?(shards = []) ?(oracle = Sequential)
    ?(best_of_two = false) ?(asserts = []) name ~why topo traffic =
  { name; why; topo; traffic; chaos; packets; shards; oracle; best_of_two; asserts }

let flow_load = 0.6

let flow_row ~smoke ~load transport =
  let name = Printf.sprintf "flows-%s-%.2f" (Fct.transport_name transport) load in
  let params =
    { Fct.fabric_default with
      Fct.f_load = load;
      f_duration = Time_ns.ms (if smoke then 80 else 300) }
  in
  let gate = load = flow_load in
  spec name Fct_fabric (Flows (transport, params))
    ~why:
      "five transports over one pre-drawn Poisson/Pareto workload: at the \
       gate load each is bit-identical sequential vs 4-shard, and NDP's 99p \
       short-flow FCT beats TCP's"
    ~shards:(if gate then [ 4 ] else [])
    ~asserts:
      (completes
      :: (if gate && transport = Fct.Ndp_t then
            [ beats_p99 (Printf.sprintf "flows-tcp-%.2f" load) ]
          else []))

(* [smoke] picks CI sizes: every row and every assertion still runs,
   smaller. *)
let table ~smoke =
  let pick s full = if smoke then s else full in
  let k = pick 4 8 and packets = pick 200 1500 and shards = pick [ 2 ] [ 4 ] in
  [ spec "collect" (Fat_tree k) Collect ~packets ~shards:(pick [ 2; 4 ] [ 4 ])
      ~oracle:Always ~asserts:[ drained ]
      ~why:
        "determinism: sharded runs reproduce the sequential engine's counts \
         and every switch register, boundary pools drain, and the cached wire \
         check forwards exactly what the full round trip does";
    spec "tpp-heavy" (Fat_tree k) Heavy ~packets:(pick 150 1500) ~shards
      ~oracle:Interpreter
      ~asserts:
        [ at_least ~under:Warn "compiled >= 2x interpreter wall" 2.0 (fun c ->
              (oracle_of c).wall /. c.seq.wall) ]
      ~why:
        "the compiled TCPU matches the interpreter event for event, \
         sequential and sharded";
    spec "chaos-empty" (Fat_tree k) Collect ~packets ~chaos:Empty ~oracle:Bare
      ~best_of_two:true
      ~asserts:
        [ at_most "empty-schedule wall / unattached wall" 1.5 (fun c ->
              c.seq.wall /. (oracle_of c).wall) ]
      ~why:"an attached but empty fault schedule changes nothing and costs next to nothing";
    spec "chaos" (Fat_tree k) Collect ~packets ~chaos:Chaotic ~shards
      ~asserts:[ faults_fire ]
      ~why:
        "flaps, loss, corruption, freeze-restart and degradation at once stay \
         bit-identical sequential vs sharded";
    spec "pooled" (Fat_tree k) Pooled ~packets ~shards ~oracle:Unpooled ~best_of_two:true
      ~asserts:
        [ at_most "pooled minor words/event" (pick 6.0 10.0) (fun c -> c.seq.minor_pe);
          drained; sharded_alloc;
          at_full_size (at_least ~under:Warn "events/sec" 2.4e6 (fun c -> eps c.seq)) ]
      ~why:
        "pooled flat frames stay inside the allocation budget and are \
         bit-identical to the allocate-per-send lifecycle, sequential and sharded";
    spec "pooled-chaos" (Fat_tree k) Pooled ~packets ~chaos:Chaotic ~oracle:Unpooled
      ~asserts:[ drained ]
      ~why:
        "pooled frames match the unpooled lifecycle under the full fault \
         schedule, fault counts included";
    spec "shards-speedup" (Fat_tree k) Pooled ~packets:(pick 200 400) ~shards:[ 4 ]
      ~best_of_two:true
      ~asserts:[ drained; sharded_alloc; speedup_gate ]
      ~why:
        "the flat boundary at 4 shards: identity and drained pools on any \
         machine, the 2x speedup only where >= 4 cores can show it";
    spec "postcard" (Fat_tree k) Postcard ~packets ~shards ~asserts:[ no_cards_dropped ]
      ~why:
        "switch taps card each hop exactly once fabric-wide: merged shard \
         collectors reproduce the sequential collector bit for bit";
    spec "ingest" No_fabric (Ingest (pick 1_000_000 8_000_000)) ~best_of_two:true
      ~asserts:
        [ holds "every card collected, none dropped"
            (fun c -> c.seq.cards = c.seq.events && metric "cards_dropped" c.seq = 0.0)
            (fun c -> Printf.sprintf "%d of %d" c.seq.cards c.seq.events);
          at_most "sink footprint (bytes)" (float_of_int sink_cap) (fun c ->
              metric "max_sink_bytes" c.seq);
          at_least "cards/sec" 1e6 (fun c -> eps c.seq) ]
      ~why:"the postcard pipeline sustains >= 1e6 cards/sec in bounded memory";
    spec "overload" No_fabric Overload
      ~asserts:
        [ holds "held <= cap, every offered card drained or counted dropped"
            (fun c ->
              let r = c.seq in
              metric "held_bytes" r <= metric "cap_bytes" r
              && metric "cards_dropped" r > 0.0
              && float_of_int r.cards +. metric "cards_dropped" r = float_of_int r.events)
            (fun c ->
              Printf.sprintf "%d drained + %.0f dropped of %d" c.seq.cards
                (metric "cards_dropped" c.seq) c.seq.events) ]
      ~why:"an overrun sink cannibalises its oldest chunk and keeps exact accounts";
    spec "sketch" No_fabric (Sketch (pick 50_000 200_000))
      ~asserts:
        [ holds "exact-heaviest key among the CMS heavy hitters"
            (fun c -> metric "heaviest_found" c.seq = 1.0)
            (fun c -> Printf.sprintf "%d samples" c.seq.events);
          holds "CMS never under, never past eps x total; 4-way merge identical"
            (fun c ->
              let m k = metric k c.seq in
              m "cms_underestimates" = 0.0 && m "cms_violations" = 0.0
              && m "cms_merged_equal" = 1.0)
            (fun c ->
              Printf.sprintf "max over %.0f, bound %.0f" (metric "cms_max_over" c.seq)
                (metric "cms_bound" c.seq));
          holds "t-digest inside the k1 rank bound (2x merged), centroids capped"
            (fun c ->
              let m k = metric k c.seq in
              m "td_error_over_bound" <= 1.0
              && m "td_merged_error_over_2x_bound" <= 1.0
              && m "td_centroids" <= (2.0 *. td_delta) +. 8.0)
            (fun c ->
              Printf.sprintf "%.2f, merged %.2f of bound; %.0f centroids"
                (metric "td_error_over_bound" c.seq)
                (metric "td_merged_error_over_2x_bound" c.seq)
                (metric "td_centroids" c.seq)) ]
      ~why:"sketch answers sit inside their proven error bounds of exact oracles";
    spec "scale" (Pods (pick 8 16)) Pooled ~packets:(pick 100 400) ~shards
      ~oracle:Host32 ~best_of_two:(not smoke)
      ~asserts:
        [ drained;
          at_least "FIB reduction vs the /32 oracle" 2.0 (fun c ->
              metric "fib_per_switch" (oracle_of c) /. metric "fib_per_switch" c.seq);
          as_fast_as "pooled" ]
      ~why:
        "aggregated FIBs forward bit-identically to per-host /32 routes, \
         sequential and sharded";
    spec "scale-wide" (Pods (pick 16 32)) Pooled ~packets:(pick 2 80) ~shards
      ~asserts:[ drained ]
      ~why:
        "the widest aggregated fabric (8192 hosts; 1024 at smoke size) stays \
         bit-identical and leak-free under sharding";
    spec "fib-k32" (Pods 32) Build
      ~asserts:
        [ at_least "k=32 FIB reduction vs per-host /32" 50.0 (fun c ->
              metric "fib_reduction" c.seq) ]
      ~why:
        "aggregation shrinks the k=32 FIB >= 50x (the /32 census is the \
         closed form: one entry per host)";
    spec "leaf-spine" (Leaf_spine (8, 4, 10)) Pooled ~packets:200 ~shards
      ~asserts:
        [ drained;
          holds "delivers every frame"
            (fun c -> c.seq.delivered = 8 * 10 * 200)
            (fun c -> Printf.sprintf "%d of %d" c.seq.delivered (8 * 10 * 200)) ]
      ~why:"the memory-lean leaf-spine still forwards, identically under sharding";
    spec "leaf-spine-100k" (Leaf_spine (400, 8, 250)) Build
      ~asserts:
        [ at_most "build bytes/idle host" 200.0 (fun c -> metric "bytes_per_host" c.seq) ]
      ~why:"SoA link state and flyweight hosts fit a 100k-host fabric in <= 200 bytes/host" ]
  @ List.concat_map
      (fun t ->
        List.map (fun load -> flow_row ~smoke ~load t)
          (pick [ flow_load ] [ 0.2; 0.4; flow_load; 0.8 ]))
      Fct.all_transports
  @ [ spec "ndp-chaos" Fct_fabric
        (Flows
           ( Fct.Ndp_t,
             (* Moderate load and capped sizes make 100% completion the
                right criterion: an uncapped Pareto tail at peak load can
                leave more backlog than any transport drains in time. *)
             { Fct.fabric_default with
               Fct.f_load = 0.4;
               f_duration = Time_ns.ms (pick 80 300);
               f_max_bytes = 100_000 } ))
        ~chaos:Chaotic
        ~asserts:
          [ holds "every started message completes, invariants hold"
              (fun c ->
                let started = metric "started" c.seq in
                started > 0.0 && float_of_int c.seq.delivered = started
                && metric "invariants_ok" c.seq = 1.0)
              (fun c ->
                Printf.sprintf "%d of %.0f" c.seq.delivered (metric "started" c.seq)) ]
        ~why:"NDP recovers every message under 1% access-link loss";
      spec "trim" No_fabric (Trim (pick 20_000 200_000))
        ~asserts:
          [ holds "every frame trimmed with trimming on, none with it off"
              (fun c ->
                metric "drop_path_trims" c.seq = 0.0
                && metric "trims" c.seq >= float_of_int c.seq.events)
              (fun c -> Printf.sprintf "%.0f trims" (metric "trims" c.seq));
            at_most "trim minus drop minor words/frame" 2.0 (fun c ->
                metric "trim_minus_drop_words" c.seq) ]
        ~why:"trim-to-header is an in-place length patch: no allocation over the drop path" ]

(* ---- running and recording ------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      if ch = '"' || ch = '\\' then Buffer.add_char b '\\';
      Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let record_json r =
  Printf.sprintf
    "\"events\": %d, \"delivered\": %d, \"registers\": %d, \"tpp_execs\": %d, \
     \"tpp_faults\": %d, \"tpp_cycles\": %d, \"faults\": [%s], \"cards\": %d, \
     \"collector\": %d, \"pool_outstanding\": %d, \"boundary_outstanding\": %d, \
     \"wall_s\": %s, \"events_per_sec\": %s, \"minor_words_per_event\": %s, \
     \"promoted_words_per_event\": %s, \"metrics\": {%s}"
    r.events r.delivered r.registers r.tpp_execs r.tpp_faults r.tpp_cycles
    (String.concat ", " (List.map string_of_int r.faults))
    r.cards r.collector r.pool_outstanding r.boundary_outstanding
    (json_float r.wall) (json_float (eps r)) (json_float r.minor_pe)
    (json_float r.promoted_pe)
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_float v))
          r.metrics))

let summary r =
  Printf.sprintf
    "%d events, %d delivered in %.3fs (%.3e ev/s, %.2f minor + %.3f promoted w/ev)"
    r.events r.delivered r.wall (eps r) r.minor_pe r.promoted_pe

let verdict_name = function
  | Pass -> "pass"
  | Warn -> "WARNING"
  | Skip -> "SKIPPED"
  | Fail -> "FAIL"

(* Runs one row: sequential, then its oracle, then each shard count,
   then every assertion. Identity checks are verdicts like the
   assertions: a failure is printed, recorded and counted, and the
   table carries on so one run still records every row. Returns the
   sequential run, the row's JSON line and whether anything failed. *)
let run_row ~smoke ~prior spec =
  let tag = Printf.sprintf "perf(%s)" spec.name in
  Printf.printf "%s: %s\n%!" tag (workload spec);
  let verdicts = ref [] in
  let judge what (v, detail) =
    Printf.printf "%s: %s %s — %s\n%!" tag (verdict_name v) what detail;
    if v = Fail then Printf.eprintf "%s: FAIL — %s: %s\n%!" tag what detail;
    verdicts := (what, v, detail) :: !verdicts
  in
  let best f =
    let a = f () in
    if spec.best_of_two then (let b = f () in if b.wall < a.wall then b else a) else a
  in
  let seq = best (fun () -> run spec ~shards:0) in
  Printf.printf "%s: sequential %s\n%!" tag (summary seq);
  let oracle =
    if spec.oracle = Sequential then None
    else begin
      let o = best (fun () -> run ~oracle:true spec ~shards:0) in
      Printf.printf "%s: oracle (%s) %s\n%!" tag (oracle_name spec.oracle) (summary o);
      judge ("sequential run == " ^ oracle_name spec.oracle) (check_identity spec o seq);
      Some o
    end
  in
  let sharded =
    List.map
      (fun s ->
        let r = run spec ~shards:s in
        Printf.printf "%s: %d-shard %s\n%!" tag s (summary r);
        judge (Printf.sprintf "%d-shard run == sequential run" s) (check_identity spec seq r);
        (s, r))
      spec.shards
  in
  if seq.metrics <> [] then
    Printf.printf "%s: %s\n%!" tag
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s %.4g" k v) seq.metrics));
  let ctx = { smoke; seq; oracle_run = oracle; sharded; prior } in
  List.iter (fun a -> judge a.what (a.eval ctx)) spec.asserts;
  let verdicts = List.rev !verdicts in
  let run_json label r =
    Printf.sprintf "{\"run\": %s, %s}" (json_string label) (record_json r)
  in
  let line =
    Printf.sprintf
      "{\"row\": %s, \"why\": %s, \"workload\": %s, \"oracle\": %s, %s, \
       \"runs\": [%s], \"assertions\": [%s]}"
      (json_string spec.name) (json_string spec.why) (json_string (workload spec))
      (json_string (oracle_name spec.oracle)) (record_json seq)
      (String.concat ", "
         (Option.to_list (Option.map (run_json "oracle") oracle)
         @ List.map (fun (s, r) -> run_json (Printf.sprintf "%d-shard" s) r) sharded))
      (String.concat ", "
         (List.map
            (fun (what, v, detail) ->
              Printf.sprintf "{\"what\": %s, \"verdict\": %s, \"detail\": %s}"
                (json_string what) (json_string (verdict_name v)) (json_string detail))
            verdicts))
  in
  (seq, line, List.exists (fun (_, v, _) -> v = Fail) verdicts)

(* Every row in order; returns the JSON lines and the failed rows. *)
let run_table ~smoke specs =
  let results = Hashtbl.create 32 in
  let rows =
    List.map
      (fun spec ->
        let seq, line, failed = run_row ~smoke ~prior:(Hashtbl.find_opt results) spec in
        Hashtbl.replace results spec.name seq;
        (spec.name, line, failed))
      specs
  in
  ( List.map (fun (_, line, _) -> line) rows,
    List.filter_map (fun (name, _, failed) -> if failed then Some name else None) rows )
