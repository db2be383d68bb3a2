(* Scenarios: a fabric, its traffic, faults and oracle as one value,
   and one runner for them, shared by bench/gates.ml's table and test/.

   A [spec] names a topology, a traffic kind, a chaos setting, the shard
   counts to repeat it at, an oracle and the assertions that judge it.
   [run_fabric] runs a fabric spec at any shard count and returns one
   [row]; [judgements] checks the runs of a row: the sequential run
   against its oracle's and every sharded run against it
   ([check_identity]), frame conservation at every horizon of every run
   ([conservation]), then the spec's assertions. [check] runs and judges
   a spec, flow sets ([Flows]) included. Allocation figures are exact:
   domain-local [Gc.minor_words] from the end of setup, shards summed. *)

open Tpp

type topo =
  | Fat_tree of int                 (* k; per-host /32 routes, ECMP *)
  | Pods of int                     (* k; pod addressing, aggregated FIBs *)
  | Leaf_spine of int * int * int   (* leaves, spines, hosts per leaf *)
  | Dumbbell of int                 (* host pairs across one core link *)
  | Random of int * int * int * int (* switches, hosts, extra links, seed *)
  | No_fabric  (* a microbench, or a flow set: its f_topo names its fabric *)

type traffic =
  | Collect    (* pooled UDP, each frame carrying a 5-instruction TPP *)
  | Heavy      (* pooled UDP, a 99-instruction TPP, 1 in 16 faulting *)
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
  | Interpreter  (* every switch's TCPU is the oracle's interpreter *)
  | Unpooled     (* a fresh frame per send *)
  | Host32       (* per-host /32 FIBs *)
  | Round_trip   (* every frame sent as its parsed wire image *)
  | Bare         (* no fault schedule attached *)
  | Queued       (* Net's queued path: every frame through its egress ring *)

(* Where the frames a fabric run's hosts sent are at one horizon, summed
   over shards. *)
type tally = {
  at : Time_ns.t;
  t_events : int;
  sent : int;
  t_delivered : int;
  switch_drops : int;
  fault_losses : int;  (* Fault.stats' five loss counters *)
  in_flight : int;  (* traffic-pool and boundary frames outstanding *)
  pooled : bool;  (* every frame in flight is one of those *)
}

(* One run of one row. Non-fabric rows fill what they measure: a
   microbench's [events] are its iterations. *)
type row = {
  events : int;
  delivered : int;
  registers : int;  (* digest of every switch register; of Fct.fingerprint for a flow set *)
  tpp_execs : int;
  tpp_faults : int;
  tpp_cycles : int;
  faults : int list;  (* Fault.stats in declaration order; zeros without a schedule *)
  cards : int;  (* postcards collected *)
  collector : int;  (* the collector's order-independent fingerprint *)
  pool_outstanding : int;
  boundary_outstanding : int;
  arrivals : int;  (* digest of every host's arrival times *)
  tallies : tally list;  (* one per horizon of a fabric run, the drained one last *)
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
  queue_limit : int option;  (* bytes per switch port *)
  horizons : Time_ns.t list;  (* read before the run drains, ascending *)
  best_of_two : bool;  (* for the sequential and oracle runs *)
  asserts : assertion list;
}

let spec ?(chaos = No_chaos) ?(packets = 0) ?(shards = []) ?(oracle = Sequential)
    ?queue_limit ?(horizons = []) ?(best_of_two = false) ?(asserts = []) name ~why topo
    traffic =
  { name; why; topo; traffic; chaos; packets; shards; oracle; queue_limit; horizons;
    best_of_two; asserts }

let zero_faults = [ 0; 0; 0; 0; 0; 0 ]

let blank =
  { events = 0; delivered = 0; registers = 0; tpp_execs = 0; tpp_faults = 0;
    tpp_cycles = 0; faults = zero_faults; cards = 0; collector = 0;
    pool_outstanding = 0; boundary_outstanding = 0; arrivals = 0; tallies = [];
    wall = 0.0; minor_pe = 0.0; promoted_pe = 0.0; metrics = [] }

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

(* Every fabric run drains by this horizon: its sends end within
   [packets * gap_ns]. A flow set runs for its own duration instead. *)
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
  let bps = link_bps and delay = link_delay in
  let net =
    match (spec.traffic, spec.topo) with
    | Flows (_, p), No_fabric -> Fct.build p eng
    | Flows _, _ -> invalid_arg "Scenario.build: a flow set's fabric is its f_topo"
    | _, Fat_tree k ->
      (Topology.fat_tree eng ~ecmp:true ~k ~bps ~delay ())
        .Topology.f_net
    | _, Pods k ->
      let fib = if flip Host32 then `Host32 else `Aggregated in
      (Topology.fat_tree eng ~ecmp:true ~addressing:`Pods ~fib ~k
         ~bps ~delay ())
        .Topology.f_net
    | _, Leaf_spine (leaves, spines, hosts_per_leaf) ->
      (Topology.leaf_spine eng ~ecmp:true ~leaves ~spines
         ~hosts_per_leaf ~bps ~delay ())
        .Topology.ls_net
    | _, Dumbbell pairs ->
      (Topology.dumbbell eng ~pairs ~core_bps:bps ~edge_bps:bps ~delay ()).Topology.d_net
    | _, Random (switches, hosts, extra_links, seed) ->
      (Topology.random eng ~switches ~hosts ~extra_links ~seed ~ecmp:true ~bps ~delay ())
        .Topology.r_net
    | _, No_fabric -> invalid_arg "Scenario.build: not a fabric row"
  in
  Option.iter
    (fun bytes ->
      List.iter
        (fun (_, sw) ->
          for port = 0 to Switch.num_ports sw - 1 do
            Switch.set_queue_limit sw ~port ~bytes
          done)
        (Net.switches net))
    spec.queue_limit;
  if flip Interpreter then
    List.iter (fun (_, sw) -> Tpp_oracle.Interp.install sw) (Net.switches net);
  net

(* Each host streams [packets] frames [gap_ns] apart to its partner in
   the opposite half, so flows cross every layer and exercise ECMP;
   hosts are offset 7 ns apart so departures never coincide. Sends
   schedule their successor, so the wheel holds one pending send per
   host instead of hosts x packets closures. Which frames carry the
   faulting program depends only on (src, j), so the set is the same
   under any shard layout. With [round_trip], each frame is serialised
   and re-parsed before it is sent, and the parsed copy travels in its
   place (the original goes back to its pool): the reference for the
   net's forwarding of the sender's own frame. Counts every send in
   [sent]; returns the per-host pools. *)
let start_traffic spec ~pooled ~round_trip ~owns ~sent net =
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
      Array.map (fun _ -> Frame.Pool.create ~frame_bytes:2048 ()) hosts
    else [||]
  in
  let send src j =
    incr sent;
    let s = hosts.(src) and d = hosts.((src + (n / 2)) mod n) in
    let src_mac = s.Net.mac and dst_mac = d.Net.mac in
    let src_ip = s.Net.ip and dst_ip = d.Net.ip and src_port = 1000 + src in
    let tpp = tpp j in
    let f =
      if pooled then
        Frame.Pool.udp_frame pools.(src) ~src_mac ~dst_mac ~src_ip ~dst_ip
          ~src_port ~dst_port:7 ?tpp ~payload ()
      else
        Frame.udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port:7
          ?tpp ~payload ()
    in
    if not round_trip then Net.host_send net s f
    else
      match Frame.parse (Frame.serialize f) with
      | Ok wire ->
        Frame.recycle f;
        Net.host_send net s wire
      | Error e ->
        failwith ("Scenario.start_traffic: frame failed its wire round trip: " ^ e)
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
   every rule fires at any size. Needs 10 hosts. *)
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

(* Hooks that change nothing. *)
let no_faults =
  {
    Net.f_transit = (fun ~node:_ ~port:_ ~now:_ _ -> true);
    f_rate = (fun ~node:_ ~port:_ ~now:_ ~bps -> bps);
    f_delay = (fun ~node:_ ~port:_ ~now:_ ~delay -> delay);
    f_ingress = (fun ~node:_ ~now:_ -> true);
    f_clean = (fun ~node:_ ~port:_ -> true);
  }

(* Puts [net] on Net's queued path, the reference for its elided one: a
   wire that is not clean never elides a completion, and a switch whose
   transmitter refuses every frame queues it. The net's own fault hooks
   are kept. *)
let queue_everything net =
  let h = Option.value (Net.fault_hooks net) ~default:no_faults in
  Net.set_fault_hooks net (Some { h with Net.f_clean = (fun ~node:_ ~port:_ -> false) });
  List.iter
    (fun (_, sw) -> Switch.set_transmitter sw (fun ~port:_ _ -> false))
    (Net.switches net)

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
  p_arrivals : (int * int) list;  (* owned host, digest of its arrival times *)
  frames : int list;  (* [counts] after the run *)
  flows : Fct.fabric_outcome option;  (* a flow set's part, read by Fct *)
}

(* Attaches the row's faults, tap and traffic to [net]. Returns [counts]
   (frames sent, dropped by the owned switches, lost to faults, and
   traffic-pool frames outstanding), readable at any horizon, and the
   closure that, called after the run, reads back what the owned
   switches, hosts and pools hold. Allocation is counted from the end
   of setup. *)
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
  if flip Queued then queue_everything net;
  let tap =
    if spec.traffic <> Postcard then None
    else begin
      let sink = Telemetry_sink.create () and col = Collector.create () in
      Telemetry_emit.tap_switches sink net;
      Some (sink, col)
    end
  in
  let pooled = not (flip Unpooled) and round_trip = flip Round_trip in
  let sent = ref 0 in
  let pools = start_traffic spec ~pooled ~round_trip ~owns ~sent net in
  (* Absorbing every 50 us keeps the default sink from ever dropping;
     the ticks stop 10 ms after the last send. *)
  Option.iter
    (fun (sink, col) ->
      Engine.every (Net.engine net) ~period:absorb_period
        ~until:((spec.packets * gap_ns) + Time_ns.ms 10)
        (fun () -> Collector.absorb col sink))
    tap;
  let hosts = List.filter (fun h -> owns h.Net.node_id) (Net.hosts net) in
  let arrivals = Array.make (Net.node_count net) 0 in
  List.iter
    (fun h ->
      let id = h.Net.node_id in
      h.Net.receive <- (fun ~now _ -> arrivals.(id) <- mix arrivals.(id) now))
    hosts;
  let counts () =
    let owned = List.filter (fun (id, _) -> owns id) (Net.switches net) in
    let losses (s : Fault.stats) =
      s.Fault.lost_down + s.dropped + s.corrupt_header + s.corrupt_fcs + s.frozen_arrivals
    in
    [ !sent; List.fold_left (fun a (_, sw) -> a + (Switch.state sw).SS.drops) 0 owned;
      Option.fold ~none:0 ~some:(fun f -> losses (Fault.stats f)) fault;
      Array.fold_left (fun a p -> a + Frame.Pool.outstanding p) 0 pools ]
  in
  let m0 = Gc.minor_words () and p0 = promoted_words () in
  ( counts,
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
            ("fib_entries", float_of_int (switches Switch.l3_size));
            ("switch_hops", float_of_int (state (fun s -> s.SS.packets_seen)));
            ("transmissions", float_of_int (Net.transmissions net));
            ("completions_queued", float_of_int (Net.completions_queued net));
            ("cut_through", float_of_int (Net.cut_through net)) ];
        tap =
          Option.map
            (fun (sink, col) ->
              Collector.absorb col sink;
              (col, Telemetry_sink.dropped sink))
            tap;
        p_arrivals = List.map (fun h -> (h.Net.node_id, arrivals.(h.Net.node_id))) hosts;
        frames = counts ();
        flows = None;
      } )

let flow_chaos_drop = 0.01

(* [setup] for a flow set, on the fabric its parameters name. No frame
   counts, no arrival digest (its receive hook would replace the stacks'
   UDP dispatch), and of the oracles only [build]'s apply. *)
let attach_flows spec transport p ~oracle:_ ~owns net =
  let p = if spec.chaos = Chaotic then { p with Fct.f_chaos_drop = flow_chaos_drop } else p in
  let read = Fct.attach transport p ~owns net in
  let m0 = Gc.minor_words () and p0 = promoted_words () in
  ( (fun () -> [ 0; 0; 0; 0 ]),
    fun () ->
      let words = (Gc.minor_words () -. m0, promoted_words () -. p0) in
      { fp = []; tpp = [ 0; 0; 0 ]; p_faults = zero_faults; outstanding = 0; words;
        sums = []; tap = None; p_arrivals = []; frames = [ 0; 0; 0; 0 ];
        flows = Some (read ()) } )

let add_up = List.fold_left (List.map2 ( + ))

(* [r] (a run's events, wall and allocation) as a flow set's row: Fct's
   outcome merged over the run's parts, and the flows-* rows' metrics.
   No tallies: its frames are not counted. *)
let row_of_flows r p parts =
  let o = Fct.merge (List.filter_map (fun part -> part.flows) parts) in
  let short, long = Fct.short_long o ~threshold:p.Fct.f_short_bytes in
  let f = float_of_int in
  { r with
    delivered = o.Fct.fo_completed;
    registers = digest (Fct.fingerprint o);
    metrics =
      [ ("started", f o.Fct.fo_started);
        ("completed_frac", per o.Fct.fo_started (f o.Fct.fo_completed));
        ("short_p50_ns", f short.Fct.fs_p50_ns); ("short_p99_ns", f short.Fct.fs_p99_ns);
        ("long_p50_ns", f long.Fct.fs_p50_ns); ("long_p99_ns", f long.Fct.fs_p99_ns);
        ("drops", f o.Fct.fo_drops); ("trims", f o.Fct.fo_trims);
        ("invariants_ok", if o.Fct.fo_ok then 1.0 else 0.0) ] }

(* The row at the drained horizon. A spec's cut horizons are read on
   the way there by the sequential engine, and by one sharded run
   each. *)
let run_fabric spec ~oracle ~shards =
  let build = build spec ~oracle in
  let setup, until =
    match spec.traffic with
    | Flows (t, p) when spec.horizons = [] -> (attach_flows spec t p, p.Fct.f_duration)
    | Flows _ -> invalid_arg "Scenario.run_fabric: a flow set has no cut horizons"
    | _ -> (setup spec, horizon)
  in
  let pooled =
    not (oracle_is spec ~oracle Unpooled || oracle_is spec ~oracle Round_trip)
  in
  let tally ~at ~events ~delivered ~boundary counts =
    match add_up [ 0; 0; 0; 0 ] counts with
    | [ sent; switch_drops; fault_losses; pool ] ->
      { at; t_events = events; sent; t_delivered = delivered; switch_drops; fault_losses;
        in_flight = pool + boundary; pooled }
    | _ -> assert false
  in
  let sharded until =
    let finish = Array.make shards (fun () -> assert false) in
    let stats, parts =
      Parsim.run ~shards ~until ~build
        ~setup:(fun ~shard ~owns net ->
          finish.(shard) <- snd (setup ~oracle ~owns net))
        ~collect:(fun ~shard ~owns:_ _ -> finish.(shard) ())
        ()
    in
    (stats, Array.to_list parts)
  in
  let (events, delivered, stats, parts, cuts), wall =
    timed (fun () ->
        if shards = 0 then begin
          let eng = Engine.create () in
          let net = build eng in
          let counts, finish = setup ~oracle ~owns:(fun _ -> true) net in
          let cuts =
            List.map
              (fun at ->
                Engine.run eng ~until:at;
                tally ~at ~events:(Engine.events_processed eng)
                  ~delivered:(Net.frames_delivered net) ~boundary:0 [ counts () ])
              spec.horizons
          in
          Engine.run eng ~until;
          (Engine.events_processed eng, Net.frames_delivered net, None, [ finish () ], cuts)
        end
        else begin
          let stats, parts = sharded until in
          (stats.Parsim.events, stats.Parsim.delivered, Some stats, parts, [])
        end)
  in
  let cuts =
    if shards = 0 then cuts
    else
      List.map
        (fun at ->
          let s, parts = sharded at in
          tally ~at ~events:s.Parsim.events ~delivered:s.Parsim.delivered
            ~boundary:s.Parsim.boundary_outstanding (List.map (fun p -> p.frames) parts))
        spec.horizons
  in
  let words f = List.fold_left (fun a p -> a +. f p.words) 0.0 parts in
  let minor_pe = per events (words fst) and promoted_pe = per events (words snd) in
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
  (* Read before the merge below, which flushes every digest. *)
  let tap_sum f = List.fold_left (fun a (col, _) -> a + f col) 0 taps in
  let tap_words = tap_sum (fun col -> Obj.reachable_words (Obj.repr col))
  and tap_links = tap_sum (fun col -> List.length (Collector.links col)) in
  let merged = Collector.create () in
  List.iter (fun (col, _) -> Collector.merge ~into:merged col) taps;
  let f = float_of_int in
  let tpp = add_up [ 0; 0; 0 ] (List.map (fun p -> p.tpp) parts) in
  let boundary_outstanding =
    Option.fold ~none:0 ~some:(fun s -> s.Parsim.boundary_outstanding) stats
  in
  match spec.traffic with
  | Flows (_, p) -> row_of_flows { blank with events; wall; minor_pe; promoted_pe } p parts
  | _ ->
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
      boundary_outstanding;
      arrivals =
        List.concat_map (fun p -> p.p_arrivals) parts
        |> List.sort compare
        |> List.fold_left (fun h (id, d) -> mix (mix h id) d) 0;
      tallies =
        cuts
        @ [ tally ~at:horizon ~events ~delivered ~boundary:boundary_outstanding
              (List.map (fun p -> p.frames) parts) ];
      wall;
      minor_pe;
      promoted_pe;
      metrics =
        sums
        @ [ ("fib_per_switch", List.assoc "fib_entries" sums /. List.assoc "switches" sums);
            (* 1.0 and 0 when every transmission queued its completion
               and every frame its egress ring *)
            ( "completions_per_tx",
              List.assoc "completions_queued" sums /. List.assoc "transmissions" sums );
            ("cut_through_share", List.assoc "cut_through" sums /. List.assoc "switch_hops" sums)
          ]
        @ (if taps = [] then []
           else
             [ ("cards_dropped", f (List.fold_left (fun a (_, d) -> a + d) 0 taps));
               ("collector_words_per_link", per tap_links (f tap_words)) ])
        @
        match stats with
        | None -> []
        | Some s ->
          [ ("rounds", f s.Parsim.rounds); ("boundary_messages", f s.Parsim.messages);
            ("boundary_chunks", f s.Parsim.chunks); ("cut_links", f s.Parsim.cut_links);
            ("lookahead_ns", f s.Parsim.lookahead) ];
    }

(* ---- checks --------------------------------------------------------- *)

(* Fields an oracle or a sharded run must reproduce exactly, the cut
   horizons' last. Event counts of a flow set, and of a tapped fabric
   whose every shard ticks its own collector, depend on the shard
   layout. *)
let identity spec r =
  let events = match spec.traffic with Flows _ | Postcard -> false | _ -> true in
  (if events then [ ("events", r.events) ] else [])
  @ [ ("delivered", r.delivered); ("registers", r.registers);
      ("tpp_execs", r.tpp_execs); ("tpp_faults", r.tpp_faults);
      ("tpp_cycles", r.tpp_cycles); ("cards", r.cards); ("collector", r.collector);
      ("arrivals", r.arrivals) ]
  @ List.combine fault_names r.faults
  @ List.concat_map
      (fun t ->
        (if events then [ (Printf.sprintf "events at %d ns" t.at, t.t_events) ] else [])
        @ [ (Printf.sprintf "delivered at %d ns" t.at, t.t_delivered) ])
      (List.filter (fun t -> t.at < horizon) r.tallies)

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

(* Frame conservation at one horizon, naming the layer and the
   invariant that broke. Frames in flight are counted only while they
   all come from the traffic pools; once the run drains, every frame is
   back in its pool whatever the traffic. *)
let unconserved t =
  let lost = t.switch_drops + t.fault_losses and drained = t.at >= horizon in
  if drained && t.in_flight <> 0 then
    Some
      (Printf.sprintf "frame: every traffic-pool and boundary frame back in its pool once \
                       drained (%d outstanding)" t.in_flight)
  else if (drained || t.pooled) && t.sent <> t.t_delivered + lost + t.in_flight then
    Some
      (Printf.sprintf
         "net: frames sent = delivered + lost + in flight at %d ns (%d sent, %d delivered, \
          %d switch drops, %d fault losses, %d in flight)"
         t.at t.sent t.t_delivered t.switch_drops t.fault_losses t.in_flight)
  else None

(* The first horizon of a labelled run that does not conserve frames. *)
let conservation runs =
  match
    List.find_map
      (fun (label, r) ->
        Option.map (fun m -> label ^ " run, " ^ m) (List.find_map unconserved r.tallies))
      runs
  with
  | Some m -> (Fail, m)
  | None -> (Pass, "sent = delivered + lost + in flight at every horizon")

let oracle_name = function
  | Sequential -> "sequential run"
  | Interpreter -> "interpreter backend"
  | Unpooled -> "unpooled frames"
  | Host32 -> "per-host /32 FIBs"
  | Round_trip -> "per-send wire round trip"
  | Bare -> "no fault schedule"
  | Queued -> "queued transmitter path"

let ok b = if b then Pass else Fail
let holds what test detail = { what; eval = (fun c -> (ok (test c), detail c)) }

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

(* Every verdict on a row's runs, in order. *)
let judgements spec c =
  let oracle = List.map (fun o -> ("oracle", o)) (Option.to_list c.oracle_run)
  and sharded = List.map (fun (s, r) -> (Printf.sprintf "%d-shard" s, r)) c.sharded in
  List.map
    (fun (_, o) ->
      ("sequential run == " ^ oracle_name spec.oracle, check_identity spec o c.seq))
    oracle
  @ List.map
      (fun (l, r) -> (l ^ " run == sequential run", check_identity spec c.seq r))
      sharded
  @ (if c.seq.tallies = [] then []
     else
       [ ( "every run conserves frames",
           conservation ((("sequential", c.seq) :: oracle) @ sharded) ) ])
  @ List.map (fun a -> (a.what, a.eval c)) spec.asserts

(* Runs a fabric spec sequentially, as its oracle and at each shard
   count, and judges the runs at smoke size: the failed verdicts. *)
let check spec =
  let seq = run_fabric spec ~oracle:false ~shards:0 in
  let oracle_run =
    if spec.oracle = Sequential then None
    else Some (run_fabric spec ~oracle:true ~shards:0)
  in
  let sharded = List.map (fun s -> (s, run_fabric spec ~oracle:false ~shards:s)) spec.shards in
  List.filter_map
    (fun (what, (v, detail)) -> if v = Fail then Some (what ^ ": " ^ detail) else None)
    (judgements spec { smoke = true; seq; oracle_run; sharded; prior = (fun _ -> None) })
