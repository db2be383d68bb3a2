(* CONGA-flavored TPP load balancer (tentpole, with Flowlet): the
   sender probes each candidate ECMP path with a TPP that reads
   [Link:QueueSize] (the per-hop queued-bytes register) at every hop,
   and steers the flow onto the least-loaded path — but only at flowlet
   boundaries, so re-steering can never reorder a burst.

   Path choice is the flow's UDP source port: every switch hashes the
   5-tuple for ECMP, so rewriting [Flow.set_src_port] moves the flow to
   a different (deterministic) path. Probes share the flow's
   destination host and port but carry a candidate source port, so each
   probe measures exactly the path data would take with that port. The
   destination echoes TPP-carrying frames ({!Probe.install_echo_on_port}
   on the flow port); replies come back on {!Probe.reply_port} and are
   matched to candidates through the pending-sequence table.

   Everything is host-local state driven by packet arrivals and one
   {!Engine.Loop}, so steering decisions are bit-deterministic and
   shard-safe. *)

module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Tpp = Tpp_isa.Tpp
module Asm = Tpp_isa.Asm
module Buf = Tpp_util.Buf
module Stack = Tpp_endhost.Stack
module Flow = Tpp_endhost.Flow
module Probe = Tpp_endhost.Probe
module Flowlet = Tpp_endhost.Flowlet

type config = {
  probe_period_ns : int;   (* one candidate is probed per tick *)
  flowlet_gap_ns : int;
  max_hops : int;
  num_paths : int;         (* candidate source ports *)
  port_stride : int;       (* spacing between candidate ports *)
  piggyback_every : int option;
      (* when set, every nth data packet also carries the collect TPP;
         its echo refreshes the current path's load for free *)
}

let default_config =
  {
    probe_period_ns = 500_000;
    flowlet_gap_ns = 100_000;
    max_hops = 8;
    num_paths = 4;
    port_stride = 7;
    piggyback_every = None;
  }

(* Two words per hop: who measured, and the queue behind the egress
   link the packet took there. *)
let collect_source = "PUSH [Switch:SwitchID]\nPUSH [Link:QueueSize]\n"
let words_per_hop = 2

(* Max queued bytes over the path — the bottleneck congestion metric.
   The echo executes hops on the forward (candidate) path; the reply
   itself is a plain datagram, so nothing is appended on the way
   back. *)
let path_load tpp =
  let rec go acc = function
    | _sw :: q :: rest -> go (Int.max acc q) rest
    | _ -> acc
  in
  go 0 (Tpp.stack_values tpp)

type t = {
  stack : Stack.t;
  config : config;
  flow : Flow.t;
  dst : Net.host;
  collect_tpp : Tpp.t;
  ports : int array;    (* candidate source ports; index = path id *)
  loads : int array;    (* latest sampled load per path *)
  flowlet : Flowlet.t;
  pending : (int, int) Hashtbl.t;  (* probe seq -> path id *)
  block : Probe.Block.t;
  loop : Engine.Loop.t;
  mutable seq : int;
  mutable rr : int;     (* next candidate to probe *)
  mutable current : int;
  mutable probes_sent : int;
  mutable decisions : int;  (* steering evaluations at a boundary *)
  mutable moves : int;      (* decisions that changed path *)
}

let maybe_steer t ~now =
  if Flowlet.boundary t.flowlet ~last_tx:(Flow.last_tx_ns t.flow) ~now then begin
    t.decisions <- t.decisions + 1;
    let best = ref t.current in
    for i = 0 to t.config.num_paths - 1 do
      if t.loads.(i) < t.loads.(!best) then best := i
    done;
    if !best <> t.current then begin
      t.current <- !best;
      t.moves <- t.moves + 1;
      Flow.set_src_port t.flow t.ports.(!best)
    end
  end

let sample t ~now path tpp =
  t.loads.(path) <- path_load tpp;
  maybe_steer t ~now

let on_reply t ~now ~seq tpp =
  if Engine.Loop.running t.loop then
    match Hashtbl.find_opt t.pending seq with
    | Some path ->
      Hashtbl.remove t.pending seq;
      sample t ~now path tpp
    | None -> ()

let next_seq t =
  t.seq <- t.seq + 1;
  Probe.Block.seq t.block t.seq

let send_probe t path =
  let seq = next_seq t in
  Hashtbl.replace t.pending seq path;
  t.probes_sent <- t.probes_sent + 1;
  let payload = Bytes.create 4 in
  Buf.set_u32i payload 0 seq;
  Stack.send_udp t.stack ~dst:t.dst ~src_port:t.ports.(path)
    ~dst_port:(Flow.port t.flow) ~tpp:(Tpp.copy t.collect_tpp) ~payload ()

let tick t () =
  send_probe t t.rr;
  t.rr <- (t.rr + 1) mod t.config.num_paths;
  t.config.probe_period_ns

let create ?(config = default_config) stack ~flow ~dst =
  if config.num_paths <= 0 then invalid_arg "Tpp_lb.create: num_paths";
  if config.port_stride <= 0 then invalid_arg "Tpp_lb.create: port_stride";
  let collect_tpp =
    match
      Asm.to_tpp ~defines:[]
        ~mem_len:(4 * words_per_hop * config.max_hops)
        collect_source
    with
    | Ok tpp -> tpp
    | Error e -> invalid_arg ("Tpp_lb.create: collect program: " ^ e)
  in
  let t =
    {
      stack;
      config;
      flow;
      dst;
      collect_tpp;
      ports =
        Array.init config.num_paths (fun i ->
            Flow.port flow + (i * config.port_stride));
      loads = Array.make config.num_paths 0;
      flowlet = Flowlet.create ~gap_ns:config.flowlet_gap_ns;
      pending = Hashtbl.create 16;
      (* A disjoint echo-seq block: several controllers can share one
         host's reply stream. *)
      block = Probe.Block.take stack;
      loop = Engine.Loop.create (Net.engine (Stack.net stack));
      seq = 0;
      rr = 0;
      current = 0;
      probes_sent = 0;
      decisions = 0;
      moves = 0;
    }
  in
  Probe.Block.on_echo t.block (on_reply t);
  (* Piggyback: data packets occasionally carry the collect TPP; their
     echoes come back with the data sequence number (outside our
     block) and the flow's port as echo source — attribute them to the
     path the flow is currently on. *)
  (match config.piggyback_every with
  | None -> ()
  | Some every ->
    Flow.carry_tpp flow ~every collect_tpp;
    Probe.Block.on_flow_echo t.block ~port:(Flow.port flow) (fun ~now ~seq:_ tpp ->
        if Engine.Loop.running t.loop then sample t ~now t.current tpp));
  t

let start t ?at () = Engine.Loop.start t.loop ?at (tick t)
let stop t = Engine.Loop.stop t.loop

let probes_sent t = t.probes_sent
let decisions t = t.decisions
let moves t = t.moves
let flowlet t = t.flowlet
