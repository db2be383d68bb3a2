module Frame = Tpp_isa.Frame
module Switch = Tpp_asic.Switch
module State = Tpp_asic.State
module Mac = Tpp_packet.Mac
module Ipv4 = Tpp_packet.Ipv4
module Time_ns = Tpp_util.Time_ns
module Buf = Tpp_util.Buf
module Ring = Tpp_util.Ring
module Tpp = Tpp_isa.Tpp

type host = {
  host_name : string;
  node_id : int;
  mac : Mac.t;
  ip : Ipv4.Addr.t;
  mutable receive : now:Time_ns.t -> Frame.t -> unit;
  mutable nic_q : Frame.t Ring.t option;
      (* NIC transmit queue, materialized on the host's first send: an
         idle host in a million-host fabric carries a [None], not a
         ring. Switches queue in the ASIC and never use this. *)
}

type node_impl = Switch_n of Switch.t | Host_n of host

type wire_check = [ `Always | `Cached ]

(* When this net is one shard of a parallel run: which shard each node
   belongs to, which shard this instance executes, and how a frame whose
   link crosses into another shard leaves this one. *)
type sharding = {
  owner : int array;  (* node id -> owning shard *)
  shard : int;        (* the shard this Net instance runs *)
  emit :
    arrival:Time_ns.t -> emitted:Time_ns.t -> dst:int * int -> Frame.t -> unit;
}

(* Injection points for the fault subsystem ({!Fault}). Kept as a
   neutral record of closures so [Net] needs no knowledge of the
   schedule representation (and [Fault] can depend on [Net] without a
   cycle). All four are pure functions of simulated time plus per-wire
   private RNG streams, which is what keeps faulted runs bit-identical
   between the sequential engine and any shard count. *)
type fault_hooks = {
  f_transit : node:int -> port:int -> now:Time_ns.t -> Frame.t -> bool;
      (* Fate of a frame finishing serialisation onto the wire behind
         ([node], [port]) at [now]: [false] = lost (fault-downed link,
         random drop, or corruption caught by the wire checks). The
         hook does its own accounting. *)
  f_rate : node:int -> port:int -> now:Time_ns.t -> bps:int -> int;
      (* Effective transmit rate at transmission start. *)
  f_delay : node:int -> port:int -> now:Time_ns.t -> delay:Time_ns.span -> Time_ns.span;
      (* Effective propagation delay at transmission end. Must never
         return less than [delay]: the parallel scheduler's lookahead
         is computed from the undegraded delays. *)
  f_ingress : node:int -> now:Time_ns.t -> bool;
      (* [false] = the node is frozen; a frame arriving now vanishes. *)
}

(* Link/port state lives in structure-of-arrays form, indexed by a
   global port slot ([pbase.(node) + port]): one packed int for the
   peer endpoint, flat ints for rate and propagation delay, one Frame
   slot for the in-flight frame and one byte of flags per port. A port
   costs ~33 bytes instead of a boxed record + ring (~150 bytes), and
   — crucially for million-host fabrics — nothing here is a closure or
   per-link heap object. Fault state is keyed by the same slot index
   ({!port_index}), so the hot fault hooks are array lookups too. *)
type t = {
  eng : Engine.t;
  wire_check : wire_check;
  handlers : Engine.handlers;
      (* the net's one handlers record: every typed event carries it *)
  no_frame : Frame.t;  (* dummy parked in [in_flight] between txs *)
  mutable impls : node_impl array;  (* index = node id; first node_count live *)
  mutable pbase : int array;        (* node id -> first global port slot *)
  mutable np : int array;           (* node id -> number of ports *)
  mutable node_count : int;
  mutable port_count : int;         (* global port slots in use *)
  mutable lp_peer : int array;
      (* packed peer endpoint per slot: [(node lsl 21) lor port], -1 =
         unconnected. 21 bits of port leaves 41 bits of node id. *)
  mutable lp_bps : int array;
  mutable lp_delay : int array;     (* propagation delay, ns *)
  mutable lp_inflight : Frame.t array;
      (* the frame occupying the link while the busy flag is set; the
         per-net dummy otherwise, so a delivered frame is never pinned
         by its old port. A plain slot, not an option: the
         one-outstanding-tx-per-port invariant makes it unambiguous,
         and a [Some] per transmission would put an allocation back on
         the hot path. *)
  mutable lp_flags : Bytes.t;
      (* bit 0 = tx busy, bit 1 = link down ('\000' = idle and up,
         so freshly grown slots need no initialisation) *)
  mutable host_counter : int;
  mutable delivered : int;
  mutable deliver_hooks : (host -> Frame.t -> unit) array;
      (* registration order; rebuilt on (rare) registration *)
  mutable sharding : sharding option;  (* None = ordinary sequential net *)
  mutable fault : fault_hooks option;  (* None = fault-free: no per-packet cost *)
  node_hint : int;  (* expected node/port counts: builders that know the *)
  port_hint : int;  (* final size pass them so the arrays never over-grow *)
  checked_shapes : (int, unit) Hashtbl.t;
      (* header-layout keys already validated in [`Cached] mode *)
  scratch : Buf.Writer.t;  (* reused by the cached wire check *)
}

let engine t = t.eng

let max_port_bits = 21
let port_mask = (1 lsl max_port_bits) - 1
let[@inline] pack_peer node port = (node lsl max_port_bits) lor port
let[@inline] peer_node packed = packed lsr max_port_bits
let[@inline] peer_port packed = packed land port_mask

let[@inline] flag_busy f = f land 1 <> 0
let[@inline] flag_down f = f land 2 <> 0

let[@inline] flags t i = Char.code (Bytes.unsafe_get t.lp_flags i)
let[@inline] set_flags t i f = Bytes.unsafe_set t.lp_flags i (Char.unsafe_chr f)

let set_sharding t ~owner ~shard ~emit =
  if Array.length owner < t.node_count then
    invalid_arg "Net.set_sharding: owner array shorter than node table";
  if shard < 0 then invalid_arg "Net.set_sharding: shard";
  t.sharding <- Some { owner; shard; emit }

let owns t id =
  if id < 0 || id >= t.node_count then invalid_arg "Net.owns: unknown node id";
  match t.sharding with
  | None -> true
  | Some s -> Array.unsafe_get s.owner id = s.shard

let[@inline] impl t id =
  if id < 0 || id >= t.node_count then invalid_arg "Net: unknown node id";
  Array.unsafe_get t.impls id

(* Global port slot of (node, port), bounds-checked. *)
let[@inline] gp t id port =
  if id < 0 || id >= t.node_count then invalid_arg "Net: unknown node id";
  if port < 0 || port >= Array.unsafe_get t.np id then
    invalid_arg "Net: port out of range";
  Array.unsafe_get t.pbase id + port

(* Trusted variant for the dataplane cycle, where (node, port) pairs
   were validated when the event (or table entry) was created. *)
let[@inline] gp_trusted t id port = Array.unsafe_get t.pbase id + port

let port_index = gp
let port_count t = t.port_count
let num_ports t id =
  if id < 0 || id >= t.node_count then invalid_arg "Net: unknown node id";
  Array.unsafe_get t.np id

let register t i ~ports =
  let id = t.node_count in
  if id >= Array.length t.impls then begin
    let cap = max t.node_hint (max 8 (2 * Array.length t.impls)) in
    let impls = Array.make cap i in
    Array.blit t.impls 0 impls 0 id;
    t.impls <- impls;
    let pbase = Array.make cap 0 in
    Array.blit t.pbase 0 pbase 0 id;
    t.pbase <- pbase;
    let np = Array.make cap 0 in
    Array.blit t.np 0 np 0 id;
    t.np <- np
  end;
  t.impls.(id) <- i;
  t.pbase.(id) <- t.port_count;
  t.np.(id) <- ports;
  t.node_count <- id + 1;
  let needed = t.port_count + ports in
  if needed > Array.length t.lp_peer then begin
    let cap =
      max t.port_hint (max 16 (max needed (2 * Array.length t.lp_peer)))
    in
    let peer = Array.make cap (-1) in
    Array.blit t.lp_peer 0 peer 0 t.port_count;
    t.lp_peer <- peer;
    let bps = Array.make cap 0 in
    Array.blit t.lp_bps 0 bps 0 t.port_count;
    t.lp_bps <- bps;
    let delay = Array.make cap 0 in
    Array.blit t.lp_delay 0 delay 0 t.port_count;
    t.lp_delay <- delay;
    let inflight = Array.make cap t.no_frame in
    Array.blit t.lp_inflight 0 inflight 0 t.port_count;
    t.lp_inflight <- inflight;
    let fl = Bytes.make cap '\000' in
    Bytes.blit t.lp_flags 0 fl 0 t.port_count;
    t.lp_flags <- fl
  end
  else
    for s = t.port_count to needed - 1 do
      t.lp_peer.(s) <- -1;
      t.lp_bps.(s) <- 0;
      t.lp_delay.(s) <- 0;
      t.lp_inflight.(s) <- t.no_frame;
      Bytes.set t.lp_flags s '\000'
    done;
  t.port_count <- needed;
  id

let add_switch t sw = register t (Switch_n sw) ~ports:(Switch.num_ports sw)

(* One shared no-op so idle hosts don't each allocate a closure. *)
let default_receive ~now:_ _ = ()

let add_host ?name ?ip ?mac t =
  t.host_counter <- t.host_counter + 1;
  let n = t.host_counter in
  let id = t.node_count in
  let host =
    {
      host_name = (match name with Some s -> s | None -> "");
      node_id = id;
      mac = (match mac with Some m -> m | None -> Mac.of_host_id n);
      ip = (match ip with Some a -> a | None -> Ipv4.Addr.of_host_id n);
      receive = default_receive;
      nic_q = None;
    }
  in
  let registered = register t (Host_n host) ~ports:1 in
  assert (registered = id);
  host

let switch t id =
  match impl t id with
  | Switch_n sw -> sw
  | Host_n _ -> invalid_arg "Net.switch: node is a host"

let host_of t id =
  match impl t id with
  | Host_n h -> h
  | Switch_n _ -> invalid_arg "Net.host_of: node is a switch"

let node_count t = t.node_count

let hosts t =
  let acc = ref [] in
  for id = t.node_count - 1 downto 0 do
    match Array.unsafe_get t.impls id with
    | Host_n h -> acc := h :: !acc
    | Switch_n _ -> ()
  done;
  !acc

let switches t =
  let acc = ref [] in
  for id = t.node_count - 1 downto 0 do
    match Array.unsafe_get t.impls id with
    | Switch_n sw -> acc := (id, sw) :: !acc
    | Host_n _ -> ()
  done;
  !acc

let connect t (a, pa) (b, pb) ~bps ~delay =
  if bps <= 0 then invalid_arg "Net.connect: rate";
  let ia = gp t a pa and ib = gp t b pb in
  if t.lp_peer.(ia) >= 0 || t.lp_peer.(ib) >= 0 then
    invalid_arg "Net.connect: port already linked";
  if pa > port_mask || pb > port_mask then invalid_arg "Net.connect: port";
  t.lp_peer.(ia) <- pack_peer b pb;
  t.lp_bps.(ia) <- bps;
  t.lp_delay.(ia) <- delay;
  t.lp_peer.(ib) <- pack_peer a pa;
  t.lp_bps.(ib) <- bps;
  t.lp_delay.(ib) <- delay;
  (match Array.unsafe_get t.impls a with
  | Switch_n sw -> Switch.set_port_capacity sw ~port:pa ~bps
  | Host_n _ -> ());
  match Array.unsafe_get t.impls b with
  | Switch_n sw -> Switch.set_port_capacity sw ~port:pb ~bps
  | Host_n _ -> ()

let neighbors t id =
  let base = (ignore (impl t id); Array.unsafe_get t.pbase id) in
  let acc = ref [] in
  for port = Array.unsafe_get t.np id - 1 downto 0 do
    let pk = t.lp_peer.(base + port) in
    if pk >= 0 then acc := (port, peer_node pk, peer_port pk) :: !acc
  done;
  !acc

let iter_ports t id f =
  ignore (impl t id);
  let base = Array.unsafe_get t.pbase id in
  for port = 0 to Array.unsafe_get t.np id - 1 do
    let pk = Array.unsafe_get t.lp_peer (base + port) in
    if pk >= 0 then f ~port ~peer:(peer_node pk) ~peer_port:(peer_port pk)
  done

let iter_links t f =
  for id = 0 to t.node_count - 1 do
    let base = Array.unsafe_get t.pbase id in
    for port = 0 to Array.unsafe_get t.np id - 1 do
      let pk = Array.unsafe_get t.lp_peer (base + port) in
      if pk >= 0 then
        f ~node:id ~port ~peer:(peer_node pk) ~peer_port:(peer_port pk)
          ~bps:(Array.unsafe_get t.lp_bps (base + port))
          ~delay:(Array.unsafe_get t.lp_delay (base + port))
    done
  done

(* ceil(bits * 1e9 / bps) in exact integer arithmetic. The product
   overflows 63-bit ints only for frames beyond ~1.1 GB, where the float
   fallback's 52-bit mantissa error (sub-ppm) is irrelevant anyway. *)
let tx_time_of_bits ~bps bits =
  if bits < max_int / 1_000_000_000 then
    ((bits * 1_000_000_000) + bps - 1) / bps
  else int_of_float (ceil (float_of_int bits *. 1e9 /. float_of_int bps))

let tx_time_ns ~bps frame = tx_time_of_bits ~bps (Frame.wire_size frame * 8)

(* Pulls the next frame to transmit from a node's egress at [port];
   [t.no_frame] (compared physically) when the egress is empty, so the
   per-transmission path allocates no option box. *)
let next_frame t id port =
  match Array.unsafe_get t.impls id with
  | Switch_n sw -> Switch.dequeue_or sw ~port ~default:t.no_frame
  | Host_n h -> (
    match h.nic_q with
    | None -> t.no_frame
    | Some r -> Ring.take_or r ~default:t.no_frame)

(* The dataplane cycle — deliver, start transmissions, complete them —
   as mutually recursive functions over plain (node, port) ints. Each
   step schedules the next through the engine's event slab (the net's
   one [handlers] record dispatches back here), so a frame hop costs
   zero minor allocations in the engine. *)
let rec deliver t id port frame =
  let alive =
    match t.fault with
    | None -> true
    | Some h -> h.f_ingress ~node:id ~now:(Engine.now t.eng)
  in
  if alive then begin
    match Array.unsafe_get t.impls id with
    | Host_n h ->
      t.delivered <- t.delivered + 1;
      let hooks = t.deliver_hooks in
      for i = 0 to Array.length hooks - 1 do
        (Array.unsafe_get hooks i) h frame
      done;
      h.receive ~now:(Engine.now t.eng) frame;
      (* The frame reached its destination and every handler has run:
         if it came from a pool, its buffer is free for the next send.
         (No-op for unpooled frames, so receivers that retain frames —
         the tests do — are unaffected: they never see pooled ones.) *)
      Frame.recycle frame
    | Switch_n sw -> (
      match Switch.handle_ingress sw ~now:(Engine.now t.eng) ~in_port:port frame with
      | Switch.Dropped _ -> Frame.recycle frame
      | Switch.Queued out_ports -> List.iter (fun p -> maybe_start_tx t id p) out_ports)
  end
  else Frame.recycle frame (* frozen node: the frame vanishes *)

and maybe_start_tx t id port =
  let i = gp_trusted t id port in
  if Array.unsafe_get t.lp_peer i >= 0 && not (flag_busy (flags t i)) then begin
    let frame = next_frame t id port in
    if frame != t.no_frame then begin
      set_flags t i (flags t i lor 1);
      Array.unsafe_set t.lp_inflight i frame;
      let bps =
        let bps = Array.unsafe_get t.lp_bps i in
        match t.fault with
        | None -> bps
        | Some h -> h.f_rate ~node:id ~port ~now:(Engine.now t.eng) ~bps
      in
      let tx = tx_time_ns ~bps frame in
      Engine.dequeue_at t.eng (Time_ns.add (Engine.now t.eng) tx) t.handlers
        ~node:id ~port
    end
  end

(* A transmission finishes serialising onto the wire: the frame either
   dies (dark link, fault) or is scheduled to arrive at the peer after
   the propagation delay; then the port tries to start its next tx. *)
and tx_complete t id port =
  let i = gp_trusted t id port in
  let frame = Array.unsafe_get t.lp_inflight i in
  Array.unsafe_set t.lp_inflight i t.no_frame;
  let f = flags t i in
  set_flags t i (f land lnot 1);
  (* A frame finishing serialisation onto a dark link is lost; the
     fault schedule may also lose it (dark window, random drop,
     corruption caught by the wire checks). *)
  let survives =
    (not (flag_down f))
    && (match t.fault with
       | None -> true
       | Some h -> h.f_transit ~node:id ~port ~now:(Engine.now t.eng) frame)
  in
  if not survives then Frame.recycle frame;
  (if survives then begin
     let delay =
       let delay = Array.unsafe_get t.lp_delay i in
       match t.fault with
       | None -> delay
       | Some h -> h.f_delay ~node:id ~port ~now:(Engine.now t.eng) ~delay
     in
     let pk = Array.unsafe_get t.lp_peer i in
     if pk >= 0 then begin
       let pn = peer_node pk and pp = peer_port pk in
       match t.sharding with
       | None -> schedule_deliver t delay pn pp frame
       | Some s ->
         (* Shard-boundary link: the arrival belongs to the peer's
            owning shard. Hand the frame (with its absolute arrival
            time) to the inter-shard channel instead of the local
            event queue; the owner schedules the delivery when it
            drains its inbox. Same event count either way: one
            delivery event, on exactly one shard. *)
         if Array.unsafe_get s.owner pn = s.shard then
           schedule_deliver t delay pn pp frame
         else begin
           (* The emission time rides along so the owning shard can
              backdate the delivery's tie-break stamp: a local push at
              the same arrival nanosecond must order against this frame
              exactly as the sequential run would (by emission order),
              not by when the owner happens to drain its inbox.

              [emit] consumes the frame: the hook must copy whatever it
              needs (the boundary protocol blits the wire image into a
              chunk) and never retain the frame itself, because it is
              recycled into its local pool the moment the hook returns
              — the emitter-side half of the cross-domain leak fix. *)
           s.emit
             ~arrival:(Time_ns.add (Engine.now t.eng) delay)
             ~emitted:(Engine.now t.eng) ~dst:(pn, pp) frame;
           Frame.recycle frame
         end
     end
   end);
  maybe_start_tx t id port

and schedule_deliver t delay pn pp frame =
  Engine.deliver_at t.eng (Time_ns.add (Engine.now t.eng) delay) t.handlers
    ~node:pn ~port:pp frame

let create ?(nodes = 0) ?(ports = 0) ?(wire_check = `Always) eng =
  let no_frame =
    Frame.udp_frame ~src_mac:(Mac.of_host_id 0) ~dst_mac:(Mac.of_host_id 0)
      ~src_ip:(Ipv4.Addr.of_host_id 0) ~dst_ip:(Ipv4.Addr.of_host_id 0)
      ~src_port:0 ~dst_port:0 ~payload:Bytes.empty ()
  in
  let checked_shapes = Hashtbl.create 32 in
  let scratch = Buf.Writer.create ~capacity:256 () in
  (* The handlers close over the net they dispatch into, so the record
     and the net are built as one recursive value (allocated once per
     net, not per event). *)
  let rec t =
    {
      eng;
      wire_check;
      handlers =
        {
          Engine.on_deliver = (fun ~node ~port frame -> deliver t node port frame);
          on_dequeue = (fun ~node ~port -> tx_complete t node port);
          on_restart = (fun ~node:_ -> ());
        };
      no_frame;
      impls = [||];
      pbase = [||];
      np = [||];
      node_count = 0;
      port_count = 0;
      lp_peer = [||];
      lp_bps = [||];
      lp_delay = [||];
      lp_inflight = [||];
      lp_flags = Bytes.empty;
      host_counter = 0;
      delivered = 0;
      deliver_hooks = [||];
      sharding = None;
      fault = None;
      node_hint = nodes;
      port_hint = ports;
      checked_shapes;
      scratch;
    }
  in
  t

let schedule_delivery ?emitted t ~arrival ~dst frame =
  let dn, dp = dst in
  ignore (gp t dn dp);
  Engine.deliver_at ?emitted t.eng arrival t.handlers ~node:dn ~port:dp frame

(* One key per header *layout*: two frames with the same key serialise
   through exactly the same write/parse paths and length computations,
   differing only in field values the codecs treat uniformly. splitmix64
   mixing (via [Frame.flow_hash_values]) keeps distinct layouts from
   colliding in practice; a collision merely skips a redundant check. *)
let shape_key (frame : Frame.t) =
  let tpp_key =
    match frame.Frame.tpp with
    | None -> 0
    | Some s ->
      1
      lor (Array.length s.Tpp.program lsl 1)
      lor (Tpp.mem_len s lsl 17)
      lor (s.Tpp.base lsl 33)
      lor ((match s.Tpp.addr_mode with Tpp.Stack -> 0 | Tpp.Hop_addressed -> 1)
           lsl 49)
      lor (s.Tpp.perhop_len lsl 50)
  in
  let l3_key =
    (if Frame.has_ip frame then 1 else 0)
    lor (if Frame.has_udp frame then 2 else 0)
    lor (Frame.payload_len frame lsl 2)
  in
  Frame.flow_hash_values ~src:(Frame.ethertype frame) ~dst:tpp_key
    ~proto:l3_key ~src_port:0 ~dst_port:0

let wire_check_fail e =
  failwith ("Net.host_send: frame failed wire round-trip: " ^ e)

let host_send t host frame =
  (match t.sharding with
  | Some s when Array.unsafe_get s.owner host.node_id <> s.shard ->
    invalid_arg "Net.host_send: host is owned by another shard"
  | _ -> ());
  let frame =
    match t.wire_check with
    | `Always -> (
      (* Full-strength: every packet becomes its wire image, so the
         receiver sees exactly what a byte-faithful network would carry.
         The re-parsed copy travels in the caller's place, so the
         caller's frame goes back to its pool (a no-op if unpooled). *)
      match Frame.parse (Frame.serialize frame) with
      | Ok f ->
        Frame.recycle frame;
        f
      | Error e -> wire_check_fail e)
    | `Cached ->
      (* Validate each distinct header layout once; frames of an
         already-validated shape forward structurally with no
         serialisation at all on the steady-state path. *)
      let key = shape_key frame in
      if not (Hashtbl.mem t.checked_shapes key) then begin
        Buf.Writer.reset t.scratch;
        Frame.serialize_into t.scratch frame;
        match
          Frame.parse ~len:(Buf.Writer.length t.scratch)
            (Buf.Writer.buffer t.scratch)
        with
        | Ok _ -> Hashtbl.replace t.checked_shapes key ()
        | Error e -> wire_check_fail e
      end;
      frame
  in
  let q =
    match host.nic_q with
    | Some r -> r
    | None ->
      let r = Ring.create ~dummy:t.no_frame () in
      host.nic_q <- Some r;
      r
  in
  Ring.push q frame;
  maybe_start_tx t host.node_id 0

let set_link_up t (id, port) up =
  let i = gp t id port in
  let pk = t.lp_peer.(i) in
  if pk < 0 then invalid_arg "Net.set_link_up: port has no link"
  else begin
    let pid = peer_node pk and pport = peer_port pk in
    let j = gp t pid pport in
    let set k =
      let f = flags t k in
      set_flags t k (if up then f land lnot 2 else f lor 2)
    in
    set i;
    set j;
    if up then begin
      maybe_start_tx t id port;
      maybe_start_tx t pid pport
    end
  end

let link_up t (id, port) = not (flag_down (flags t (gp t id port)))

let link_delay t (id, port) =
  let i = gp t id port in
  if t.lp_peer.(i) < 0 then invalid_arg "Net.link_delay: port has no link";
  t.lp_delay.(i)

let start_utilization_updates t ~period ~until =
  (* On a sharded net only the owned switches tick (each shard runs its
     own periodic event for its slice of the fabric). *)
  Engine.every t.eng ~period ~until (fun () ->
      List.iter
        (fun (id, sw) ->
          if owns t id then
            State.update_utilization (Switch.state sw) ~window_ns:period)
        (switches t))

(* NDP fabric support: every switch port gets a strict-priority control
   queue above the data queue, with a small dedicated budget, and
   payload trimming enabled. Setup-time only — [configure_queues]
   replaces (and discards) any queued frames, so this must run before
   traffic starts. Runs on every switch regardless of shard ownership:
   it is deterministic local configuration, identical on all shards. *)
let enable_trimming t ~keep ~data_limit ~ctrl_limit =
  List.iter
    (fun (_, sw) ->
      for port = 0 to Switch.num_ports sw - 1 do
        Switch.configure_queues sw ~port ~count:2;
        Switch.set_subqueue_limit sw ~port ~queue:0 ~bytes:data_limit;
        Switch.set_subqueue_limit sw ~port ~queue:1 ~bytes:ctrl_limit
      done;
      Switch.set_trim_keep sw ~keep)
    (switches t)

let frames_delivered t = t.delivered

let set_fault_hooks t hooks = t.fault <- hooks
let fault_hooks_installed t = Option.is_some t.fault

let on_host_deliver t hook =
  (* Registration is rare and the hook array is read on every delivery:
     rebuild the array (registration order preserved) instead of
     appending to a list quadratically. *)
  let n = Array.length t.deliver_hooks in
  let hooks = Array.make (n + 1) hook in
  Array.blit t.deliver_hooks 0 hooks 0 n;
  t.deliver_hooks <- hooks
