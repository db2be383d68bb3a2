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

(* When this net is one shard of a parallel run: which shard each node
   belongs to, which shard this instance executes, and how a frame whose
   link crosses into another shard leaves this one. *)
type sharding = {
  owner : int array;  (* node id -> owning shard *)
  shard : int;        (* the shard this Net instance runs *)
  emit :
    arrival:Time_ns.t -> emitted:Time_ns.t -> dst_node:int -> dst_port:int ->
    Frame.t -> unit;
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
  f_clean : node:int -> port:int -> bool;
      (* No fault ever touches the wire behind ([node], [port]): the
         other three hooks are the identity on it, so its transmissions
         may elide their completions. *)
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
  mutable handle : Engine.handle;
      (* the net's handlers record, registered once at [create]: every
         typed event carries its id *)
  no_frame : Frame.t;  (* dummy parked in [in_flight] between txs *)
  mutable impls : node_impl array;  (* index = node id; first node_count live *)
  mutable pbase : int array;        (* node id -> first global port slot *)
  mutable np : int array;           (* node id -> number of ports *)
  mutable node_count : int;
  mutable port_count : int;         (* global port slots in use *)
  mutable lp_peer : int array;
      (* packed peer endpoint per slot: [(node lsl 20) lor port], -1 =
         unconnected. *)
  mutable lp_bps : int array;
  mutable lp_delay : int array;     (* propagation delay, ns *)
  mutable lp_inflight : Frame.t array;
      (* the frame occupying the link from its transmission's start to
         its completion ([tx_end] holds the end), else the per-net dummy,
         so a delivered frame is never pinned by its old port. A plain
         slot, not an option: one outstanding tx per port makes it
         unambiguous, and a [Some] per transmission would allocate. *)
  mutable lp_flags : Bytes.t;
      (* [unqueued], [early] bits ('\000' = no elided transmission) *)
  mutable host_counter : int;
  mutable delivered : int;
  mutable transmissions : int;       (* transmissions started *)
  mutable completions_queued : int;  (* completion events queued *)
  mutable cut_through : int;         (* switch hops that skipped the ring *)
  mutable deliver_hooks : (host -> Frame.t -> unit) array;
      (* registration order; rebuilt on (rare) registration *)
  mutable sharding : sharding option;  (* None = ordinary sequential net *)
  mutable fault : fault_hooks option;  (* None = fault-free: no per-packet cost *)
  node_hint : int;  (* expected node/port counts: builders that know the *)
  port_hint : int;  (* final size pass them so the arrays never over-grow *)
  checked_shapes : (int, unit) Hashtbl.t;
      (* header-layout keys already validated by the wire check *)
  scratch : Buf.Writer.t;  (* reused by the wire check *)
}

let engine t = t.eng

(* A port must fit the engine's event key, and so must a node id
   ([register] checks it). *)
let max_port_bits = Engine.max_id_bits
let port_mask = (1 lsl max_port_bits) - 1
let[@inline] pack_peer node port = (node lsl max_port_bits) lor port
let[@inline] peer_node packed = packed lsr max_port_bits
let[@inline] peer_port packed = packed land port_mask

(* Port flags. [unqueued]: the completion of the port's transmission
   was elided, so no event ends it; it is over once the completion's
   key has passed ({!tx_over}). [early]: its delivery was queued when
   it started. *)
let unqueued = 1
let early = 2

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

(* [a]'s first [len] elements in a fresh array of [cap], the rest
   [fill]: slots are only ever written below the count in use, so a
   grown array's fresh tail needs no other initialisation. *)
let grow a ~len ~cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 len;
  b

let register t i ~ports =
  let id = t.node_count in
  if id lsr Engine.max_id_bits <> 0 then
    invalid_arg "Net: more nodes than the engine's 20-bit node ids";
  if id >= Array.length t.impls then begin
    let cap = max t.node_hint (max 8 (2 * Array.length t.impls)) in
    t.impls <- grow t.impls ~len:id ~cap i;
    t.pbase <- grow t.pbase ~len:id ~cap 0;
    t.np <- grow t.np ~len:id ~cap 0
  end;
  t.impls.(id) <- i;
  t.pbase.(id) <- t.port_count;
  t.np.(id) <- ports;
  t.node_count <- id + 1;
  let len = t.port_count in
  let needed = len + ports in
  if needed > Array.length t.lp_peer then begin
    let cap = max t.port_hint (max 16 (max needed (2 * Array.length t.lp_peer))) in
    t.lp_peer <- grow t.lp_peer ~len ~cap (-1);
    t.lp_bps <- grow t.lp_bps ~len ~cap 0;
    t.lp_delay <- grow t.lp_delay ~len ~cap 0;
    t.lp_inflight <- grow t.lp_inflight ~len ~cap t.no_frame;
    let fl = Bytes.make cap '\000' in
    Bytes.blit t.lp_flags 0 fl 0 len;
    t.lp_flags <- fl
  end;
  t.port_count <- needed;
  id

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

let egress_empty t id port =
  match Array.unsafe_get t.impls id with
  | Switch_n sw -> Switch.queue_bytes sw ~port = 0
  | Host_n h -> ( match h.nic_q with None -> true | Some r -> Ring.is_empty r)

let[@inline] same_shard t node =
  match t.sharding with
  | None -> true
  | Some s -> Array.unsafe_get s.owner node = s.shard

(* The transmission on slot [i] whose completion was elided: its start,
   recomputed from the frame's end and the link's rate, which no fault
   changed, so the window costs one field of the frame on the wire. *)
let tx_start t i (frame : Frame.t) =
  frame.Frame.tx_end - tx_time_ns ~bps:(Array.unsafe_get t.lp_bps i) frame

(* Whether that transmission is over: whether its completion, had it
   been queued, would have fired by now. Only the last nanosecond needs
   the full key. *)
let tx_over t id port i =
  let frame = Array.unsafe_get t.lp_inflight i in
  let fin = frame.Frame.tx_end and now = Engine.now t.eng in
  fin < now
  || fin = now
     && Engine.dequeue_fired t.eng fin ~emitted:(tx_start t i frame) ~node:id ~port

(* Ends an elided transmission that is over: what its completion would
   have done to the port, with the egress empty. *)
let retire t i =
  set_flags t i 0;
  Array.unsafe_set t.lp_inflight i t.no_frame

let queue_completion t id port ~fin ~start =
  t.completions_queued <- t.completions_queued + 1;
  Engine.dequeue_at t.eng fin ~emitted:start t.handle ~node:id ~port

(* A frame waits behind the elided transmission on slot [i], so it
   needs that transmission's completion after all. Ends the
   transmission if it is over ([true]); else queues the completion with
   the key it would have had ([false]). *)
let settle t id port i =
  if tx_over t id port i then begin
    retire t i;
    true
  end
  else begin
    let frame = Array.unsafe_get t.lp_inflight i in
    set_flags t i (flags t i land lnot unqueued);
    queue_completion t id port ~fin:frame.Frame.tx_end ~start:(tx_start t i frame);
    false
  end

(* Whether the transmitter of connected slot [i] can take a frame now;
   a frame it refuses queues behind its transmission. *)
let tx_idle t id port i =
  Array.unsafe_get t.lp_inflight i == t.no_frame
  || (flags t i land unqueued <> 0 && settle t id port i)

(* The dataplane cycle — deliver, start transmissions, complete them —
   as mutually recursive functions over plain (node, port) ints. Each
   step schedules the next as one engine event (the net's one
   registered handlers record dispatches back here), so a frame hop costs
   zero minor allocations in the engine. *)
let rec deliver t id port frame =
  (* A frame whose completion was elided still occupies its sender's
     slot; the transmission is long over once the frame arrives. *)
  let pk = Array.unsafe_get t.lp_peer (gp_trusted t id port) in
  if pk >= 0 then begin
    let s = gp_trusted t (peer_node pk) (peer_port pk) in
    if Array.unsafe_get t.lp_inflight s == frame then retire t s
  end;
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
         (No-op for unpooled frames: a receiver that retains frames —
         the tests do — must be sent unpooled ones.) *)
      Frame.recycle frame
    | Switch_n sw ->
      (* A frame that cut through is already on the wire. *)
      let r = Switch.forward sw ~now:(Engine.now t.eng) ~in_port:port frame in
      if r <> Switch.cut_through then
        if r >= 0 then maybe_start_tx t id r
        else if r = Switch.dropped then Frame.recycle frame
        else start_ports t id (Switch.flooded_ports sw)
  end
  else Frame.recycle frame (* frozen node: the frame vanishes *)

(* A top-level walk rather than [List.iter] with a closure over [t] and
   [id], which would allocate on every switch hop. *)
and start_ports t id = function
  | [] -> ()
  | p :: rest ->
    maybe_start_tx t id p;
    start_ports t id rest

(* Called whenever the egress at ([id], [port]) may hold a frame the
   transmitter should take. A frame that waits behind a transmission
   whose completion was elided needs that completion after all. *)
and maybe_start_tx t id port =
  let i = gp_trusted t id port in
  if
    Array.unsafe_get t.lp_peer i >= 0
    && (Array.unsafe_get t.lp_inflight i == t.no_frame
       || flags t i land unqueued <> 0
          && (not (egress_empty t id port))
          && settle t id port i)
  then start_next t id port i

and start_next t id port i =
  let frame = next_frame t id port in
  if frame != t.no_frame then
    start_tx t id port i frame ~empty:(egress_empty t id port)

(* Puts [frame] on the wire behind idle slot [i]; [empty] says whether
   the egress behind it is empty. A transmission that leaves its egress
   empty, on a link no fault touches, to a peer this shard runs, queues
   its delivery now, keyed exactly as its completion would have queued
   it, and no completion at all: nothing can change its fate, and a
   frame that queues behind it queues the completion then ({!settle}). *)
and start_tx t id port i frame ~empty =
  t.transmissions <- t.transmissions + 1;
  Array.unsafe_set t.lp_inflight i frame;
  let now = Engine.now t.eng in
  let pk = Array.unsafe_get t.lp_peer i in
  let clean = match t.fault with None -> true | Some h -> h.f_clean ~node:id ~port in
  if clean && same_shard t (peer_node pk) && empty then begin
    let fin = Time_ns.add now (tx_time_ns ~bps:(Array.unsafe_get t.lp_bps i) frame) in
    frame.Frame.tx_end <- fin;
    set_flags t i (unqueued lor early);
    Engine.deliver_at t.eng
      (Time_ns.add fin (Array.unsafe_get t.lp_delay i))
      ~emitted:fin t.handle ~node:(peer_node pk) ~port:(peer_port pk) frame
  end
  else begin
    let bps =
      let bps = Array.unsafe_get t.lp_bps i in
      match t.fault with
      | None -> bps
      | Some h -> h.f_rate ~node:id ~port ~now ~bps
    in
    queue_completion t id port ~fin:(Time_ns.add now (tx_time_ns ~bps frame)) ~start:now
  end

(* A queued completion: the frame finishes serialising onto the wire.
   Unless its delivery was queued when it started, its wire's fault
   schedule decides its fate (dark link, random drop, corruption caught
   by the wire checks; the schedule counts its losses), and a frame
   that lives is scheduled to arrive at the peer after the propagation
   delay. Then the port tries to start its next tx. *)
and tx_complete t id port =
  let i = gp_trusted t id port in
  let frame = Array.unsafe_get t.lp_inflight i in
  Array.unsafe_set t.lp_inflight i t.no_frame;
  let f = flags t i in
  set_flags t i 0;
  if f land early <> 0 then () (* its delivery is already queued *)
  else if
    not
      (match t.fault with
      | None -> true
      | Some h -> h.f_transit ~node:id ~port ~now:(Engine.now t.eng) frame)
  then Frame.recycle frame
  else begin
    let now = Engine.now t.eng in
    let delay =
      let delay = Array.unsafe_get t.lp_delay i in
      match t.fault with
      | None -> delay
      | Some h -> h.f_delay ~node:id ~port ~now ~delay
    in
    let pk = Array.unsafe_get t.lp_peer i in
    let pn = peer_node pk and pp = peer_port pk in
    if same_shard t pn then
      Engine.deliver_at t.eng (Time_ns.add now delay) ~emitted:now t.handle
        ~node:pn ~port:pp frame
    else begin
      (* Shard-boundary link: the arrival belongs to the peer's
         owning shard. Hand the frame (with its absolute arrival
         time) to the inter-shard channel instead of the local event
         queue; the owner schedules the delivery when it drains its
         inbox. Same event count either way: one delivery event, on
         exactly one shard.

         The emission time rides along so the owning shard can
         backdate the delivery's tie-break stamp: a local push at the
         same arrival nanosecond must order against this frame
         exactly as the sequential run would (by emission order), not
         by when the owner happens to drain its inbox.

         [emit] consumes the frame: the hook must copy whatever it
         needs (the boundary protocol blits the wire image into a
         chunk) and never retain the frame itself, because it is
         recycled into its local pool the moment the hook returns —
         the emitter-side half of the cross-domain leak fix. *)
      (Option.get t.sharding).emit ~arrival:(Time_ns.add now delay) ~emitted:now
        ~dst_node:pn ~dst_port:pp frame;
      Frame.recycle frame
    end
  end;
  maybe_start_tx t id port

(* Offers a frame that found the egress at ([id], [port]) empty to its
   transmitter, which takes it straight onto the wire if idle. Both
   callers have just checked the egress, so it is still empty. *)
let offer t id port frame =
  let i = gp_trusted t id port in
  Array.unsafe_get t.lp_peer i >= 0
  && tx_idle t id port i
  && (start_tx t id port i frame ~empty:true; true)

(* [cut_through] counts the switch hops whose frame the transmitter takes
   past the egress ring ({!Switch.forward}). *)
let add_switch t sw =
  let id = register t (Switch_n sw) ~ports:(Switch.num_ports sw) in
  Switch.set_transmitter sw (fun ~port frame ->
      offer t id port frame && (t.cut_through <- t.cut_through + 1; true));
  id

(* Ports with flag [bit] whose transmission still serialises: an elided
   completion is over once its key has passed, a queued one clears the
   flags when it fires. *)
let ahead t bit =
  let n = ref 0 in
  for id = 0 to t.node_count - 1 do
    let base = Array.unsafe_get t.pbase id in
    for port = 0 to Array.unsafe_get t.np id - 1 do
      let i = base + port in
      let f = flags t i in
      if f land bit <> 0 && not (f land unqueued <> 0 && tx_over t id port i) then incr n
    done
  done;
  !n

let create ?(nodes = 0) ?(ports = 0) eng =
  let no_frame = Frame.placeholder () in
  let checked_shapes = Hashtbl.create 32 in
  let scratch = Buf.Writer.create ~capacity:256 () in
  let t =
    {
      eng;
      handle = Engine.no_handle;
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
      transmissions = 0;
      completions_queued = 0;
      cut_through = 0;
      deliver_hooks = [||];
      sharding = None;
      fault = None;
      node_hint = nodes;
      port_hint = ports;
      checked_shapes;
      scratch;
    }
  in
  (* The handlers close over the net they dispatch into: registered
     once per net, not per event. *)
  t.handle <-
    Engine.register eng
      {
        Engine.on_deliver = (fun ~node ~port frame -> deliver t node port frame);
        on_dequeue = (fun ~node ~port -> tx_complete t node port);
        on_restart = (fun ~node:_ -> ());
      };
  (* Each transmission has one completion in the model: queued, or
     elided and counted once its key has passed. *)
  Engine.count_unqueued eng (fun () ->
      t.transmissions - t.completions_queued - ahead t unqueued);
  t

let schedule_delivery t ~arrival ~emitted ~dst_node ~dst_port frame =
  ignore (gp t dst_node dst_port);
  Engine.deliver_at t.eng arrival ~emitted t.handle ~node:dst_node
    ~port:dst_port frame

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

let host_send t host frame =
  (match t.sharding with
  | Some s when Array.unsafe_get s.owner host.node_id <> s.shard ->
    invalid_arg "Net.host_send: host is owned by another shard"
  | _ -> ());
  (* Validate each distinct header layout once with a full round trip;
     frames of an already-validated layout forward as they are, with no
     serialisation on the steady-state path. *)
  let key = shape_key frame in
  if not (Hashtbl.mem t.checked_shapes key) then begin
    Buf.Writer.reset t.scratch;
    Frame.serialize_into t.scratch frame;
    match
      Frame.parse ~len:(Buf.Writer.length t.scratch) (Buf.Writer.buffer t.scratch)
    with
    | Ok _ -> Hashtbl.replace t.checked_shapes key ()
    | Error e -> failwith ("Net.host_send: frame failed wire round-trip: " ^ e)
  end;
  let id = host.node_id in
  (* An idle NIC: the frame skips the ring. *)
  if not (egress_empty t id 0 && offer t id 0 frame) then begin
    let q =
      match host.nic_q with
      | Some r -> r
      | None ->
        let r = Ring.create ~dummy:t.no_frame () in
        host.nic_q <- Some r;
        r
    in
    Ring.push q frame;
    maybe_start_tx t id 0
  end

let link_delay t (id, port) =
  let i = gp t id port in
  if t.lp_peer.(i) < 0 then invalid_arg "Net.link_delay: port has no link";
  t.lp_delay.(i)

let start_utilization_updates t ~period ~until =
  (* On a sharded net only the owned switches tick (each shard runs its
     own periodic event for its slice of the fabric). *)
  Engine.every t.eng ~period ~until (fun () ->
      for id = 0 to t.node_count - 1 do
        match Array.unsafe_get t.impls id with
        | Switch_n sw when same_shard t id ->
          State.update_utilization (Switch.state sw) ~window_ns:period
        | Switch_n _ | Host_n _ -> ()
      done)

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
let transmissions t = t.transmissions
let completions_queued t = t.completions_queued
let cut_through t = t.cut_through

(* A transmission that queued its delivery at its start never consults
   the hooks, even once its completion is queued, so they must be in
   place before any transmission whose fate they would decide. *)
let set_fault_hooks t hooks =
  if Option.is_some hooks && ahead t early > 0 then
    invalid_arg "Net.set_fault_hooks: transmissions in flight";
  t.fault <- hooks

let fault_hooks t = t.fault

let on_host_deliver t hook =
  (* Registration is rare and the hook array is read on every delivery:
     rebuild the array (registration order preserved) instead of
     appending to a list quadratically. *)
  let n = Array.length t.deliver_hooks in
  let hooks = Array.make (n + 1) hook in
  Array.blit t.deliver_hooks 0 hooks 0 n;
  t.deliver_hooks <- hooks
