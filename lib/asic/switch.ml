module Frame = Tpp_isa.Frame
module Tpp = Tpp_isa.Tpp
module Meta = Tpp_isa.Meta
module Mac = Tpp_packet.Mac
module Ipv4 = Tpp_packet.Ipv4
module Ethernet = Tpp_packet.Ethernet
module Ring = Tpp_util.Ring

type scheduler = Strict | Wrr of int array

(* Round-robin progress of a WRR port. *)
type sched_state = {
  mutable discipline : scheduler;
  mutable rr_queue : int;       (* queue currently being served *)
  mutable rr_remaining : int;   (* packets it may still send this turn *)
}

type verdict = Queued of int list | Dropped of string

type tcpu = Compile.ctx -> State.t -> now:int -> frame:Frame.t -> int

(* What {!forward} returns besides an egress port number. *)
let cut_through = -1
let flooded = -2
let dropped = -3

type t = {
  switch_state : State.t;
  allocator : Alloc.t;
  l2 : Tables.L2.t;
  l3 : Tables.L3.t;
  tcam : Tables.Tcam.t;
  mutable sched : sched_state array;
      (* [ [||] ] until the first dequeue or [set_scheduler]: idle
         switches in a million-host fabric never pay for per-port
         scheduler records. *)
  mutable strip_tpp : bool array;
      (* [ [||] ] until some port enables stripping; empty = no port
         strips, checked with one length test on the ingress path. *)
  mutable queued_one : verdict array;
      (* [Queued [ p ]] per port, preallocated (lazily, on the first
         frame {!handle_ingress} queues): its unicast verdicts are these
         instead of a fresh list each hop. {!forward} never reads it. *)
  mutable flooded_ports : int list;
      (* the ports the last flooded frame queued on *)
  mutable drop_reason : string;  (* why the last dropped frame was *)
  mutable tcpu : tcpu;
  tcpu_ctx : Compile.ctx;
      (* the TCPU's execution context, refilled every hop; a switch
         runs in exactly one shard, so no two domains share it *)
  mutable tap : (now:int -> in_port:int -> out_port:int -> Frame.t -> unit) option;
  mutable bin_tap :
    (now:int -> in_port:int -> out_port:int -> queue_bytes:int ->
     version:int -> frame_id:int -> flow_hash:int -> wire_bytes:int ->
     entry:int -> unit)
    option;
  mutable classify_queue : Frame.t -> int;
  mutable trim_keep : int;
      (* NDP packet trimming: when >= 0 and a data queue overflows, the
         frame's UDP payload is cut to this many bytes and the header
         enqueued in the port's top-priority queue instead of dropped.
         -1 = trimming disabled (the default). *)
  mutable ecmp_salt : int;
      (* XORed into the flow hash before [Tables.select_path]. 0 (the
         default) keys every switch identically, which polarises ECMP:
         the flows a switch received *because* they hashed to it then
         all agree on the next hash too, funnelling onto one uplink. A
         distinct per-switch salt decorrelates the per-hop picks. *)
  mutable transmit : port:int -> Frame.t -> bool;
      (* the egress transmitters' cut-through offer ({!forward}) *)
}

(* The transmitter of {!handle_ingress}: every frame queues. *)
let never_idle ~port:_ _ = false

(* Default classifier: DSCP selects the queue, scaled to however many
   queues the port has (higher DSCP -> higher-priority queue). *)
let dscp_classifier (frame : Frame.t) =
  if Frame.has_ip frame then Frame.ip_dscp frame else 0

let create ~id ~num_ports ?queue_limit () =
  let switch_state = State.create ~switch_id:id ~num_ports ?queue_limit () in
  {
    switch_state;
    allocator = Alloc.for_state switch_state;
    l2 = Tables.L2.create ();
    l3 = Tables.L3.create ();
    tcam = Tables.Tcam.create ();
    sched = [||];
    strip_tpp = [||];
    queued_one = [||];
    flooded_ports = [];
    drop_reason = "";
    tcpu = Tcpu.run;
    tcpu_ctx = Compile.context ();
    tap = None;
    bin_tap = None;
    classify_queue = dscp_classifier;
    trim_keep = -1;
    ecmp_salt = 0;
    transmit = never_idle;
  }

let set_tap t tap = t.tap <- tap
let set_transmitter t transmit = t.transmit <- transmit
let set_bin_tap t tap = t.bin_tap <- tap

let set_queue_classifier t f = t.classify_queue <- f

let configure_queues t ~port ~count = State.configure_queues t.switch_state ~port ~count

let num_queues t ~port = Array.length (State.port t.switch_state port).State.Port.queues

let id t = t.switch_state.State.switch_id
let num_ports t = t.switch_state.State.num_ports
let state t = t.switch_state
let alloc t = t.allocator

let[@inline never] materialize_sched t =
  let s =
    Array.init (num_ports t) (fun _ ->
        { discipline = Strict; rr_queue = 0; rr_remaining = 0 })
  in
  t.sched <- s;
  s

let[@inline] sched_array t =
  if Array.length t.sched = 0 then materialize_sched t else t.sched

let[@inline never] materialize_queued_one t =
  let q = Array.init (num_ports t) (fun p -> Queued [ p ]) in
  t.queued_one <- q;
  q

(* Topology wiring goes through the capacities side array so connecting
   a link never materializes the per-port register records. *)
let set_port_capacity t ~port ~bps = State.set_capacity t.switch_state ~port ~bps
let set_queue_limit t ~port ~bytes =
  let p = State.port t.switch_state port in
  p.State.Port.queue_limit <- bytes;
  Array.iter (fun q -> q.State.Subqueue.q_limit <- bytes) p.State.Port.queues

let set_ecn_threshold t ~port threshold =
  (State.port t.switch_state port).State.Port.ecn_threshold <- threshold
let set_tcpu t tcpu = t.tcpu <- tcpu

(* A legacy switch: TPPs pass through untouched. *)
let no_tcpu _ _ ~now:_ ~frame:_ = -1
let set_tcpu_enabled t enabled = t.tcpu <- (if enabled then Tcpu.run else no_tcpu)

let set_trim_keep t ~keep = t.trim_keep <- (if keep < 0 then -1 else keep)
let set_ecmp_salt t salt = t.ecmp_salt <- salt
let ecmp_salt t = t.ecmp_salt

let set_subqueue_limit t ~port ~queue ~bytes =
  let p = State.port t.switch_state port in
  if queue < 0 || queue >= Array.length p.State.Port.queues then
    invalid_arg "Switch.set_subqueue_limit: queue";
  p.State.Port.queues.(queue).State.Subqueue.q_limit <- bytes

let trims t = t.switch_state.State.trims

let set_strip_tpp t ~port strip =
  if port < 0 || port >= num_ports t then invalid_arg "Switch.set_strip_tpp: port";
  if Array.length t.strip_tpp = 0 then
    t.strip_tpp <- Array.make (num_ports t) false;
  t.strip_tpp.(port) <- strip

let install_l2 t mac ~port ~entry_id ~version =
  Tables.L2.install t.l2 mac
    { Tables.action = Tables.Forward port; entry_id; version }

let install_route t prefix ~port ~entry_id ~version =
  Tables.L3.install t.l3 prefix
    { Tables.action = Tables.Forward port; entry_id; version }

let install_multipath_route t prefix ~ports ~entry_id ~version =
  match ports with
  | [] -> invalid_arg "Switch.install_multipath_route: no ports"
  | [ port ] -> install_route t prefix ~port ~entry_id ~version
  | ports ->
    Tables.L3.install t.l3 prefix
      { Tables.action = Tables.Multipath (Array.of_list ports); entry_id; version }

let install_connected_route t prefix ~connected ~entry_id ~version =
  Tables.L3.install t.l3 prefix
    { Tables.action = Tables.Connected connected; entry_id; version }

let l3_size t = Tables.L3.size t.l3

let install_tcam t rule entry = Tables.Tcam.install t.tcam rule entry

let remove_tcam t ~entry_id = Tables.Tcam.remove_id t.tcam entry_id

let set_version t v = t.switch_state.State.version <- v

let route_action t addr =
  Option.map (fun e -> e.Tables.action) (Tables.L3.lookup t.l3 addr)

(* TCAM stage of the forwarding lookup (the flexible match stage of
   Figure 3). Split out because the common case — no rules installed —
   must not box the optional match fields. *)
let tcam_lookup t ~in_port (frame : Frame.t) =
  if Tables.Tcam.is_empty t.tcam then None
  else begin
    let has_ip = Frame.has_ip frame in
    let src_ip = if has_ip then Some (Frame.ip_src frame) else None in
    let dst_ip = if has_ip then Some (Frame.ip_dst frame) else None in
    let proto = if has_ip then Some (Frame.ip_proto frame) else None in
    let dst_port =
      if Frame.has_udp frame then Some (Frame.udp_dst_port frame) else None
    in
    Tables.Tcam.lookup t.tcam ~src_ip ~dst_ip ~proto ~in_port ~dst_port
  end

let fill_meta t ~now ~in_port ~out_port ~entry_id ~version ~table_hit (frame : Frame.t) =
  let meta = frame.Frame.meta in
  Meta.reset meta;
  meta.Meta.in_port <- in_port;
  meta.Meta.out_port <- out_port;
  meta.Meta.matched_entry <- entry_id;
  meta.Meta.matched_version <- version;
  meta.Meta.table_hit <- table_hit;
  meta.Meta.arrival_ns <- now;
  meta.Meta.hop_count <-
    (match frame.Frame.tpp with Some tpp -> tpp.Tpp.hop | None -> 0);
  ignore t

(* A Strict port serves its queues in a fixed order, so a frame that
   finds all of them empty is next out whatever else is offered; a WRR
   port's round-robin state would move. *)
let[@inline] strict t port =
  Array.length t.sched = 0
  ||
  match (Array.unsafe_get t.sched port).discipline with
  | Strict -> true
  | Wrr _ -> false

(* [State.port] without the call, for a port number the pipeline has
   already range-checked. *)
let[@inline] live_port st i =
  let ports = st.State.ports in
  if Array.length ports = 0 then State.port st i else Array.unsafe_get ports i

(* Every frame the switch drops passes through here, and is counted
   once in [State.drops]. *)
let[@inline never] drop t reason =
  t.drop_reason <- reason;
  let st = t.switch_state in
  st.State.drops <- st.State.drops + 1;
  dropped

(* TCPU + enqueue on one output port. Returns [out_port] when the frame
   queued and {!dropped} when it did not; when the port is idle and
   [transmit] takes the frame, {!cut_through}: cut-through does the
   enqueue and the dequeue accounting at once and touches neither the
   subqueue ring nor the scheduler record. *)
let process_and_enqueue t ~now ~transmit (frame : Frame.t) ~out_port =
  let st = t.switch_state in
  let port = live_port st out_port in
  (* Queue selection happens before the TCPU so [Queue:*] reads resolve
     against the queue the packet will actually join. Higher queue index
     = higher priority; the classifier's value is scaled to the port. *)
  let nq = Array.length port.State.Port.queues in
  let queue_id = Int.max 0 (Int.min (nq - 1) (t.classify_queue frame * nq / 64)) in
  frame.Frame.meta.Meta.queue_id <- queue_id;
  let sub = port.State.Port.queues.(queue_id) in
  (match frame.Frame.tpp with
  | Some _ -> ignore (t.tcpu t.tcpu_ctx st ~now ~frame : int)
  | None -> ());
  let wire = Frame.wire_size frame in
  (* Offered load on this link, drops included: what RCP's y(t) measures. *)
  port.State.Port.window_rx_bytes <- port.State.Port.window_rx_bytes + wire;
  port.State.Port.offered_bytes <- port.State.Port.offered_bytes + wire;
  (match t.tap with
  | Some tap ->
    tap ~now ~in_port:frame.Frame.meta.Meta.in_port ~out_port frame
  | None -> ());
  (* The scalar twin of [tap]: every argument is an immediate int, so
     a telemetry sink can encode a binary postcard with no boxing on
     the per-hop fast path. [queue_bytes] is the occupancy of the
     queue the frame is about to join — the Figure 1 semantics. *)
  (match t.bin_tap with
  | Some tap ->
    let meta = frame.Frame.meta in
    tap ~now ~in_port:meta.Meta.in_port ~out_port
      ~queue_bytes:sub.State.Subqueue.q_bytes
      ~version:meta.Meta.matched_version ~frame_id:frame.Frame.id
      ~flow_hash:(Frame.flow_hash frame) ~wire_bytes:wire
      ~entry:meta.Meta.matched_entry
  | None -> ());
  if sub.State.Subqueue.q_bytes + wire > sub.State.Subqueue.q_limit then begin
    (* NDP trim-instead-of-drop: a data frame that would tail-drop is
       cut to [trim_keep] payload bytes in place (one length patch +
       incremental checksum, no re-serialize, no allocation) and joins
       the top-priority queue, re-marked DSCP 63 so downstream
       classifiers keep it there. Control frames already in the top
       queue, and frames with nothing left to cut, tail-drop as
       before. *)
    let top_qi = nq - 1 in
    if
      t.trim_keep >= 0 && queue_id < top_qi && Frame.has_udp frame
      && Frame.payload_len frame > t.trim_keep
    then begin
      Frame.trim frame ~keep:t.trim_keep;
      Frame.set_ip_dscp frame 63;
      frame.Frame.meta.Meta.queue_id <- top_qi;
      let top = port.State.Port.queues.(top_qi) in
      let twire = Frame.wire_size frame in
      if top.State.Subqueue.q_bytes + twire > top.State.Subqueue.q_limit
      then begin
        top.State.Subqueue.q_dropped <- top.State.Subqueue.q_dropped + twire;
        port.State.Port.drops <- port.State.Port.drops + 1;
        drop t "queue full"
      end
      else begin
        port.State.Port.trims <- port.State.Port.trims + 1;
        st.State.trims <- st.State.trims + 1;
        Ring.push top.State.Subqueue.frames frame;
        top.State.Subqueue.q_bytes <- top.State.Subqueue.q_bytes + twire;
        top.State.Subqueue.q_enqueued <- top.State.Subqueue.q_enqueued + twire;
        port.State.Port.queue_bytes <- port.State.Port.queue_bytes + twire;
        out_port
      end
    end
    else begin
      sub.State.Subqueue.q_dropped <- sub.State.Subqueue.q_dropped + wire;
      port.State.Port.drops <- port.State.Port.drops + 1;
      drop t "queue full"
    end
  end
  else begin
    (* Fixed-function ECN (paper §4): mark CE when the queue the packet
       joins already sits above the threshold. In-place patch; the
       incremental checksum update keeps the IPv4 header valid. *)
    (match port.State.Port.ecn_threshold with
    | Some threshold
      when Frame.has_ip frame && sub.State.Subqueue.q_bytes >= threshold ->
      Frame.set_ip_ecn frame Ipv4.Header.ecn_ce
    | _ -> ());
    if
      port.State.Port.queue_bytes = 0 && strict t out_port
      && transmit ~port:out_port frame
    then begin
      sub.State.Subqueue.q_enqueued <- sub.State.Subqueue.q_enqueued + wire;
      port.State.Port.tx_bytes <- port.State.Port.tx_bytes + wire;
      port.State.Port.tx_pkts <- port.State.Port.tx_pkts + 1;
      cut_through
    end
    else begin
      Ring.push sub.State.Subqueue.frames frame;
      sub.State.Subqueue.q_bytes <- sub.State.Subqueue.q_bytes + wire;
      sub.State.Subqueue.q_enqueued <- sub.State.Subqueue.q_enqueued + wire;
      port.State.Port.queue_bytes <- port.State.Port.queue_bytes + wire;
      out_port
    end
  end

(* Forward along a table hit. A plain function (not a closure inside
   [ingress]) so the per-hop fast path allocates nothing: the hit entry
   and the table stage arrive as separate arguments, never packed into
   a tuple. *)
let route t ~now ~transmit ~in_port frame ~out_port ~entry_id ~version
    ~table_hit =
  if out_port < 0 || out_port >= num_ports t then drop t "route to invalid port"
  else begin
    (* Routed (non-L2) hops decrement the TTL; expiry protects the
       network from forwarding loops. The decrement patches the
       wire image directly (no header record is rebuilt). *)
    let expired =
      if table_hit >= 2 && Frame.has_ip frame then begin
        let ttl = Frame.ip_ttl frame in
        if ttl <= 1 then true
        else begin
          Frame.set_ip_ttl frame (ttl - 1);
          false
        end
      end
      else false
    in
    if expired then drop t "TTL expired"
    else begin
      fill_meta t ~now ~in_port ~out_port ~entry_id ~version ~table_hit frame;
      process_and_enqueue t ~now ~transmit frame ~out_port
    end
  end

let route_entry t ~now ~transmit ~in_port frame (e : Tables.entry) ~table_hit =
  match e.Tables.action with
  | Tables.Drop -> drop t "table drop rule"
  | Tables.Forward p ->
    route t ~now ~transmit ~in_port frame ~out_port:p ~entry_id:e.Tables.entry_id
      ~version:e.Tables.version ~table_hit
  | Tables.Multipath ports ->
    route t ~now ~transmit ~in_port frame
      ~out_port:
        (Tables.select_path ports ~key:(Frame.flow_hash frame lxor t.ecmp_salt))
      ~entry_id:e.Tables.entry_id ~version:e.Tables.version ~table_hit
  | Tables.Connected c ->
    if not (Frame.has_ip frame) then drop t "connected route on non-IP frame"
    else
      let p = Tables.connected_port_i c (Frame.ip_dst frame) in
      if p < 0 then drop t "no connected host"
      else
        route t ~now ~transmit ~in_port frame ~out_port:p ~entry_id:e.Tables.entry_id
          ~version:e.Tables.version ~table_hit

(* Unknown destination: a copy out of every other port. Each copy is
   cloned from the frame as it arrived, before the TCPU, a trim or a
   mark touched any of them; the frame itself travels on the first
   port. Flood copies always queue. *)
let flood t ~now ~in_port frame =
  let n = num_ports t in
  let first = if in_port = 0 then 1 else 0 in
  let copies =
    Array.init n (fun p ->
        if p = first || p = in_port then frame else Frame.clone frame)
  in
  let queued = ref [] and kept = ref false in
  for out_port = 0 to n - 1 do
    if out_port <> in_port then begin
      let copy = copies.(out_port) in
      fill_meta t ~now ~in_port ~out_port ~entry_id:0 ~version:0 ~table_hit:0 copy;
      if process_and_enqueue t ~now ~transmit:never_idle copy ~out_port >= 0
      then begin
        queued := out_port :: !queued;
        if copy == frame then kept := true
      end
    end
  done;
  if !queued = [] then
    (* Each copy tried was counted as it dropped. *)
    if n > 1 then begin
      t.drop_reason <- "flood found no open port";
      dropped
    end
    else drop t "flood found no open port"
  else begin
    (* Clones are unpooled; the frame itself goes back to its pool if
       its own port dropped it. *)
    if not !kept then Frame.recycle frame;
    t.flooded_ports <- List.rev !queued;
    flooded
  end

(* The pipeline of {!handle_ingress} and {!forward}, which differ only
   in the transmitter a frame that finds its port idle is offered to. A
   stripped copy always queues. *)
let ingress t ~transmit ~now ~in_port frame =
  let st = t.switch_state in
  if in_port < 0 || in_port >= num_ports t then drop t "invalid ingress port"
  else begin
    let stripped =
      Array.length t.strip_tpp > 0
      && t.strip_tpp.(in_port)
      && Option.is_some frame.Frame.tpp
    in
    let frame =
      if stripped then begin
        (* The stripped copy travels on; the original goes back to its
           pool (a no-op if unpooled). *)
        let copy = Frame.with_tpp frame None in
        Frame.recycle frame;
        copy
      end
      else frame
    in
    let transmit = if stripped then never_idle else transmit in
    let wire = Frame.wire_size frame in
    let p_in = live_port st in_port in
    p_in.State.Port.rx_bytes <- p_in.State.Port.rx_bytes + wire;
    p_in.State.Port.rx_pkts <- p_in.State.Port.rx_pkts + 1;
    st.State.packets_seen <- st.State.packets_seen + 1;
    st.State.bytes_seen <- st.State.bytes_seen + wire;
    (* Lookup priority: TCAM overrides, then L3 for IP traffic, then
       exact L2, else flood. *)
    match tcam_lookup t ~in_port frame with
    | Some e -> route_entry t ~now ~transmit ~in_port frame e ~table_hit:3
    | None -> (
      match
        if Frame.has_ip frame then Tables.L3.lookup t.l3 (Frame.ip_dst frame)
        else None
      with
      | Some e -> route_entry t ~now ~transmit ~in_port frame e ~table_hit:2
      | None -> (
        match Tables.L2.lookup t.l2 (Frame.eth_dst frame) with
        | Some e -> route_entry t ~now ~transmit ~in_port frame e ~table_hit:1
        | None -> flood t ~now ~in_port frame))
  end

let handle_ingress t ~now ~in_port frame =
  let r = ingress t ~transmit:never_idle ~now ~in_port frame in
  if r >= 0 then begin
    let queued_one =
      if Array.length t.queued_one = 0 then materialize_queued_one t
      else t.queued_one
    in
    Array.unsafe_get queued_one r
  end
  else if r = flooded then Queued t.flooded_ports
  else Dropped t.drop_reason

let forward t ~now ~in_port frame = ingress t ~transmit:t.transmit ~now ~in_port frame
let flooded_ports t = t.flooded_ports
let drop_reason t = t.drop_reason

let set_scheduler t ~port discipline =
  (match discipline with
  | Wrr weights ->
    if Array.length weights = 0 || Array.for_all (fun w -> w <= 0) weights then
      invalid_arg "Switch.set_scheduler: WRR needs a positive weight"
  | Strict -> ());
  let s = (sched_array t).(port) in
  s.discipline <- discipline;
  s.rr_queue <- 0;
  s.rr_remaining <- 0

(* Sentinel threaded through the unboxed dequeue chain: "this port has
   nothing to send", compared physically, never transmitted. Callers of
   {!dequeue_or} substitute their own default at the boundary. *)
let nothing = Frame.placeholder ()

let take_from port qi =
  let queues = port.State.Port.queues in
  let frame = Ring.take_or queues.(qi).State.Subqueue.frames ~default:nothing in
  if frame != nothing then begin
    let wire = Frame.wire_size frame in
    queues.(qi).State.Subqueue.q_bytes <- queues.(qi).State.Subqueue.q_bytes - wire;
    port.State.Port.queue_bytes <- port.State.Port.queue_bytes - wire;
    port.State.Port.tx_bytes <- port.State.Port.tx_bytes + wire;
    port.State.Port.tx_pkts <- port.State.Port.tx_pkts + 1
  end;
  frame

(* Strict: serve the highest-index non-empty queue. WRR: keep serving
   the current queue until its per-turn packet budget (its weight) runs
   out or it empties, then move to the next queue with weight.

   Both loops are top-level recursive functions, not closures inside
   [dequeue]: a closure would be allocated on every call, and [dequeue]
   runs once per transmitted frame on the dataplane hot path. For the
   same reason the chain carries the bare sentinel, not an option. *)
let rec strict_scan port qi =
  if qi < 0 then nothing
  else
    let f = take_from port qi in
    if f != nothing then f else strict_scan port (qi - 1)

let rec wrr_serve s port weights n visited =
  if visited > n then nothing
  else if s.rr_remaining > 0 then begin
    let f = take_from port s.rr_queue in
    if f != nothing then begin
      s.rr_remaining <- s.rr_remaining - 1;
      f
    end
    else begin
      s.rr_remaining <- 0;
      wrr_serve s port weights n visited
    end
  end
  else begin
    s.rr_queue <- (s.rr_queue + 1) mod n;
    s.rr_remaining <- weights.(s.rr_queue);
    wrr_serve s port weights n (visited + 1)
  end

let dequeue_core t i =
  let port = State.port t.switch_state i in
  let queues = port.State.Port.queues in
  let n = Array.length queues in
  let sched = sched_array t in
  match sched.(i).discipline with
  | Strict -> strict_scan port (n - 1)
  | Wrr weights when Array.length weights <> n ->
    invalid_arg "Switch.dequeue: WRR weights do not match the queue count"
  | Wrr weights -> wrr_serve sched.(i) port weights n 0

let dequeue_or t ~port:i ~default =
  let f = dequeue_core t i in
  if f == nothing then default else f

let dequeue t ~port:i =
  let f = dequeue_core t i in
  if f == nothing then None else Some f

let queue_bytes t ~port:i = (State.port t.switch_state i).State.Port.queue_bytes
let queue_packets t ~port:i = State.Port.total_packets (State.port t.switch_state i)
