module Vaddr = Tpp_isa.Vaddr
module Frame = Tpp_isa.Frame
module Ring = Tpp_util.Ring

let mask32 v = v land 0xFFFF_FFFF

module Subqueue = struct
  type t = {
    mutable q_bytes : int;
    mutable q_enqueued : int;
    mutable q_dropped : int;
    mutable q_limit : int;
    frames : Frame.t Ring.t;
        (* ring, not [Queue.t]: enqueue/dequeue allocate nothing once
           the ring has grown to the port's working set *)
  }

  (* Every ring's vacated-slot filler: it is only stored, never read
     back, compared, sent or mutated, so one frame serves all rings
     (and all domains). *)
  let filler = Frame.placeholder ()

  let create ~limit =
    { q_bytes = 0; q_enqueued = 0; q_dropped = 0; q_limit = limit;
      frames = Ring.create ~dummy:filler () }

  let packets t = Ring.length t.frames
end

module Port = struct
  (* Field order is layout: the seven registers an egress hop touches
     come first, so with the header they fill one 64-byte line; the
     ingress counters and the rarely written rest share the second. *)
  type t = {
    mutable window_rx_bytes : int;
    mutable offered_bytes : int;
    mutable queue_bytes : int;
    mutable ecn_threshold : int option;
    mutable queues : Subqueue.t array;
    mutable tx_bytes : int;
    mutable tx_pkts : int;
    mutable rx_bytes : int;
    mutable rx_pkts : int;
    mutable drops : int;
    mutable trims : int;  (* frames trimmed to header instead of dropped *)
    mutable capacity_bps : int;
    mutable util_ppm : int;
    mutable queue_limit : int;
  }

  let create ~queue_limit =
    {
      window_rx_bytes = 0;
      offered_bytes = 0;
      queue_bytes = 0;
      ecn_threshold = None;
      queues = [| Subqueue.create ~limit:queue_limit |];
      tx_bytes = 0;
      tx_pkts = 0;
      rx_bytes = 0;
      rx_pkts = 0;
      drops = 0;
      trims = 0;
      capacity_bps = 1_000_000_000;
      util_ppm = 0;
      queue_limit;
    }

  let total_packets t =
    Array.fold_left (fun acc q -> acc + Subqueue.packets q) 0 t.queues
end

(* [sram] and [ports] materialize on first touch: an idle switch in a
   million-host fabric pays for neither its 1920-word SRAM nor its
   per-port register records until traffic (or a TPP) reaches it. An
   empty [sram] reads as all-zero and an empty [ports] as all-idle, so
   laziness is invisible to observers. [capacities] is the one per-port
   datum set during topology construction (Net.connect), kept as a flat
   int array so wiring a link never materializes the port records. *)
type t = {
  switch_id : int;
  num_ports : int;
  queue_limit : int;
  mutable version : int;
  mutable packets_seen : int;
  mutable bytes_seen : int;
  mutable drops : int;
  mutable trims : int;
  mutable tpp_execs : int;
  mutable tpp_faults : int;
  mutable tpp_cycles : int;
  mutable tpp_compile_hits : int;
  mutable tpp_compile_misses : int;
  mutable sram : int array;
  mutable ports : Port.t array;
  mutable queue_avg : Float.Array.t;
      (* per port, beside [ports]: a float field of a port record would
         box every update *)
  mutable capacities : int array;
}

let default_capacity_bps = 1_000_000_000

let create ~switch_id ~num_ports ?(queue_limit = 150_000) () =
  if num_ports <= 0 then invalid_arg "State.create: num_ports";
  {
    switch_id;
    num_ports;
    queue_limit;
    version = 0;
    packets_seen = 0;
    bytes_seen = 0;
    drops = 0;
    trims = 0;
    tpp_execs = 0;
    tpp_faults = 0;
    tpp_cycles = 0;
    tpp_compile_hits = 0;
    tpp_compile_misses = 0;
    sram = [||];
    ports = [||];
    queue_avg = Float.Array.create 0;
    capacities = Array.make num_ports default_capacity_bps;
  }

let[@inline never] materialize_ports t =
  let ports =
    Array.init t.num_ports (fun i ->
        let p = Port.create ~queue_limit:t.queue_limit in
        p.Port.capacity_bps <- t.capacities.(i);
        p)
  in
  t.queue_avg <- Float.Array.make t.num_ports 0.0;
  t.ports <- ports;
  ports

let[@inline] ports_array t =
  if Array.length t.ports = 0 then materialize_ports t else t.ports

let[@inline never] materialize_sram t =
  let sram = Array.make Vaddr.sram_words 0 in
  t.sram <- sram;
  sram

let[@inline] sram_array t =
  if Array.length t.sram = 0 then materialize_sram t else t.sram

let ports_materialized t = Array.length t.ports > 0

let port t i =
  if i < 0 || i >= t.num_ports then invalid_arg "State.port: out of range";
  (ports_array t).(i)

let set_capacity t ~port:i ~bps =
  if i < 0 || i >= t.num_ports then invalid_arg "State.set_capacity: out of range";
  t.capacities.(i) <- bps;
  if Array.length t.ports > 0 then t.ports.(i).Port.capacity_bps <- bps

let capacity t ~port:i =
  if i < 0 || i >= t.num_ports then invalid_arg "State.capacity: out of range";
  t.capacities.(i)

let port_stat t ~port:i stat =
  let p = port t i in
  let open Vaddr.Port_stat in
  match stat with
  | Queue_bytes -> mask32 p.Port.queue_bytes
  | Queue_pkts -> Port.total_packets p
  | Rx_bytes -> mask32 p.Port.rx_bytes
  | Tx_bytes -> mask32 p.Port.tx_bytes
  | Rx_util -> p.Port.util_ppm
  | Drops -> mask32 p.Port.drops
  | Queue_bytes_avg -> mask32 (int_of_float (Float.Array.get t.queue_avg i))
  | Capacity_kbps -> mask32 (p.Port.capacity_bps / 1000)
  | Tx_pkts -> mask32 p.Port.tx_pkts
  | Rx_pkts -> mask32 p.Port.rx_pkts
  | Queue_limit -> mask32 p.Port.queue_limit

let queue_stat t ~port:i ~queue stat =
  let p = port t i in
  if queue < 0 || queue >= Array.length p.Port.queues then -1
  else begin
    let q = p.Port.queues.(queue) in
    let open Vaddr.Queue_stat in
    match stat with
    | Q_bytes -> mask32 q.Subqueue.q_bytes
    | Q_pkts -> Subqueue.packets q
    | Q_enqueued -> mask32 q.Subqueue.q_enqueued
    | Q_dropped -> mask32 q.Subqueue.q_dropped
    | Q_limit -> mask32 q.Subqueue.q_limit
    | Q_id -> queue
  end

let configure_queues t ~port:i ~count =
  if count <= 0 then invalid_arg "State.configure_queues: count";
  let p = port t i in
  p.Port.queues <- Array.init count (fun _ -> Subqueue.create ~limit:p.Port.queue_limit);
  p.Port.queue_bytes <- 0

let force_queue_depth t ~port:i ~bytes =
  let p = port t i in
  p.Port.queues.(0).Subqueue.q_bytes <- bytes;
  p.Port.queue_bytes <- bytes

let switch_stat t ~now stat =
  let open Vaddr.Switch_stat in
  match stat with
  | Switch_id -> t.switch_id
  | Version -> mask32 t.version
  | Packets_seen -> mask32 t.packets_seen
  | Bytes_seen -> mask32 t.bytes_seen
  | Drops -> mask32 t.drops
  | Num_ports -> t.num_ports
  | Tpp_execs -> mask32 t.tpp_execs
  | Tpp_faults -> mask32 t.tpp_faults
  | Clock_ns -> mask32 now
  | Tpp_compile_hits -> mask32 t.tpp_compile_hits
  | Tpp_compile_misses -> mask32 t.tpp_compile_misses

let sram_get t i =
  if i < 0 || i >= Vaddr.sram_words then -1
  else if Array.length t.sram = 0 then 0
  else t.sram.(i)

let sram_set t i v =
  if i < 0 || i >= Vaddr.sram_words then false
  else begin
    (sram_array t).(i) <- mask32 v;
    true
  end

let link_sram_index t ~slot ~port =
  if slot < 0 || slot >= Vaddr.link_sram_slots || port < 0 || port >= t.num_ports then
    -1
  else begin
    let idx = (slot * t.num_ports) + port in
    if idx >= Vaddr.sram_words then -1 else idx
  end

(* Queue-average smoothing factor: light smoothing so the register tracks
   micro-burst timescales rather than hiding them. *)
let qavg_alpha = 0.25

let update_utilization t ~window_ns =
  if window_ns <= 0 then invalid_arg "State.update_utilization: window";
  (* An unmaterialized port array means no frame ever crossed this
     switch: every register the update would touch is still zero and the
     EWMA of zero is zero, so skipping is observationally identical. A
     loop, not [Array.iter] with a closure over [window_ns], and an
     unboxed average: a warm tick allocates nothing. *)
  for i = 0 to Array.length t.ports - 1 do
    let p = t.ports.(i) in
    let bits = float_of_int p.Port.window_rx_bytes *. 8.0 in
    let seconds = float_of_int window_ns /. 1e9 in
    let cap = float_of_int p.Port.capacity_bps in
    let util = if cap <= 0.0 then 0.0 else bits /. (seconds *. cap) in
    p.Port.util_ppm <- int_of_float (util *. 1e6);
    p.Port.window_rx_bytes <- 0;
    let avg = Float.Array.get t.queue_avg i in
    Float.Array.set t.queue_avg i
      (avg +. (qavg_alpha *. (float_of_int p.Port.queue_bytes -. avg)))
  done
