module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Frame = Tpp_isa.Frame
module Buf = Tpp_util.Buf
module Stats = Tpp_util.Stats

module Sink = struct
  type t = {
    mutable rx_pkts : int;
    mutable rx_bytes : int;
    mutable rx_payload : int;
    mutable decoded : int;
    latency : Stats.t;
    mutable highest : int;
    mutable reordered : int;
    mutable ce : int;
  }

  let decode_payload payload =
    if Bytes.length payload >= 12 then
      let seq = Buf.get_u32i payload 0 in
      let ts_hi = Buf.get_u32i payload 4 in
      let ts_lo = Buf.get_u32i payload 8 in
      Some (seq, (ts_hi lsl 32) lor ts_lo)
    else None

  let attach ?tap stack ~port =
    let t =
      { rx_pkts = 0; rx_bytes = 0; rx_payload = 0; decoded = 0;
        latency = Stats.create (); highest = -1; reordered = 0; ce = 0 }
    in
    Stack.on_udp stack ~port (fun ~now frame ->
        t.rx_pkts <- t.rx_pkts + 1;
        t.rx_bytes <- t.rx_bytes + Frame.wire_size frame;
        t.rx_payload <- t.rx_payload + Frame.payload_len frame;
        if
          Frame.has_ip frame
          && Frame.ip_ecn frame = Tpp_packet.Ipv4.Header.ecn_ce
        then t.ce <- t.ce + 1;
        (match decode_payload (Frame.payload frame) with
        | Some (seq, sent_ns) ->
          t.decoded <- t.decoded + 1;
          Stats.add t.latency (float_of_int (now - sent_ns));
          if seq < t.highest then t.reordered <- t.reordered + 1
          else t.highest <- seq
        | None -> ());
        match tap with Some f -> f ~now | None -> ());
    t

  let report stack t ~report_to ~port ~period first second =
    let loop = Engine.Loop.create (Net.engine (Stack.net stack)) in
    Engine.Loop.start loop ~at:(Stack.now stack + period) (fun () ->
        let payload = Bytes.create 8 in
        Buf.set_u32i payload 0 (first t);
        Buf.set_u32i payload 4 (second t);
        Stack.send_udp stack ~dst:report_to ~src_port:port ~dst_port:port ~payload ();
        period);
    loop

  let rx_pkts t = t.rx_pkts
  let rx_bytes t = t.rx_bytes
  let rx_payload_bytes t = t.rx_payload
  let latency t = t.latency
  let reordered t = t.reordered

  let holes t = if t.highest < 0 then 0 else t.highest + 1 - t.decoded
  let ce_marked t = t.ce
end

type kind =
  | Cbr
  | Burst of { burst_pkts : int; period : int }
  | Transfer of { total_bytes : int }

type t = {
  src : Stack.t;
  dst : Net.host;
  dst_port : int;
  mutable src_port : int;
      (* defaults to [dst_port]; a load balancer re-steers the flow by
         rewriting it, which changes the 5-tuple hash and so the ECMP
         path every switch picks *)
  payload_bytes : int;
  kind : kind;
  mutable rate : int;
  loop : Engine.Loop.t;
  mutable seq : int;
  mutable tx : int;
  mutable tx_payload : int;
  mutable last_tx_ns : int;  (* -1 before the first send; flowlet gaps *)
  mutable done_ : bool;
  mutable piggyback : (Tpp_isa.Tpp.t * int) option;  (* template, every *)
  mutable carried : int;
  wire_bytes : int;
}

let encode_payload t ~now =
  let payload = Bytes.make (max 12 t.payload_bytes) '\000' in
  Buf.set_u32i payload 0 t.seq;
  Buf.set_u32i payload 4 (now lsr 32);
  Buf.set_u32i payload 8 (now land 0xFFFF_FFFF);
  payload

let probe_wire_size ~src ~dst ~dst_port ~payload_bytes =
  let frame =
    Frame.udp_frame ~src_mac:(Stack.host src).Net.mac ~dst_mac:dst.Net.mac
      ~src_ip:(Stack.host src).Net.ip ~dst_ip:dst.Net.ip ~src_port:dst_port
      ~dst_port
      ~payload:(Bytes.create (max 12 payload_bytes))
      ()
  in
  Frame.wire_size frame

let make ~src ~dst ~dst_port ~payload_bytes ~rate kind =
  {
    src;
    dst;
    dst_port;
    src_port = dst_port;
    payload_bytes;
    kind;
    rate;
    loop = Engine.Loop.create (Net.engine (Stack.net src));
    seq = 0;
    tx = 0;
    tx_payload = 0;
    last_tx_ns = -1;
    done_ = false;
    piggyback = None;
    carried = 0;
    wire_bytes = probe_wire_size ~src ~dst ~dst_port ~payload_bytes;
  }

let cbr ~src ~dst ~dst_port ~payload_bytes ~rate_bps =
  if rate_bps <= 0 then invalid_arg "Flow.cbr: rate";
  make ~src ~dst ~dst_port ~payload_bytes ~rate:rate_bps Cbr

let bursts ~src ~dst ~dst_port ~payload_bytes ~burst_pkts ~period =
  if burst_pkts <= 0 || period <= 0 then invalid_arg "Flow.bursts";
  make ~src ~dst ~dst_port ~payload_bytes ~rate:0 (Burst { burst_pkts; period })

let transfer ~src ~dst ~dst_port ~payload_bytes ~rate_bps ~total_bytes =
  if rate_bps <= 0 then invalid_arg "Flow.transfer: rate";
  if total_bytes <= 0 then invalid_arg "Flow.transfer: size";
  make ~src ~dst ~dst_port ~payload_bytes ~rate:rate_bps
    (Transfer { total_bytes })

let engine t = Net.engine (Stack.net t.src)

let send_one t =
  let now = Engine.now (engine t) in
  let payload = encode_payload t ~now in
  let tpp =
    match t.piggyback with
    | Some (template, every) when t.seq mod every = 0 ->
      t.carried <- t.carried + 1;
      Some (Tpp_isa.Tpp.copy template)
    | Some _ | None -> None
  in
  t.seq <- t.seq + 1;
  t.tx <- t.tx + 1;
  t.tx_payload <- t.tx_payload + Bytes.length payload;
  t.last_tx_ns <- now;
  Stack.send_udp t.src ~dst:t.dst ~src_port:t.src_port ~dst_port:t.dst_port ?tpp
    ~payload ()

let interval_ns t =
  int_of_float (ceil (float_of_int (t.wire_bytes * 8) *. 1e9 /. float_of_int t.rate))

let tick t () =
  match t.kind with
  | Burst { burst_pkts; period } ->
    for _ = 1 to burst_pkts do
      send_one t
    done;
    period
  | Transfer { total_bytes } when t.tx_payload >= total_bytes ->
    t.done_ <- true;
    -1
  | Cbr | Transfer _ ->
    send_one t;
    interval_ns t

let start t ?at () = if not t.done_ then Engine.Loop.start t.loop ?at (tick t)
let stop t = Engine.Loop.stop t.loop

let set_rate t ~rate_bps =
  if rate_bps <= 0 then invalid_arg "Flow.set_rate";
  match t.kind with
  | Cbr | Transfer _ -> t.rate <- rate_bps
  | Burst _ -> invalid_arg "Flow.set_rate: burst flows are not rate controlled"

let carry_tpp t ~every template =
  if every <= 0 then invalid_arg "Flow.carry_tpp: every";
  t.piggyback <- Some (template, every)

let tpp_carried t = t.carried

let rate_bps t = t.rate
let tx_pkts t = t.tx
let port t = t.dst_port
let src_port t = t.src_port
let set_src_port t p = t.src_port <- p
let last_tx_ns t = t.last_tx_ns
let wire_pkt_bytes t = t.wire_bytes
let is_done t = t.done_
let payload_sent t = t.tx_payload
