module Stack = Tpp_endhost.Stack
module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Buf = Tpp_util.Buf
module Frame = Tpp_isa.Frame

type config = {
  mss : int;
  initial_window : int;
  initial_ssthresh : int;
  min_rto_ns : int;
  max_rto_ns : int;
}

let default_config =
  {
    mss = 1000;
    initial_window = 4;
    initial_ssthresh = 64;
    min_rto_ns = 200_000_000;
    max_rto_ns = 5_000_000_000;
  }

(* Segment wire format (UDP payload): [kind u32][seq u32][extra u32].
   kind 0 = data (seq = segment number, extra = send timestamp low bits
   used only for debugging), kind 1 = ack (seq = cumulative ack). Data
   segments pad to MSS. *)
let kind_data = 0
let kind_ack = 1

let encode ~kind ~seq ~len =
  let payload = Bytes.make (Int.max 12 len) '\000' in
  Buf.set_u32i payload 0 kind;
  Buf.set_u32i payload 4 seq;
  payload

let decode payload =
  if Bytes.length payload < 8 then None
  else Some (Buf.get_u32i payload 0, Buf.get_u32i payload 4)

module Receiver = struct
  type t = {
    stack : Stack.t;
    port : int;
    mutable rcv_nxt : int;          (* next expected segment number *)
    ooo : (int, int) Hashtbl.t;     (* seq -> payload bytes held *)
    mutable delivered_bytes : int;
  }

  let attach stack ~port =
    let t =
      { stack; port; rcv_nxt = 0; ooo = Hashtbl.create 32; delivered_bytes = 0 }
    in
    Stack.on_udp stack ~port (fun ~now:_ frame ->
        match (decode (Frame.payload frame), Frame.ip frame) with
        | Some (kind, seq), Some ip when kind = kind_data ->
          let seg_bytes = Frame.payload_len frame in
          if seq >= t.rcv_nxt && not (Hashtbl.mem t.ooo seq) then
            Hashtbl.replace t.ooo seq seg_bytes;
          (* Advance the reassembly point over contiguous segments. *)
          let rec advance () =
            match Hashtbl.find_opt t.ooo t.rcv_nxt with
            | Some bytes ->
              Hashtbl.remove t.ooo t.rcv_nxt;
              t.delivered_bytes <- t.delivered_bytes + bytes;
              t.rcv_nxt <- t.rcv_nxt + 1;
              advance ()
            | None -> ()
          in
          advance ();
          (* Cumulative ACK for every arriving data segment. *)
          let ack = encode ~kind:kind_ack ~seq:t.rcv_nxt ~len:12 in
          let reply =
            Frame.udp_frame ~src_mac:(Stack.host stack).Net.mac
              ~dst_mac:(Frame.eth_src frame)
              ~src_ip:ip.Tpp_packet.Ipv4.Header.dst
              ~dst_ip:ip.Tpp_packet.Ipv4.Header.src ~src_port:t.port
              ~dst_port:t.port ~payload:ack ()
          in
          Net.host_send (Stack.net stack) (Stack.host stack) reply
        | _ -> ());
    t

  let bytes_delivered t = t.delivered_bytes
  let out_of_order_held t = Hashtbl.length t.ooo
end

module Transfer = struct
  type t = {
    config : config;
    stack : Stack.t;
    dst : Net.host;
    port : int;
    total_segments : int;
    total_bytes : int;
    on_complete : now:int -> unit;
    mutable snd_una : int;
    mutable snd_nxt : int;
    mutable cwnd : float;          (* segments *)
    mutable ssthresh : float;
    mutable dup_acks : int;
    mutable rto : int;
    mutable srtt : int;            (* 0 = no sample yet *)
    mutable rttvar : int;
    mutable timer_armed_una : int; (* -1 = no timer *)
    mutable recover : int;  (* NewReno: right edge of the loss window *)
    mutable rtt_probe : (int * int * int) option;
        (* (segment, sent_at, retransmit count at probe time) *)
    mutable retransmits : int;
    mutable timeouts : int;
    mutable done_ : bool;
  }

  let engine t = Net.engine (Stack.net t.stack)

  let seg_len t seq =
    if seq = t.total_segments - 1 then
      let rem = t.total_bytes mod t.config.mss in
      if rem = 0 then t.config.mss else Int.max 12 rem
    else t.config.mss

  let send_segment t seq ~retransmission =
    let payload = encode ~kind:kind_data ~seq ~len:(seg_len t seq) in
    Stack.send_udp t.stack ~dst:t.dst ~src_port:t.port ~dst_port:t.port ~payload ();
    if retransmission then t.retransmits <- t.retransmits + 1
    else if t.rtt_probe = None then
      t.rtt_probe <- Some (seq, Engine.now (engine t), t.retransmits)

  let update_rtt t sample =
    if t.srtt = 0 then begin
      t.srtt <- sample;
      t.rttvar <- sample / 2
    end
    else begin
      let diff = abs (t.srtt - sample) in
      t.rttvar <- ((3 * t.rttvar) + diff) / 4;
      t.srtt <- ((7 * t.srtt) + sample) / 8
    end;
    t.rto <-
      Int.min t.config.max_rto_ns (Int.max t.config.min_rto_ns (t.srtt + (4 * t.rttvar)))

  (* Sends whatever the window newly allows. *)
  let rec pump t =
    let window = int_of_float t.cwnd in
    if
      (not t.done_)
      && t.snd_nxt < t.total_segments
      && t.snd_nxt < t.snd_una + window
    then begin
      send_segment t t.snd_nxt ~retransmission:false;
      t.snd_nxt <- t.snd_nxt + 1;
      pump t
    end

  let rec arm_timer t =
    if (not t.done_) && t.snd_una < t.snd_nxt then begin
      let armed_una = t.snd_una in
      let armed_rto = t.rto in
      t.timer_armed_una <- armed_una;
      Engine.after (engine t) armed_rto (fun () ->
          if (not t.done_) && t.timer_armed_una = armed_una then begin
            if t.snd_una = armed_una then begin
              (* Retransmission timeout. *)
              t.timeouts <- t.timeouts + 1;
              t.ssthresh <- Float.max 2.0 (t.cwnd /. 2.0);
              t.cwnd <- 1.0;
              t.dup_acks <- 0;
              t.recover <- t.snd_nxt;
              t.rto <- Int.min t.config.max_rto_ns (t.rto * 2);
              send_segment t t.snd_una ~retransmission:true
            end;
            arm_timer t
          end)
    end
    else t.timer_armed_una <- -1

  let on_ack t ~now ack =
    if (not t.done_) && ack > t.snd_una then begin
      (* Karn: only sample if no retransmission happened since the probe
         left — a cumulative jump over a repaired hole is not an RTT. *)
      (match t.rtt_probe with
      | Some (probe, sent_at, rtx) when ack > probe ->
        if t.retransmits = rtx then update_rtt t (now - sent_at);
        t.rtt_probe <- None
      | _ -> ());
      let newly = ack - t.snd_una in
      t.snd_una <- ack;
      t.dup_acks <- 0;
      if t.snd_una >= t.total_segments then begin
        t.done_ <- true;
        t.timer_armed_una <- -1;
        t.on_complete ~now
      end
      else if t.snd_una < t.recover then begin
        (* NewReno partial ACK: the loss window had more holes; plug the
           next one immediately instead of waiting for an RTO. *)
        send_segment t t.snd_una ~retransmission:true;
        pump t;
        arm_timer t
      end
      else begin
        (* Slow start below ssthresh, else additive increase. *)
        for _ = 1 to newly do
          if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.0
          else t.cwnd <- t.cwnd +. (1.0 /. t.cwnd)
        done;
        pump t;
        arm_timer t
      end
    end
    else if (not t.done_) && ack = t.snd_una && t.snd_una < t.snd_nxt then begin
      t.dup_acks <- t.dup_acks + 1;
      if t.dup_acks = 3 && t.snd_una >= t.recover then begin
        (* Fast retransmit / simplified recovery. *)
        t.ssthresh <- Float.max 2.0 (t.cwnd /. 2.0);
        t.cwnd <- t.ssthresh;
        t.recover <- t.snd_nxt;
        send_segment t t.snd_una ~retransmission:true
      end
    end

  let start ?(config = default_config) ?(on_complete = fun ~now:_ -> ()) ~src ~dst
      ~port ~total_bytes () =
    if total_bytes <= 0 then invalid_arg "Tcp.Transfer.start: total_bytes";
    let total_segments = (total_bytes + config.mss - 1) / config.mss in
    let t =
      {
        config;
        stack = src;
        dst;
        port;
        total_segments;
        total_bytes;
        on_complete;
        snd_una = 0;
        snd_nxt = 0;
        cwnd = float_of_int config.initial_window;
        ssthresh = float_of_int config.initial_ssthresh;
        dup_acks = 0;
        rto = config.min_rto_ns;
        srtt = 0;
        rttvar = 0;
        timer_armed_una = -1;
        recover = 0;
        rtt_probe = None;
        retransmits = 0;
        timeouts = 0;
        done_ = false;
      }
    in
    (* ACKs come back on the same port. *)
    Stack.on_udp_add src ~port (fun ~now frame ->
        match decode (Frame.payload frame) with
        | Some (kind, ack) when kind = kind_ack -> on_ack t ~now ack
        | _ -> ());
    pump t;
    arm_timer t;
    t

  let is_done t = t.done_
  let bytes_acked t = Int.min t.total_bytes (t.snd_una * t.config.mss)
  let retransmits t = t.retransmits
  let timeouts t = t.timeouts
  let cwnd_segments t = t.cwnd
  let srtt_ns t = t.srtt
end
