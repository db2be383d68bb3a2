(* NDP-style receiver-driven transport (Handley et al., SIGCOMM 2017)
   on the testbed's trim-and-priority-queue switches; the credit/pull/
   trim state machine follows the nanoPU-sim sketch the ROADMAP points
   at. The sender sprays an unsolicited window, then transmits only on
   receiver pulls; switches cut an overflowing data packet to its
   header instead of dropping it, so the receiver learns about every
   loss within one RTT and NACKs the exact offset. Control packets
   (PULL/NACK/ACK) and trimmed headers ride the fabric's top-priority
   queue (DSCP 63), which {!Net.enable_trimming} provisions.

   Every NDP packet carries a 7-word header in its UDP payload:

     word 0  kind        0=DATA 1=PULL 2=NACK 3=ACK
     word 1  msg_id      sender-local message id
     word 2  offset      DATA/NACK: packet offset; PULL: pull counter
     word 3  total_pkts
     word 4  msg_bytes
     word 5  ts_hi       message start time (receiver-side FCT)
     word 6  ts_lo

   DATA carries its chunk after the header; switches trim to exactly
   [header_bytes], so a DATA frame whose payload is that short is a
   trimmed header. One endpoint per host plays both roles: sender state
   is keyed by msg_id, receiver state by (source ip, msg_id). *)

module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Frame = Tpp_isa.Frame
module Buf = Tpp_util.Buf
module Ipv4 = Tpp_packet.Ipv4
module Stack = Tpp_endhost.Stack

let header_bytes = 28
let ctrl_dscp = 63

let kind_data = 0
let kind_pull = 1
let kind_nack = 2
let kind_ack = 3

type config = {
  window_pkts : int;      (* unsolicited spray at message start *)
  payload_bytes : int;    (* data bytes per packet, beyond the header *)
  rtx_timeout_ns : int;   (* receiver stall timer *)
  nack_burst : int;       (* missing offsets re-requested per stall *)
  pull_gap_ns : int;      (* min spacing between pulls; 0 = unpaced *)
  data_queue_bytes : int; (* shallow per-port data queue (trim point) *)
  ctrl_queue_bytes : int; (* top-priority queue budget per switch port *)
}

let default_config =
  {
    window_pkts = 8;
    payload_bytes = 1000;
    rtx_timeout_ns = 1_000_000;
    nack_burst = 8;
    pull_gap_ns = 0;
    data_queue_bytes = 9_000;
    ctrl_queue_bytes = 25_000;
  }

(* Fabric half of the protocol: two priority queues per port, a shallow
   data queue (NDP keeps latency low by trimming early, not by
   buffering), a small control budget, trim-to-header on data-queue
   overflow. *)
let enable_network net config =
  Net.enable_trimming net ~keep:header_bytes
    ~data_limit:config.data_queue_bytes ~ctrl_limit:config.ctrl_queue_bytes

type msg = {
  m_id : int;
  m_dst : Net.host;
  m_total : int;
  m_bytes : int;
  m_start : int;
  mutable m_sprayed : int;
  mutable m_next_new : int;  (* lowest offset never sent *)
  mutable m_data_sent : int;
  mutable m_pulls_rx : int;
  mutable m_nacks_rx : int;
  mutable m_urgent_rx : int;  (* urgent stall NACKs: may send unclocked *)
  m_rtx : int Queue.t;        (* NACKed offsets awaiting a pull *)
  m_rtx_pending : Bytes.t;    (* offset already queued for rtx *)
  m_sent_at : int array;      (* last transmission time per offset *)
  mutable m_pull_max : int;  (* highest pull counter seen *)
  mutable m_last_fb : int;   (* when feedback (pull/NACK) last arrived *)
  mutable m_acked : bool;
}

type rx = {
  r_src : Net.host;
  r_total : int;
  r_bytes : int;
  r_start : int;
  r_got : Bytes.t;  (* one byte per offset *)
  mutable r_got_count : int;
  mutable r_arrivals : int;  (* data + trimmed headers seen *)
  mutable r_pull_seq : int;
  mutable r_last_rx : int;
  mutable r_last_pull_tx : int;  (* when our pacer last pulled for it *)
  mutable r_complete : bool;
}

type stats = {
  started : int;
  completed : int;     (* sender side: ACKs received *)
  rx_completed : int;  (* receiver side: messages fully assembled *)
  data_tx : int;
  data_rx : int;
  trimmed_rx : int;    (* trimmed headers that reached the receiver *)
  pulls_tx : int;
  pulls_rx : int;
  nacks_tx : int;
  nacks_rx : int;
  acks_tx : int;
  acks_rx : int;
}

type t = {
  stack : Stack.t;
  config : config;
  port : int;
  by_ip : (int, Net.host) Hashtbl.t;  (* control replies need a host *)
  send_msgs : (int, msg) Hashtbl.t;
  rx_msgs : (int * int, rx) Hashtbl.t;  (* (src ip, msg_id) *)
  mutable next_msg_id : int;
  mutable next_pull_at : int;  (* pull pacer release time *)
  mutable on_complete :
    (now:int -> src:Ipv4.Addr.t -> bytes:int -> start_ns:int -> unit) option;
  (* counters — see [stats] *)
  mutable c_started : int;
  mutable c_completed : int;
  mutable c_rx_completed : int;
  mutable c_data_tx : int;
  mutable c_data_rx : int;
  mutable c_trimmed_rx : int;
  mutable c_pulls_tx : int;
  mutable c_pulls_rx : int;
  mutable c_nacks_tx : int;
  mutable c_nacks_rx : int;
  mutable c_acks_tx : int;
  mutable c_acks_rx : int;
  (* state-machine invariants, checked on the fly so the QCheck suite
     can assert them after arbitrary trim/drop schedules *)
  mutable v_credit : int;  (* data sends beyond spray + pulls + stalls *)
  mutable v_pull_order : int;  (* pull counters that went backwards *)
  mutable v_grant : int;  (* pulls sent without a matching arrival *)
}

let write_header b ~kind ~msg_id ~offset ~total ~bytes ~start_ns =
  Buf.set_u32i b 0 kind;
  Buf.set_u32i b 4 msg_id;
  Buf.set_u32i b 8 offset;
  Buf.set_u32i b 12 total;
  Buf.set_u32i b 16 bytes;
  Buf.set_u32i b 20 (start_ns lsr 32);
  Buf.set_u32i b 24 (start_ns land 0xFFFF_FFFF)

let send_ctrl t ~dst ~kind ~msg_id ~offset ~total ~bytes ~start_ns =
  let payload = Bytes.make header_bytes '\000' in
  write_header payload ~kind ~msg_id ~offset ~total ~bytes ~start_ns;
  Stack.send_udp t.stack ~dst ~src_port:t.port ~dst_port:t.port
    ~dscp:ctrl_dscp ~payload ()

let chunk_len t m offset =
  if offset < m.m_total - 1 then t.config.payload_bytes
  else m.m_bytes - ((m.m_total - 1) * t.config.payload_bytes)

(* Per-packet spraying: each data packet carries a src port derived
   from (msg_id, offset, attempt), so 5-tuple ECMP scatters a message
   across every equal-cost path instead of pinning it to one — that is
   NDP's core trick, and the reassembly bitmap is what makes the
   resulting reordering harmless. A retransmission changes its spray
   port ([m_data_sent] seeds the hash) so a congested path is not
   retried forever. Control stays on the fixed port: one path, FIFO
   priority queue, so pull counters arrive in order. *)
let send_data t m offset =
  m.m_data_sent <- m.m_data_sent + 1;
  if m.m_data_sent > m.m_sprayed + m.m_pulls_rx + m.m_urgent_rx then
    t.v_credit <- t.v_credit + 1;
  t.c_data_tx <- t.c_data_tx + 1;
  let spray =
    ((m.m_id * 131) + (offset * 37) + (m.m_data_sent * 13)) land 63
  in
  m.m_sent_at.(offset) <- Stack.now t.stack;
  let payload = Bytes.make (header_bytes + chunk_len t m offset) '\000' in
  write_header payload ~kind:kind_data ~msg_id:m.m_id ~offset ~total:m.m_total
    ~bytes:m.m_bytes ~start_ns:m.m_start;
  Stack.send_udp t.stack ~dst:m.m_dst ~src_port:(t.port + 1 + spray)
    ~dst_port:t.port ~payload ()

(* ---- sender-side control arrivals ---- *)

(* One pull = permission for one transmission: retransmissions first
   (a NACKed offset is a known hole), new data after. Keeping every
   retransmission pull-clocked is what stops trim storms from
   collapsing the fabric — in-flight per message never exceeds the
   spray window. *)
let serve_one t m =
  if not (Queue.is_empty m.m_rtx) then begin
    let offset = Queue.pop m.m_rtx in
    Bytes.set m.m_rtx_pending offset '\000';
    send_data t m offset
  end
  else if m.m_next_new < m.m_total then begin
    send_data t m m.m_next_new;
    m.m_next_new <- m.m_next_new + 1
  end

let on_pull t m ~offset =
  t.c_pulls_rx <- t.c_pulls_rx + 1;
  m.m_pulls_rx <- m.m_pulls_rx + 1;
  m.m_last_fb <- Stack.now t.stack;
  (* Same 5-tuple, same path, FIFO control queue: pull counters arrive
     strictly increasing (drops leave gaps, never reorderings). *)
  if offset <= m.m_pull_max then t.v_pull_order <- t.v_pull_order + 1
  else m.m_pull_max <- offset;
  serve_one t m

(* NACK flags, carried in the header's [bytes] word. *)
let nack_stall = 2  (* from the stall timer, not from a trimmed header *)
let nack_urgent = 1 (* the sender may answer without waiting for a pull *)

let on_nack t m ~offset ~flags =
  t.c_nacks_rx <- t.c_nacks_rx + 1;
  m.m_nacks_rx <- m.m_nacks_rx + 1;
  m.m_last_fb <- Stack.now t.stack;
  if offset >= 0 && offset < m.m_total then begin
    (* A trim NACK means the copy we sent is known dead: requeue it.
       A stall NACK is only the receiver guessing — if we transmitted
       that offset recently the copy is probably still in flight, and
       resending it is how stale NACKs snowball into duplicate storms.
       Guard stalls with a per-offset recent-send check. *)
    let guard = t.config.rtx_timeout_ns / 2 in
    let fresh =
      flags land nack_stall = 0
      || Stack.now t.stack - m.m_sent_at.(offset) >= guard
    in
    if fresh && Bytes.get m.m_rtx_pending offset = '\000' then begin
      Bytes.set m.m_rtx_pending offset '\001';
      Queue.push offset m.m_rtx
    end;
    (* An urgent NACK is the liveness path: the receiver's clock died
       (every in-flight packet or pull was lost outright), so one
       unclocked transmission restarts it. Urgent NACKs are paced by
       the receiver's stall timeout — at most one per message per
       timeout — so this cannot re-create the very overload trimming
       exists to absorb. *)
    if flags land nack_urgent <> 0 then begin
      m.m_urgent_rx <- m.m_urgent_rx + 1;
      serve_one t m
    end
  end

let on_ack t m =
  t.c_acks_rx <- t.c_acks_rx + 1;
  if not m.m_acked then begin
    m.m_acked <- true;
    t.c_completed <- t.c_completed + 1;
    Hashtbl.remove t.send_msgs m.m_id
  end

(* The sender's last-resort liveness timer. Loss recovery is
   receiver-driven (stall NACKs), which assumes the receiver both knows
   the message exists and can still reach us; neither holds when every
   unsolicited spray copy dies in flight (no receiver state, so no NACK
   will ever come) or when the final ACK is the packet that was lost
   (the receiver is done and its stall timer is off, so nothing will
   ever be resent). The timer stays armed until the ACK lands but acts
   only in those two states — before any feedback at all, or after
   every offset has been transmitted and the retransmit queue is empty
   — and only once the message has been quiet for a full timeout. Then
   it resprays one packet: an incomplete receiver counts the arrival
   and pulls, a complete one re-ACKs the duplicate. Mid-transfer
   stalls stay receiver-driven (stall NACKs are feedback and reset the
   quiet clock); resending on mere pull gaps there would duplicate
   data that is simply queued behind other messages' pulls. *)
let rec tx_timer t m () =
  if not m.m_acked then begin
    let quiet =
      Stack.now t.stack - Int.max m.m_start m.m_last_fb
      >= t.config.rtx_timeout_ns
    in
    let never_heard = m.m_pulls_rx = 0 && m.m_nacks_rx = 0 in
    let fully_sent = m.m_next_new >= m.m_total && Queue.is_empty m.m_rtx in
    if quiet && (never_heard || fully_sent) then begin
      m.m_sprayed <- m.m_sprayed + 1;
      send_data t m 0
    end;
    Stack.after t.stack t.config.rtx_timeout_ns (tx_timer t m)
  end

(* ---- receiver side ---- *)

let rx_key frame ~msg_id = (Ipv4.Addr.to_int (Frame.ip_src frame), msg_id)

(* The stall timer: self-rescheduling and guarded by [r_complete], so a
   finished message schedules nothing further. A message is stalled only when
   nothing has arrived for it AND our own pacer has not pulled for it
   within the timeout — a message whose pull is still queued behind
   other messages' pulls is waiting, not stalled. On a genuine stall it
   re-NACKs up to [nack_burst] missing offsets (retrying both lost data
   and lost pulls, which is what guarantees completion under random
   drops), and only the FIRST carries the urgent bit: one unclocked
   retransmission per stall restarts the clock without becoming an
   unclocked firehose when many messages stall at once. *)
let rec rx_timer t ~msg_id r () =
  if not r.r_complete then begin
    let now = Stack.now t.stack in
    let quiet = now - Int.max r.r_last_rx r.r_last_pull_tx in
    if quiet >= t.config.rtx_timeout_ns then begin
      let sent = ref 0 in
      let o = ref 0 in
      while !sent < t.config.nack_burst && !o < r.r_total do
        if Bytes.get r.r_got !o = '\000' then begin
          incr sent;
          t.c_nacks_tx <- t.c_nacks_tx + 1;
          send_ctrl t ~dst:r.r_src ~kind:kind_nack ~msg_id ~offset:!o
            ~total:r.r_total
            ~bytes:(if !sent = 1 then nack_stall lor nack_urgent
                    else nack_stall)
            ~start_ns:0
        end;
        incr o
      done;
      r.r_last_rx <- now
    end;
    Stack.after t.stack t.config.rtx_timeout_ns (rx_timer t ~msg_id r)
  end

(* The pull pacer. Each arrival earns one pull, but pulls leave the
   endpoint no faster than one per [pull_gap_ns] — the serialization
   time of a full data packet on the access link — shared across every
   message being received. Without pacing, trimmed headers (which
   arrive at control-queue speed, far faster than the data queue
   drains) would each pull a retransmission straight back into the
   still-full data queue: a trim storm. Pacing makes the pull clock
   tick at the rate the receiver can actually absorb data.
   [pull_gap_ns = 0] disables pacing for tiny single-flow nets. *)
let fire_pull t r ~msg_id () =
  if not r.r_complete then begin
    r.r_last_pull_tx <- Stack.now t.stack;
    r.r_pull_seq <- r.r_pull_seq + 1;
    if r.r_pull_seq > r.r_arrivals then t.v_grant <- t.v_grant + 1;
    t.c_pulls_tx <- t.c_pulls_tx + 1;
    send_ctrl t ~dst:r.r_src ~kind:kind_pull ~msg_id ~offset:r.r_pull_seq
      ~total:r.r_total ~bytes:0 ~start_ns:0
  end

let schedule_pull t r ~msg_id =
  let gap = t.config.pull_gap_ns in
  if gap = 0 then fire_pull t r ~msg_id ()
  else begin
    let now = Stack.now t.stack in
    let at = if t.next_pull_at > now then t.next_pull_at else now in
    t.next_pull_at <- at + gap;
    if at = now then fire_pull t r ~msg_id ()
    else Stack.after t.stack (at - now) (fire_pull t r ~msg_id)
  end

let on_data t ~now frame ~msg_id ~offset ~total ~bytes ~start_ns =
  let key = rx_key frame ~msg_id in
  let r =
    match Hashtbl.find_opt t.rx_msgs key with
    | Some r -> r
    | None ->
      let src =
        match Hashtbl.find_opt t.by_ip (fst key) with
        | Some h -> h
        | None -> invalid_arg "Ndp: data from unknown host"
      in
      let r =
        {
          r_src = src;
          r_total = total;
          r_bytes = bytes;
          r_start = start_ns;
          r_got = Bytes.make total '\000';
          r_got_count = 0;
          r_arrivals = 0;
          r_pull_seq = 0;
          r_last_rx = now;
          r_last_pull_tx = now;
          r_complete = false;
        }
      in
      Hashtbl.replace t.rx_msgs key r;
      Stack.after t.stack t.config.rtx_timeout_ns (rx_timer t ~msg_id r);
      r
  in
  if r.r_complete then begin
    (* Duplicate after completion (our ACK may have been lost): just
       re-ACK. *)
    t.c_acks_tx <- t.c_acks_tx + 1;
    send_ctrl t ~dst:r.r_src ~kind:kind_ack ~msg_id ~offset:0 ~total:r.r_total
      ~bytes:0 ~start_ns:0
  end
  else begin
    r.r_last_rx <- now;
    r.r_arrivals <- r.r_arrivals + 1;
    let trimmed = Frame.payload_len frame <= header_bytes in
    if trimmed then begin
      t.c_trimmed_rx <- t.c_trimmed_rx + 1;
      (* NACK-on-trim: the switch already told us which packet lost its
         payload; queue it at the sender for pull-clocked resend. *)
      if offset >= 0 && offset < r.r_total && Bytes.get r.r_got offset = '\000'
      then begin
        t.c_nacks_tx <- t.c_nacks_tx + 1;
        send_ctrl t ~dst:r.r_src ~kind:kind_nack ~msg_id ~offset
          ~total:r.r_total ~bytes:0 ~start_ns:0
      end
    end
    else begin
      t.c_data_rx <- t.c_data_rx + 1;
      if offset >= 0 && offset < r.r_total && Bytes.get r.r_got offset = '\000'
      then begin
        Bytes.set r.r_got offset '\001';
        r.r_got_count <- r.r_got_count + 1
      end
    end;
    (* Every arrival — data or trimmed header — earns one credit until
       the message is whole; the pacer decides when the pull actually
       leaves, and the clock keeps running while retransmissions are
       outstanding. *)
    if r.r_got_count < r.r_total then schedule_pull t r ~msg_id;
    if r.r_got_count = r.r_total then begin
      r.r_complete <- true;
      t.c_rx_completed <- t.c_rx_completed + 1;
      t.c_acks_tx <- t.c_acks_tx + 1;
      send_ctrl t ~dst:r.r_src ~kind:kind_ack ~msg_id ~offset:0
        ~total:r.r_total ~bytes:0 ~start_ns:0;
      match t.on_complete with
      | Some f ->
        f ~now ~src:(Frame.ip_src frame) ~bytes:r.r_bytes ~start_ns:r.r_start
      | None -> ()
    end
  end

let handle t ~now frame =
  if Frame.payload_len frame >= header_bytes then begin
    let kind = Frame.payload_u32 frame 0 in
    let msg_id = Frame.payload_u32 frame 4 in
    let offset = Frame.payload_u32 frame 8 in
    if kind = kind_data then
      on_data t ~now frame ~msg_id ~offset ~total:(Frame.payload_u32 frame 12)
        ~bytes:(Frame.payload_u32 frame 16)
        ~start_ns:
          ((Frame.payload_u32 frame 20 lsl 32) lor Frame.payload_u32 frame 24)
    else
      match Hashtbl.find_opt t.send_msgs msg_id with
      | None -> ()  (* control for a message already ACKed and dropped *)
      | Some m ->
        if kind = kind_pull then on_pull t m ~offset
        else if kind = kind_nack then
          on_nack t m ~offset ~flags:(Frame.payload_u32 frame 16)
        else if kind = kind_ack then on_ack t m
  end

let create ?(config = default_config) stack ~port =
  if config.window_pkts <= 0 || config.payload_bytes <= 0 then
    invalid_arg "Ndp.create: config";
  let by_ip = Hashtbl.create 64 in
  List.iter
    (fun (h : Net.host) -> Hashtbl.replace by_ip (Ipv4.Addr.to_int h.Net.ip) h)
    (Net.hosts (Stack.net stack));
  let t =
    {
      stack;
      config;
      port;
      by_ip;
      send_msgs = Hashtbl.create 32;
      rx_msgs = Hashtbl.create 32;
      next_msg_id = 1;
      next_pull_at = 0;
      on_complete = None;
      c_started = 0;
      c_completed = 0;
      c_rx_completed = 0;
      c_data_tx = 0;
      c_data_rx = 0;
      c_trimmed_rx = 0;
      c_pulls_tx = 0;
      c_pulls_rx = 0;
      c_nacks_tx = 0;
      c_nacks_rx = 0;
      c_acks_tx = 0;
      c_acks_rx = 0;
      v_credit = 0;
      v_pull_order = 0;
      v_grant = 0;
    }
  in
  Stack.on_udp stack ~port (fun ~now frame -> handle t ~now frame);
  t

let set_on_complete t f = t.on_complete <- Some f

let send t ~dst ~bytes =
  if bytes <= 0 then invalid_arg "Ndp.send: bytes";
  let total = (bytes + t.config.payload_bytes - 1) / t.config.payload_bytes in
  let m =
    {
      m_id = t.next_msg_id;
      m_dst = dst;
      m_total = total;
      m_bytes = bytes;
      m_start = Stack.now t.stack;
      m_sprayed = 0;
      m_next_new = 0;
      m_data_sent = 0;
      m_pulls_rx = 0;
      m_nacks_rx = 0;
      m_urgent_rx = 0;
      m_rtx = Queue.create ();
      m_rtx_pending = Bytes.make total '\000';
      m_sent_at = Array.make total 0;
      m_pull_max = 0;
      m_last_fb = 0;
      m_acked = false;
    }
  in
  t.next_msg_id <- t.next_msg_id + 1;
  t.c_started <- t.c_started + 1;
  Hashtbl.replace t.send_msgs m.m_id m;
  (* Unsolicited spray: the first window goes out immediately (the NIC
     serialises it at line rate); everything after is pull-clocked. *)
  let w = Int.min t.config.window_pkts total in
  m.m_sprayed <- w;
  for offset = 0 to w - 1 do
    send_data t m offset
  done;
  m.m_next_new <- w;
  Stack.after t.stack t.config.rtx_timeout_ns (tx_timer t m);
  m.m_id

let stats t =
  {
    started = t.c_started;
    completed = t.c_completed;
    rx_completed = t.c_rx_completed;
    data_tx = t.c_data_tx;
    data_rx = t.c_data_rx;
    trimmed_rx = t.c_trimmed_rx;
    pulls_tx = t.c_pulls_tx;
    pulls_rx = t.c_pulls_rx;
    nacks_tx = t.c_nacks_tx;
    nacks_rx = t.c_nacks_rx;
    acks_tx = t.c_acks_tx;
    acks_rx = t.c_acks_rx;
  }

let violations t =
  [
    ("credit", t.v_credit);
    ("pull_order", t.v_pull_order);
    ("grant", t.v_grant);
  ]

let invariants_ok t = t.v_credit = 0 && t.v_pull_order = 0 && t.v_grant = 0

(* Receiver-side credit audit for the property tests: pulls are clocked
   by arrivals (at most one per packet seen), and the assembled bitmap
   never claims more packets than the message has. *)
let fold_rx_credit t =
  Hashtbl.fold
    (fun _ r acc ->
      acc && r.r_pull_seq <= r.r_arrivals && r.r_got_count <= r.r_total)
    t.rx_msgs true

let outstanding t = Hashtbl.length t.send_msgs
let port t = t.port

