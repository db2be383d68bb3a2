module Net = Tpp_sim.Net
module Frame = Tpp_isa.Frame
module Tpp = Tpp_isa.Tpp
module Buf = Tpp_util.Buf

let request_port = 7777
let reply_port = 7778

(* Echo payload: [seq:u32] followed by the serialised executed TPP. *)
let encode_echo ~seq tpp =
  let w = Buf.Writer.create ~capacity:64 () in
  Buf.Writer.u32i w seq;
  Tpp.write w tpp;
  Buf.Writer.contents w

let decode_echo payload =
  let r = Buf.Reader.of_bytes payload in
  match
    let seq = Buf.Reader.u32i r in
    (seq, Tpp.read r)
  with
  | seq, Ok tpp -> Some (seq, tpp)
  | _, Error _ -> None
  | exception Buf.Out_of_bounds _ -> None
  | exception Invalid_argument _ -> None

let echo_back stack ~now:_ frame =
  match frame.Frame.tpp with
  | Some tpp when Frame.has_ip frame && Frame.has_udp frame ->
    let seq =
      if Frame.payload_len frame >= 4 then Frame.payload_u32 frame 0 else 0
    in
    (* Reply straight to the requester's addresses; the echo is a
       plain datagram, so the TPP executes only on the forward path. *)
    let reply =
      Frame.udp_frame
        ~src_mac:(Stack.host stack).Net.mac
        ~dst_mac:(Frame.eth_src frame)
        ~src_ip:(Frame.ip_dst frame) ~dst_ip:(Frame.ip_src frame)
        ~src_port:(Frame.udp_dst_port frame) ~dst_port:reply_port
        ~payload:(encode_echo ~seq tpp) ()
    in
    Net.host_send (Stack.net stack) (Stack.host stack) reply
  | _ -> ()

let install_echo stack =
  Stack.on_udp stack ~port:request_port (fun ~now frame -> echo_back stack ~now frame)

let install_echo_on_port stack ~port =
  Stack.on_udp_add stack ~port (fun ~now frame ->
      if Option.is_some frame.Frame.tpp then echo_back stack ~now frame)

let send stack ~dst ~tpp ~seq =
  let payload = Bytes.create 4 in
  Buf.set_u32i payload 0 seq;
  Stack.send_udp stack ~dst ~src_port:request_port ~dst_port:request_port
    ~tpp:(Tpp.copy tpp) ~payload ()

(* Echo seqs travel as u32, so a host has 2^32 / seq_block blocks.
   Block 0 (seqs below [seq_block]) stays free for callers that pick
   their own seqs with {!send}. *)
let seq_block = 1 lsl 20
let seq_blocks_per_host = (1 lsl 32) / seq_block

(* The host's echo demux: one handler on [reply_port] decodes each
   echo once and hands the decoded TPP to every listener whose filter
   accepts it, in registration order. Listeners only read that TPP. *)
let accepts filter ~seq ~src_port =
  match filter with
  | Stack.Block base -> seq >= base && seq < base + seq_block
  | Stack.Flow_port { port; except } ->
    src_port = port && (seq < except || seq >= except + seq_block)
  | Stack.Any -> true

let rec dispatch ~now ~seq ~src_port tpp = function
  | [] -> ()
  | { Stack.filter; on_echo } :: rest ->
    if accepts filter ~seq ~src_port then on_echo ~now ~seq tpp;
    dispatch ~now ~seq ~src_port tpp rest

let demux stack ~now frame =
  match decode_echo (Frame.payload frame) with
  | None -> ()
  | Some (seq, tpp) ->
    dispatch ~now ~seq ~src_port:(Frame.udp_src_port frame) tpp
      (Stack.echo_listeners stack)

let listen stack filter on_echo =
  (match Stack.echo_listeners stack with
  | [] -> Stack.on_udp_add stack ~port:reply_port (demux stack)
  | _ :: _ -> ());
  Stack.add_echo_listener stack { Stack.filter; on_echo }

let install_reply_handler stack callback = listen stack Stack.Any callback

module Block = struct
  type t = { stack : Stack.t; base : int }

  let take stack =
    let b = Stack.take_seq_block stack in
    if b >= seq_blocks_per_host then
      failwith
        (Printf.sprintf
           "Probe.Block.take: host %d has used all %d probe sequence blocks"
           (Stack.host stack).Net.node_id (seq_blocks_per_host - 1));
    { stack; base = b * seq_block }

  (* The one place a seq offset wraps: whatever a controller counts,
     its seqs stay inside its own block. *)
  let seq b n = b.base + (n land (seq_block - 1))
  let offset b seq = seq - b.base
  let on_echo b callback = listen b.stack (Stack.Block b.base) callback

  let on_flow_echo b ~port callback =
    listen b.stack (Stack.Flow_port { port; except = b.base }) callback
end

module Reliable = struct
  module Engine = Tpp_sim.Engine

  type stats = {
    probes : int;
    transmissions : int;
    replies : int;
    late : int;
    failures : int;
  }

  type outstanding = {
    o_seq : int;
    o_dst : Net.host;
    o_tpp : Tpp.t;
    mutable o_attempts : int; (* transmissions so far *)
    mutable o_done : bool;
    o_on_reply : (now:int -> Tpp.t -> unit) option;
    o_on_fail : (now:int -> unit) option;
  }

  type event = Retry | Failure

  type t = {
    stack : Stack.t;
    timeout : int;
    retries : int;
    backoff : float;
    block : Block.t;
    mutable seq : int;
    pending : (int, outstanding) Hashtbl.t;
    mutable s_probes : int;
    mutable s_transmissions : int;
    mutable s_replies : int;
    mutable s_late : int;
    mutable s_failures : int;
    mutable observer :
      (now:int -> event:event -> seq:int -> attempts:int -> unit) option;
  }

  let set_observer t obs = t.observer <- obs

  let notify t ~now ~event ~seq ~attempts =
    match t.observer with
    | None -> ()
    | Some f -> f ~now ~event ~seq ~attempts

  (* Timeout for the nth (0-based) transmission; exponential backoff
     keeps retries of a congestion-dropped probe from feeding the
     congestion that dropped it. *)
  let timeout_for t attempt =
    int_of_float (float_of_int t.timeout *. (t.backoff ** float_of_int attempt))

  let transmit t o =
    o.o_attempts <- o.o_attempts + 1;
    t.s_transmissions <- t.s_transmissions + 1;
    send t.stack ~dst:o.o_dst ~tpp:o.o_tpp ~seq:o.o_seq

  let rec arm_timeout t o =
    let span = timeout_for t (o.o_attempts - 1) in
    Stack.after t.stack span
      (fun () ->
        if not o.o_done then begin
          if o.o_attempts <= t.retries then begin
            transmit t o;
            notify t ~now:(Stack.now t.stack) ~event:Retry ~seq:o.o_seq
              ~attempts:o.o_attempts;
            arm_timeout t o
          end
          else begin
            o.o_done <- true;
            Hashtbl.remove t.pending o.o_seq;
            t.s_failures <- t.s_failures + 1;
            notify t ~now:(Stack.now t.stack) ~event:Failure ~seq:o.o_seq
              ~attempts:o.o_attempts;
            match o.o_on_fail with
            | Some f -> f ~now:(Stack.now t.stack)
            | None -> ()
          end
        end)

  let on_echo t ~now ~seq tpp =
    match Hashtbl.find_opt t.pending seq with
    | Some o ->
      o.o_done <- true;
      Hashtbl.remove t.pending seq;
      t.s_replies <- t.s_replies + 1;
      (match o.o_on_reply with Some f -> f ~now tpp | None -> ())
    | None ->
      (* A retransmission's echo after the first one answered, or an
         echo that beat its own timeout's failure call. *)
      t.s_late <- t.s_late + 1

  let create ?(timeout = 1_000_000) ?(retries = 3) ?(backoff = 2.0) stack =
    if timeout <= 0 then invalid_arg "Probe.Reliable.create: timeout must be positive";
    if retries < 0 then invalid_arg "Probe.Reliable.create: retries must be >= 0";
    if backoff < 1.0 then invalid_arg "Probe.Reliable.create: backoff must be >= 1";
    let t =
      {
        stack;
        timeout;
        retries;
        backoff;
        block = Block.take stack;
        seq = 0;
        pending = Hashtbl.create 32;
        s_probes = 0;
        s_transmissions = 0;
        s_replies = 0;
        s_late = 0;
        s_failures = 0;
        observer = None;
      }
    in
    Block.on_echo t.block (fun ~now ~seq tpp -> on_echo t ~now ~seq tpp);
    t

  let send t ~dst ~tpp ?on_reply ?on_fail () =
    let seq = Block.seq t.block t.seq in
    t.seq <- t.seq + 1;
    t.s_probes <- t.s_probes + 1;
    let o =
      {
        o_seq = seq;
        o_dst = dst;
        o_tpp = tpp;
        o_attempts = 0;
        o_done = false;
        o_on_reply = on_reply;
        o_on_fail = on_fail;
      }
    in
    Hashtbl.replace t.pending seq o;
    transmit t o;
    arm_timeout t o;
    seq

  let outstanding t = Hashtbl.length t.pending

  let stats t =
    {
      probes = t.s_probes;
      transmissions = t.s_transmissions;
      replies = t.s_replies;
      late = t.s_late;
      failures = t.s_failures;
    }
end
