module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Frame = Tpp_isa.Frame
module Udp = Tpp_packet.Udp

type t = {
  net : Net.t;
  host : Net.host;
  handlers : (int, (now:int -> Frame.t -> unit) list) Hashtbl.t;
  mutable default : now:int -> Frame.t -> unit;
  mutable sent : int;
  mutable received : int;
  mutable seq_blocks : int;  (* probe sequence blocks handed out so far *)
  mutable echo_listeners : echo_listener list;  (* registration order *)
}

and echo_filter =
  | Block of int
  | Flow_port of { port : int; except : int }
  | Any

and echo_listener = {
  filter : echo_filter;
  on_echo : now:int -> seq:int -> Tpp_isa.Tpp.t -> unit;
}

let dispatch t ~now frame =
  t.received <- t.received + 1;
  let handled =
    Frame.has_udp frame
    && (match Hashtbl.find_opt t.handlers (Frame.udp_dst_port frame) with
       | Some handlers ->
         List.iter (fun handler -> handler ~now frame) handlers;
         true
       | None -> false)
  in
  if not handled then t.default ~now frame

let create net host =
  let t =
    {
      net;
      host;
      handlers = Hashtbl.create 8;
      default = (fun ~now:_ _ -> ());
      sent = 0;
      received = 0;
      seq_blocks = 0;
      echo_listeners = [];
    }
  in
  host.Net.receive <- (fun ~now frame -> dispatch t ~now frame);
  t

let net t = t.net
let host t = t.host
let now t = Engine.now (Net.engine t.net)
let at t time f = Engine.at (Net.engine t.net) time f
let after t span f = Engine.after (Net.engine t.net) span f

let on_udp t ~port handler = Hashtbl.replace t.handlers port [ handler ]

let on_udp_add t ~port handler =
  let existing =
    match Hashtbl.find_opt t.handlers port with Some hs -> hs | None -> []
  in
  Hashtbl.replace t.handlers port (existing @ [ handler ])

let on_default t handler = t.default <- handler

let send_udp t ~dst ~src_port ~dst_port ?dscp ?tpp ~payload () =
  let frame =
    Frame.udp_frame ~src_mac:t.host.Net.mac ~dst_mac:dst.Net.mac
      ~src_ip:t.host.Net.ip ~dst_ip:dst.Net.ip ~src_port ~dst_port ?dscp ?tpp
      ~payload ()
  in
  t.sent <- t.sent + 1;
  Net.host_send t.net t.host frame

let udp_sent t = t.sent
let udp_received t = t.received

let take_seq_block t =
  t.seq_blocks <- t.seq_blocks + 1;
  t.seq_blocks

let echo_listeners t = t.echo_listeners
let add_echo_listener t l = t.echo_listeners <- t.echo_listeners @ [ l ]
