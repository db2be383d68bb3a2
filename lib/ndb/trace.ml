module Tpp = Tpp_isa.Tpp
module Asm = Tpp_isa.Asm
module Frame = Tpp_isa.Frame
module Ethernet = Tpp_packet.Ethernet

type hop = {
  switch_id : int;
  matched_entry : int;
  matched_version : int;
  in_port : int;
  out_port : int;
}

let source =
  "LOAD [Switch:SwitchID], [Packet:Hop[0]]\n\
   LOAD [PacketMetadata:MatchedEntryID], [Packet:Hop[1]]\n\
   LOAD [PacketMetadata:MatchedVersion], [Packet:Hop[2]]\n\
   LOAD [PacketMetadata:InputPort], [Packet:Hop[3]]\n\
   LOAD [PacketMetadata:OutputPort], [Packet:Hop[4]]\n"

let words_per_hop = 5

let make ~max_hops =
  match
    Asm.to_tpp ~addr_mode:Tpp.Hop_addressed ~perhop_len:(4 * words_per_hop)
      ~mem_len:(4 * words_per_hop * max_hops)
      source
  with
  | Ok tpp -> tpp
  | Error e -> invalid_arg ("Trace.make: " ^ e)

let attach frame ~max_hops =
  match frame.Frame.tpp with
  | Some _ -> invalid_arg "Trace.attach: frame already carries a TPP"
  | None ->
    let tpp = make ~max_hops in
    tpp.Tpp.inner_ethertype <-
      (if Frame.has_ip frame then Ethernet.ethertype_ipv4 else 0);
    Frame.with_tpp frame (Some tpp)

let parse tpp =
  let capacity =
    let usable = Tpp.mem_len tpp - tpp.Tpp.base in
    if tpp.Tpp.perhop_len <= 0 then 0 else usable / tpp.Tpp.perhop_len
  in
  let hops = Int.min tpp.Tpp.hop capacity in
  let rec collect i acc =
    if i >= hops then List.rev acc
    else begin
      match Tpp.hop_block tpp ~hop:i with
      | [ switch_id; matched_entry; matched_version; in_port; out_port ]
        when switch_id <> 0 ->
        collect (i + 1)
          ({ switch_id; matched_entry; matched_version; in_port; out_port } :: acc)
      | _ -> List.rev acc
    end
  in
  collect 0 []

let pp_hop fmt h =
  Format.fprintf fmt "sw%d entry=%d v%d in=%d out=%d" h.switch_id h.matched_entry
    h.matched_version h.in_port h.out_port
