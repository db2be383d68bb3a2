module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Switch = Tpp_asic.Switch
module State = Tpp_asic.State
module Alloc = Tpp_asic.Alloc
module Vaddr = Tpp_isa.Vaddr
module Tpp = Tpp_isa.Tpp
module Asm = Tpp_isa.Asm

type config = {
  period_ns : int;
  rtt_ns : int;
  alpha : float;
  beta : float;
  slot : int;
  min_rate_bps : int;
  max_hops : int;
  use_cstore : bool;
  piggyback_every : int option;
}

let default_config ~slot =
  {
    period_ns = 10_000_000;
    rtt_ns = 50_000_000;
    alpha = 0.5;
    beta = 1.0;
    slot;
    min_rate_bps = 50_000;
    max_hops = 8;
    use_cstore = true;
    piggyback_every = None;
  }

let rate_register_name = "Link:RCP-RateRegister"

let defines ~slot = [ (rate_register_name, Vaddr.encode (Vaddr.Link_sram slot)) ]

let collect_source ~slot =
  ( "PUSH [Switch:SwitchID]\n\
     PUSH [Link:QueueSize]\n\
     PUSH [Link:RxUtilization]\n\
     PUSH [Link:CapacityKbps]\n\
     PUSH [" ^ rate_register_name ^ "]\n",
    defines ~slot )

let words_per_hop = 5

let setup_network net =
  let switches = Net.switches net in
  let allocate (_, sw) = Alloc.alloc_link_slot (Switch.alloc sw) ~task:"rcp" in
  let rec alloc_all slot = function
    | [] -> Ok slot
    | sw :: rest -> (
      match allocate sw with
      | Error e -> Error e
      | Ok s -> (
        match slot with
        | None -> alloc_all (Some s) rest
        | Some expected when expected = s -> alloc_all slot rest
        | Some expected ->
          Error
            (Printf.sprintf
               "RCP slot mismatch: switch got slot %d, expected %d (allocate RCP \
                first on every switch)"
               s expected)))
  in
  match alloc_all None switches with
  | Error e -> Error e
  | Ok None -> Error "no switches in the network"
  | Ok (Some slot) ->
    List.iter
      (fun (_, sw) ->
        let st = Switch.state sw in
        for port = 0 to st.State.num_ports - 1 do
          match State.link_sram_index st ~slot ~port with
          | -1 -> ()
          | idx ->
            let kbps = (State.port st port).State.Port.capacity_bps / 1000 in
            ignore (State.sram_set st idx kbps)
        done)
      switches;
    Ok slot

let read_rate_kbps sw ~slot ~port =
  let st = Switch.state sw in
  match State.link_sram_index st ~slot ~port with
  | -1 -> None
  | idx -> Some (State.sram_get st idx)

type link_sample = {
  switch_id : int;
  queue_bytes : int;
  util_ppm : int;
  capacity_kbps : int;
  rate_kbps : int;
}

type t = {
  stack : Stack.t;
  config : config;
  flow : Flow.t;
  dst : Net.host;
  collect_tpp : Tpp.t;
  block : Probe.Block.t;  (* this controller's share of the echo seqs *)
  loop : Engine.Loop.t;  (* collect probes; idle in piggyback mode *)
  mutable running : bool;
  mutable seq : int;
  mutable probes_sent : int;
  mutable updates_sent : int;
  mutable updates_won : int;
  mutable last_piggyback : int;  (* throttles piggybacked collect processing *)
  (* CSTORE condition of in-flight updates, keyed by probe seq. *)
  pending_updates : (int, int) Hashtbl.t;
}

(* Collect probes use even sequence numbers, updates odd ones. *)
let next_seq t =
  t.seq <- t.seq + 2;
  Probe.Block.seq t.block t.seq

let parse_hops tpp =
  let values = Tpp.stack_values tpp in
  let rec chunk acc = function
    | sw :: q :: util :: cap :: rate :: rest ->
      chunk
        ({ switch_id = sw; queue_bytes = q; util_ppm = util; capacity_kbps = cap;
           rate_kbps = rate }
        :: acc)
        rest
    | _ -> List.rev acc
  in
  chunk [] values

(* The RCP control law (paper §2.2), computed in bps floats. *)
let control_law config sample =
  let c = float_of_int sample.capacity_kbps *. 1000.0 in
  if c <= 0.0 then float_of_int config.min_rate_bps
  else begin
    let r = float_of_int sample.rate_kbps *. 1000.0 in
    let r = if r <= 0.0 then c else r in
    let y = float_of_int sample.util_ppm /. 1e6 *. c in
    let d = float_of_int config.rtt_ns /. 1e9 in
    let t_over_d = float_of_int config.period_ns /. float_of_int config.rtt_ns in
    let q_bps = config.beta *. (float_of_int sample.queue_bytes *. 8.0) /. d in
    let feedback = ((config.alpha *. (y -. c)) +. q_bps) /. c in
    let r_new = r *. (1.0 -. (t_over_d *. feedback)) in
    Float.max (float_of_int config.min_rate_bps) (Float.min c r_new)
  end

let update_source ~use_cstore ~swid ~cond_kbps ~new_kbps =
  if use_cstore then
    Printf.sprintf
      "CEXEC [Switch:SwitchID], 0xFFFFFFFF, %d\nCSTORE [%s], %d, %d\n" swid
      rate_register_name cond_kbps new_kbps
  else
    (* Plain overwrite: the new rate rides in user packet memory. *)
    Printf.sprintf
      "CEXEC [Switch:SwitchID], 0xFFFFFFFF, %d\nSTORE [%s], [Packet:0]\n.WORD %d\n"
      swid rate_register_name new_kbps

let send_update t ~swid ~cond_kbps ~new_kbps =
  let source =
    update_source ~use_cstore:t.config.use_cstore ~swid ~cond_kbps ~new_kbps
  in
  match Asm.to_tpp ~defines:(defines ~slot:t.config.slot) ~mem_len:0 source with
  | Error e -> invalid_arg ("Rcp_star.send_update: " ^ e)
  | Ok tpp ->
    let seq = next_seq t + 1 in
    if t.config.use_cstore then Hashtbl.replace t.pending_updates seq cond_kbps;
    t.updates_sent <- t.updates_sent + 1;
    Probe.send t.stack ~dst:t.dst ~tpp ~seq

let on_collect_reply t tpp =
  match parse_hops tpp with
  | [] -> ()
  | hops ->
    let rated = List.map (fun h -> (h, control_law t.config h)) hops in
    let bottleneck =
      List.fold_left
        (fun acc entry ->
          match acc with
          | None -> Some entry
          | Some (_, best) -> if snd entry < best then Some entry else acc)
        None rated
    in
    (match bottleneck with
    | None -> ()
    | Some (sample, r_new) ->
      let new_kbps = max 1 (int_of_float (r_new /. 1000.0)) in
      send_update t ~swid:sample.switch_id ~cond_kbps:sample.rate_kbps ~new_kbps;
      let rate = max t.config.min_rate_bps (int_of_float r_new) in
      Flow.set_rate t.flow ~rate_bps:rate)

let on_update_reply t ~seq tpp =
  match Hashtbl.find_opt t.pending_updates seq with
  | None -> ()
  | Some cond_kbps ->
    Hashtbl.remove t.pending_updates seq;
    (* Pool layout: CEXEC pool words 0-1, CSTORE pool words 2-3; after a
       CSTORE ran, word 2 holds the register's old value. *)
    let old_value = Tpp.mem_get tpp 8 in
    if old_value = cond_kbps then t.updates_won <- t.updates_won + 1

let create stack config ~flow ~dst =
  let source, defs = collect_source ~slot:config.slot in
  let mem_len = 4 * words_per_hop * config.max_hops in
  let collect_tpp =
    match Asm.to_tpp ~defines:defs ~mem_len source with
    | Ok tpp -> tpp
    | Error e -> invalid_arg ("Rcp_star.create: collect program: " ^ e)
  in
  let t =
    {
      stack;
      config;
      flow;
      dst;
      collect_tpp;
      block = Probe.Block.take stack;
      loop = Engine.Loop.create (Net.engine (Stack.net stack));
      running = false;
      seq = 0;
      probes_sent = 0;
      updates_sent = 0;
      updates_won = 0;
      (* One period in the past, so the first piggybacked reply is
         processed immediately (min_int would overflow the subtraction). *)
      last_piggyback = -config.period_ns;
      pending_updates = Hashtbl.create 16;
    }
  in
  Probe.Block.on_echo t.block (fun ~now:_ ~seq tpp ->
      if t.running then
        if seq land 1 = 0 then on_collect_reply t tpp else on_update_reply t ~seq tpp);
  (* Piggyback mode (paper §2.2: phase 1 can use "the flow's packets"):
     collect programs ride data packets; their echoes come back with the
     data sequence number and the flow's port as the echo's source, which
     is how they are told apart from other controllers' traffic. *)
  (match config.piggyback_every with
  | None -> ()
  | Some every ->
    Flow.carry_tpp flow ~every collect_tpp;
    Probe.Block.on_flow_echo t.block ~port:(Flow.port flow) (fun ~now ~seq:_ tpp ->
        if t.running && now - t.last_piggyback >= t.config.period_ns then begin
          t.last_piggyback <- now;
          t.probes_sent <- t.probes_sent + 1;
          on_collect_reply t tpp
        end));
  t

let tick t () =
  let seq = next_seq t in
  t.probes_sent <- t.probes_sent + 1;
  Probe.send t.stack ~dst:t.dst ~tpp:t.collect_tpp ~seq;
  t.config.period_ns

(* In piggyback mode the data packets carry the collect program, so
   there is nothing to send periodically. *)
let start t ?at () =
  if not t.running then begin
    t.running <- true;
    if Option.is_none t.config.piggyback_every then
      Engine.Loop.start t.loop ?at (tick t)
  end

let stop t =
  t.running <- false;
  Engine.Loop.stop t.loop

let current_rate_bps t = Flow.rate_bps t.flow
let probes_sent t = t.probes_sent
let updates_sent t = t.updates_sent
let updates_won t = t.updates_won
