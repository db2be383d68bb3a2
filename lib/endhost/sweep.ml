module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Tpp = Tpp_isa.Tpp
module Asm = Tpp_isa.Asm
module Stats = Tpp_util.Stats

type circuit = { src : Stack.t; dst : Net.host }

type view = {
  v_switch_id : int;
  samples : int;
  queue : Stats.t;
  utilization : Stats.t;
  last_drops : int;
}

type acc = {
  mutable acc_samples : int;
  acc_queue : Stats.t;
  acc_util : Stats.t;
  mutable acc_drops : int;
}

let source =
  "PUSH [Switch:SwitchID]\n\
   PUSH [Queue:QueueSize]\n\
   PUSH [Link:RxUtilization]\n\
   PUSH [Link:Drops]\n"

let words_per_hop = 4
let max_hops = 10

type t = {
  circuits : (circuit * Probe.Block.t) list;  (* with its source's block *)
  period : int;
  tpp : Tpp.t;
  loop : Engine.Loop.t;
  mutable seq : int;
  mutable sent : int;
  mutable received : int;
  table : (int, acc) Hashtbl.t;
}

let accumulate t tpp =
  t.received <- t.received + 1;
  let rec consume = function
    | swid :: q :: util :: drops :: rest ->
      let acc =
        match Hashtbl.find_opt t.table swid with
        | Some a -> a
        | None ->
          let a =
            { acc_samples = 0; acc_queue = Stats.create (); acc_util = Stats.create ();
              acc_drops = 0 }
          in
          Hashtbl.replace t.table swid a;
          a
      in
      acc.acc_samples <- acc.acc_samples + 1;
      Stats.add acc.acc_queue (float_of_int q);
      Stats.add acc.acc_util (float_of_int util /. 1e6);
      acc.acc_drops <- drops;
      consume rest
    | _ -> ()
  in
  consume (Tpp.stack_values tpp)

let create ~circuits ~period =
  if circuits = [] then invalid_arg "Sweep.create: no circuits";
  if period <= 0 then invalid_arg "Sweep.create: period";
  let tpp =
    match Asm.to_tpp ~mem_len:(4 * words_per_hop * max_hops) source with
    | Ok tpp -> tpp
    | Error e -> invalid_arg ("Sweep.create: " ^ e)
  in
  (* Replies come back to each circuit's source stack, so each distinct
     source gives the sweep a block of its own seq space. *)
  let blocks =
    List.fold_left
      (fun acc c ->
        if List.mem_assq c.src acc then acc
        else (c.src, Probe.Block.take c.src) :: acc)
      [] circuits
  in
  let t =
    {
      circuits = List.map (fun c -> (c, List.assq c.src blocks)) circuits;
      period;
      tpp;
      loop = Engine.Loop.create (Net.engine (Stack.net (List.hd circuits).src));
      seq = 0;
      sent = 0;
      received = 0;
      table = Hashtbl.create 32;
    }
  in
  List.iter
    (fun (_, block) ->
      Probe.Block.on_echo block (fun ~now:_ ~seq:_ tpp ->
          if Engine.Loop.running t.loop then accumulate t tpp))
    blocks;
  t

let tick t () =
  List.iter
    (fun (c, block) ->
      t.seq <- t.seq + 1;
      t.sent <- t.sent + 1;
      Probe.send c.src ~dst:c.dst ~tpp:t.tpp ~seq:(Probe.Block.seq block t.seq))
    t.circuits;
  t.period

let start t ?at () = Engine.Loop.start t.loop ?at (tick t)
let stop t = Engine.Loop.stop t.loop

let probes_sent t = t.sent
let replies_received t = t.received

let view_of swid acc =
  {
    v_switch_id = swid;
    samples = acc.acc_samples;
    queue = acc.acc_queue;
    utilization = acc.acc_util;
    last_drops = acc.acc_drops;
  }

let views t =
  Hashtbl.fold (fun swid acc l -> view_of swid acc :: l) t.table []
  |> List.sort (fun a b -> Int.compare a.v_switch_id b.v_switch_id)

let view t ~switch_id =
  Option.map (view_of switch_id) (Hashtbl.find_opt t.table switch_id)
