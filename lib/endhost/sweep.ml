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
  circuits : (circuit * int) list;  (* with its source's seq block base *)
  period : int;
  tpp : Tpp.t;
  mutable running : bool;
  mutable epoch : int;
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
  let bases =
    List.fold_left
      (fun acc c ->
        if List.mem_assq c.src acc then acc
        else (c.src, Probe.alloc_seq_block c.src) :: acc)
      [] circuits
  in
  let t =
    {
      circuits = List.map (fun c -> (c, List.assq c.src bases)) circuits;
      period;
      tpp;
      running = false;
      epoch = 0;
      seq = 0;
      sent = 0;
      received = 0;
      table = Hashtbl.create 32;
    }
  in
  List.iter
    (fun (stack, base) ->
      Probe.install_reply_handler stack (fun ~now:_ ~seq tpp ->
          if t.running && seq >= base && seq < base + Probe.seq_block then
            accumulate t tpp))
    bases;
  t

let engine t =
  match t.circuits with
  | (c, _) :: _ -> Net.engine (Stack.net c.src)
  | [] -> assert false

let rec tick t epoch () =
  if t.running && t.epoch = epoch then begin
    List.iter
      (fun (c, base) ->
        t.seq <- t.seq + 1;
        t.sent <- t.sent + 1;
        Probe.send c.src ~dst:c.dst ~tpp:t.tpp ~seq:(base + t.seq))
      t.circuits;
    Engine.after (engine t) t.period (tick t epoch)
  end

let start t ?at () =
  if not t.running then begin
    t.running <- true;
    t.epoch <- t.epoch + 1;
    let eng = engine t in
    let begin_at =
      match at with Some time -> max time (Engine.now eng) | None -> Engine.now eng
    in
    Engine.at eng begin_at (tick t t.epoch)
  end

let stop t =
  t.running <- false;
  t.epoch <- t.epoch + 1

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
