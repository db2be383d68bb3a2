module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Tpp = Tpp_isa.Tpp
module Asm = Tpp_isa.Asm

module Episode = struct
  type t = {
    threshold : int;
    mutable above : bool;
    mutable episodes : int;
    mutable max_seen : int;
    mutable samples : int;
  }

  let create ~threshold =
    { threshold; above = false; episodes = 0; max_seen = 0; samples = 0 }

  let feed t v =
    t.samples <- t.samples + 1;
    if v > t.max_seen then t.max_seen <- v;
    if v >= t.threshold then begin
      if not t.above then begin
        t.above <- true;
        t.episodes <- t.episodes + 1
      end
    end
    else t.above <- false

  let count t = t.episodes
  let max_seen t = t.max_seen
  let samples t = t.samples
end

let source = "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]\n"
let words_per_hop = 2
let max_hops = 10

type t = {
  stack : Stack.t;
  dst : Net.host;
  period : int;
  threshold : int;
  tpp : Tpp.t;
  block : Probe.Block.t;
  loop : Engine.Loop.t;
  mutable seq : int;
  mutable sent : int;
  mutable received : int;
  mutable hop_order : int list;  (* switch ids in path order, reversed *)
  table : (int, Episode.t) Hashtbl.t;  (* switch id -> its episodes *)
}

let hop_episode t swid =
  match Hashtbl.find_opt t.table swid with
  | Some e -> e
  | None ->
    let e = Episode.create ~threshold:t.threshold in
    Hashtbl.replace t.table swid e;
    t.hop_order <- swid :: t.hop_order;
    e

let on_reply t tpp =
  t.received <- t.received + 1;
  let rec consume = function
    | swid :: q :: rest ->
      Episode.feed (hop_episode t swid) q;
      consume rest
    | _ -> ()
  in
  consume (Tpp.stack_values tpp)

let create ~src ~dst ~period ~threshold_bytes =
  if period <= 0 then invalid_arg "Microburst.create: period";
  let tpp =
    match Asm.to_tpp ~mem_len:(4 * words_per_hop * max_hops) source with
    | Ok tpp -> tpp
    | Error e -> invalid_arg ("Microburst.create: " ^ e)
  in
  let t =
    {
      stack = src;
      dst;
      period;
      threshold = threshold_bytes;
      tpp;
      (* Monitors share the probe reply stream with other controllers
         on the same host; each owns a disjoint block of seqs. *)
      block = Probe.Block.take src;
      loop = Engine.Loop.create (Net.engine (Stack.net src));
      seq = 0;
      sent = 0;
      received = 0;
      hop_order = [];
      table = Hashtbl.create 8;
    }
  in
  Probe.Block.on_echo t.block (fun ~now:_ ~seq:_ tpp ->
      if Engine.Loop.running t.loop then on_reply t tpp);
  t

let tick t () =
  t.seq <- t.seq + 1;
  t.sent <- t.sent + 1;
  Probe.send t.stack ~dst:t.dst ~tpp:t.tpp ~seq:(Probe.Block.seq t.block t.seq);
  t.period

let start t ?at () = Engine.Loop.start t.loop ?at (tick t)
let stop t = Engine.Loop.stop t.loop

let probes_sent t = t.sent
let replies_received t = t.received

let hops t =
  List.rev_map (fun swid -> (swid, Hashtbl.find t.table swid)) t.hop_order
