module Frame = Tpp_isa.Frame
module State = Tpp_asic.State
module Switch = Tpp_asic.Switch
module Time_ns = Tpp_util.Time_ns
module Rng = Tpp_util.Rng

type link = int * int

(* Rules as recorded, before the topology resolves endpoints. *)
type flap_rule = {
  fl_from : Time_ns.t;
  fl_until : Time_ns.t;
  fl_period : Time_ns.span;
  fl_down : Time_ns.span;
}

type degrade_rule = {
  dg_from : Time_ns.t;
  dg_until : Time_ns.t;
  dg_factor : float;
  dg_extra : Time_ns.span;
}

type loss_rule = {
  ls_from : Time_ns.t;
  ls_until : Time_ns.t;
  ls_drop : float;
  ls_corrupt : float;
}

type rule =
  | R_set of { at : Time_ns.t; ends : link; up : bool }
  | R_flap of { ends : link; r : flap_rule }
  | R_degrade of { ends : link; r : degrade_rule }
  | R_lossy of { ends : link; r : loss_rule }
  | R_freeze of { node : int; from_ : Time_ns.t; until_ : Time_ns.t }

(* State shared by the two directions of a resolved cable. *)
type cable = {
  mutable transitions : (Time_ns.t * bool) array; (* sorted by time *)
  mutable flaps : flap_rule list;
  mutable degrades : degrade_rule list;
  mutable losses : loss_rule list;
}

type wire = { cable : cable; rng : Rng.t; draws : bool }

type cause =
  | Lost_down
  | Random_drop
  | Corrupt_header
  | Corrupt_fcs
  | Frozen_arrival
  | Restart

type t = {
  seed : int;
  mutable rules : rule list; (* reverse recording order *)
  mutable attached : bool;
  wires : (link, wire) Hashtbl.t; (* directed: keyed by sender endpoint *)
  mutable wire_slots : wire option array;
      (* the same directed wires, indexed by the net's dense global port
         slot ([Net.port_index]) — what the per-packet hooks read, so
         the fault-free majority of ports costs one array load and no
         hashing. Built at attach; [wires] stays as the by-endpoint
         view for control-plane queries ([up]). *)
  freezes : (int, (Time_ns.t * Time_ns.t) list) Hashtbl.t;
  mutable s_lost_down : int;
  mutable s_dropped : int;
  mutable s_corrupt_header : int;
  mutable s_corrupt_fcs : int;
  mutable s_frozen_arrivals : int;
  mutable s_restarts : int;
  mutable observer :
    (now:Time_ns.t -> cause:cause -> node:int -> port:int -> frame_id:int ->
     unit)
    option;
}

let create ~seed =
  {
    seed;
    rules = [];
    attached = false;
    wires = Hashtbl.create 64;
    wire_slots = [||];
    freezes = Hashtbl.create 8;
    s_lost_down = 0;
    s_dropped = 0;
    s_corrupt_header = 0;
    s_corrupt_fcs = 0;
    s_frozen_arrivals = 0;
    s_restarts = 0;
    observer = None;
  }

let set_observer t obs = t.observer <- obs

let no_port = 0xFFFF
(* Sentinel egress for events with no wire attribution (freezes). *)

let notify t ~now ~cause ~node ~port ~frame_id =
  match t.observer with
  | None -> ()
  | Some f -> f ~now ~cause ~node ~port ~frame_id

let record t r =
  if t.attached then invalid_arg "Fault: schedule already attached";
  t.rules <- r :: t.rules

let check_time name v = if v < 0 then invalid_arg ("Fault." ^ name ^ ": negative time")

let check_window name ~from_ ~until_ =
  check_time name from_;
  if until_ <= from_ then invalid_arg ("Fault." ^ name ^ ": empty window")

let link_down t ~at ends =
  check_time "link_down" at;
  record t (R_set { at; ends; up = false })

let link_up t ~at ends =
  check_time "link_up" at;
  record t (R_set { at; ends; up = true })

let flap t ~from_ ~until_ ~period ~down_for ends =
  check_window "flap" ~from_ ~until_;
  if period <= 0 then invalid_arg "Fault.flap: period must be positive";
  if down_for <= 0 || down_for > period then
    invalid_arg "Fault.flap: need 0 < down_for <= period";
  record t
    (R_flap
       { ends; r = { fl_from = from_; fl_until = until_; fl_period = period; fl_down = down_for } })

let degrade t ~from_ ~until_ ?(rate_factor = 1.0) ?(extra_delay = 0) ends =
  check_window "degrade" ~from_ ~until_;
  if not (rate_factor > 0.0 && rate_factor <= 1.0) then
    invalid_arg "Fault.degrade: rate_factor must be in (0, 1]";
  if extra_delay < 0 then invalid_arg "Fault.degrade: extra_delay must be >= 0";
  record t
    (R_degrade
       {
         ends;
         r = { dg_from = from_; dg_until = until_; dg_factor = rate_factor; dg_extra = extra_delay };
       })

let lossy t ~from_ ~until_ ?(drop = 0.0) ?(corrupt = 0.0) ends =
  check_window "lossy" ~from_ ~until_;
  let prob name p =
    if not (p >= 0.0 && p <= 1.0) then invalid_arg ("Fault.lossy: " ^ name ^ " must be in [0, 1]")
  in
  prob "drop" drop;
  prob "corrupt" corrupt;
  if drop +. corrupt > 1.0 then invalid_arg "Fault.lossy: drop + corrupt must be <= 1";
  record t
    (R_lossy { ends; r = { ls_from = from_; ls_until = until_; ls_drop = drop; ls_corrupt = corrupt } })

let freeze t ~from_ ~until_ node =
  check_window "freeze" ~from_ ~until_;
  record t (R_freeze { node; from_; until_ })

(* -- time functions ------------------------------------------------- *)

let in_window ~from_ ~until_ now = now >= from_ && now < until_

let permanent_up cable now =
  (* Latest transition at or before [now]; the array is sorted and tiny. *)
  let up = ref true in
  Array.iter (fun (at, v) -> if at <= now then up := v) cable.transitions;
  !up

let flapped_down cable now =
  List.exists
    (fun f ->
      in_window ~from_:f.fl_from ~until_:f.fl_until now
      && (now - f.fl_from) mod f.fl_period < f.fl_down)
    cable.flaps

let cable_up cable now = permanent_up cable now && not (flapped_down cable now)

let active_degrade cable now =
  List.find_opt (fun d -> in_window ~from_:d.dg_from ~until_:d.dg_until now) cable.degrades

let active_loss cable now =
  List.find_opt (fun l -> in_window ~from_:l.ls_from ~until_:l.ls_until now) cable.losses

let frozen t node ~now =
  match Hashtbl.find_opt t.freezes node with
  | None -> false
  | Some ws -> List.exists (fun (f, u) -> in_window ~from_:f ~until_:u now) ws

let up t (node, port) ~now =
  if not t.attached then invalid_arg "Fault.up: schedule not attached";
  match Hashtbl.find_opt t.wires (node, port) with
  | Some w -> cable_up w.cable now
  | None -> true

(* -- corruption ----------------------------------------------------- *)

(* Flip one random bit of the serialised frame and run it back through
   the real parser. A header/TPP/IPv4-checksum violation means the
   damage was caught structurally; a clean re-parse means it landed in
   bytes the headers don't cover, which is exactly what the Ethernet
   FCS exists for (the 4 FCS bytes are part of [Frame.wire_size] but
   carry no simulated payload). Either way the frame dies here. *)
let corrupt_frame t rng ~node ~port ~now frame =
  let bytes = Frame.serialize frame in
  let nbits = 8 * Bytes.length bytes in
  let bit = Rng.int rng nbits in
  let i = bit lsr 3 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (bit land 7))));
  let cause =
    match Frame.parse bytes with
    | Error _ -> Corrupt_header
    | Ok _ -> Corrupt_fcs
    | exception _ -> Corrupt_header
  in
  (match cause with
  | Corrupt_header -> t.s_corrupt_header <- t.s_corrupt_header + 1
  | _ -> t.s_corrupt_fcs <- t.s_corrupt_fcs + 1);
  notify t ~now ~cause ~node ~port ~frame_id:frame.Frame.id

(* -- hooks ---------------------------------------------------------- *)

let f_transit t w ~node ~port ~now frame =
  match w with
  | None -> true
  | Some w ->
    if not (cable_up w.cable now) then begin
      t.s_lost_down <- t.s_lost_down + 1;
      notify t ~now ~cause:Lost_down ~node ~port ~frame_id:frame.Frame.id;
      false
    end
    else if w.draws then begin
      (* One draw per frame whenever the wire has any loss rule, active
         or not, so the stream position depends only on the frame
         sequence — never on when windows open. *)
      let u = Rng.float w.rng 1.0 in
      match active_loss w.cable now with
      | None -> true
      | Some l ->
        if u < l.ls_drop then begin
          t.s_dropped <- t.s_dropped + 1;
          notify t ~now ~cause:Random_drop ~node ~port
            ~frame_id:frame.Frame.id;
          false
        end
        else if u < l.ls_drop +. l.ls_corrupt then begin
          corrupt_frame t w.rng ~node ~port ~now frame;
          false
        end
        else true
    end
    else true

let f_rate w ~now ~bps =
  match w with
  | None -> bps
  | Some w -> (
    match active_degrade w.cable now with
    | None -> bps
    | Some d ->
      let eff = int_of_float (float_of_int bps *. d.dg_factor) in
      if eff < 1 then 1 else eff)

let f_delay w ~now ~delay =
  match w with
  | None -> delay
  | Some w -> (
    match active_degrade w.cable now with None -> delay | Some d -> delay + d.dg_extra)

let f_ingress t ~node ~now =
  if frozen t node ~now then begin
    t.s_frozen_arrivals <- t.s_frozen_arrivals + 1;
    notify t ~now ~cause:Frozen_arrival ~node ~port:no_port ~frame_id:0;
    false
  end
  else true

(* -- attachment ----------------------------------------------------- *)

(* Private RNG stream for one directed wire: mix the schedule seed
   through splitmix64, fold in the sender endpoint, and mix again.
   Purely a function of (seed, node, port) — identical on every shard
   layout and platform. *)
let wire_rng seed (node, port) =
  let r = Rng.create ~seed in
  let mixed = Rng.bits64 r in
  let keyed = Int64.logxor mixed (Int64.of_int (((node + 1) * 1_000_003) + port)) in
  Rng.of_state (Rng.bits64 (Rng.of_state keyed))

let peer_of net (node, port) =
  let rec find = function
    | [] ->
      invalid_arg
        (Printf.sprintf "Fault.attach: node %d port %d has no link" node port)
    | (p, peer, peer_port) :: rest -> if p = port then (peer, peer_port) else find rest
  in
  find (Net.neighbors net node)

let canonical a b = if a <= b then (a, b) else (b, a)

let attach t net =
  if t.attached then invalid_arg "Fault.attach: schedule already attached";
  if Option.is_some (Net.fault_hooks net) then
    invalid_arg "Fault.attach: net already has fault hooks";
  let cables : (link * link, cable) Hashtbl.t = Hashtbl.create 16 in
  let cable_of ends =
    let e1 = ends and e2 = peer_of net ends in
    let key = canonical e1 e2 in
    match Hashtbl.find_opt cables key with
    | Some c -> c
    | None ->
      let c = { transitions = [||]; flaps = []; degrades = []; losses = [] } in
      Hashtbl.add cables key c;
      c
  in
  let transitions : (link * link, (Time_ns.t * bool) list ref) Hashtbl.t = Hashtbl.create 16 in
  (* One handlers record serves every freeze rule of the schedule: the
     restart event carries only its id and the node id (no per-rule
     closure). *)
  let restart_h =
    Engine.register (Net.engine net)
      {
        Engine.on_deliver = (fun ~node:_ ~port:_ _ -> ());
        on_dequeue = (fun ~node:_ ~port:_ -> ());
        on_restart =
          (fun ~node ->
            let st = Switch.state (Net.switch net node) in
            Array.fill st.State.sram 0 (Array.length st.State.sram) 0;
            t.s_restarts <- t.s_restarts + 1;
            notify t ~now:(Engine.now (Net.engine net)) ~cause:Restart ~node
              ~port:no_port ~frame_id:0);
      }
  in
  (* Rules were recorded in reverse; walk oldest-first so overlapping
     rules resolve in insertion order. *)
  List.iter
    (fun rule ->
      match rule with
      | R_set { at; ends; up } ->
        let c = cable_of ends in
        ignore c;
        let key = canonical ends (peer_of net ends) in
        let l =
          match Hashtbl.find_opt transitions key with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add transitions key l;
            l
        in
        l := (at, up) :: !l
      | R_flap { ends; r } ->
        let c = cable_of ends in
        c.flaps <- c.flaps @ [ r ]
      | R_degrade { ends; r } ->
        let c = cable_of ends in
        c.degrades <- c.degrades @ [ r ]
      | R_lossy { ends; r } ->
        let c = cable_of ends in
        c.losses <- c.losses @ [ r ]
      | R_freeze { node; from_; until_ } ->
        ignore (Net.switch net node);
        let prev = Option.value (Hashtbl.find_opt t.freezes node) ~default:[] in
        Hashtbl.replace t.freezes node (prev @ [ (from_, until_) ]);
        (* The restart wipe is the schedule's only engine event; gate it
           on ownership so sequential and sharded event counts agree
           (exactly one shard runs it). *)
        if Net.owns net node then begin
          let eng = Net.engine net in
          if until_ > Engine.now eng then
            Engine.restart_at eng until_ restart_h ~node
        end)
    (List.rev t.rules);
  Hashtbl.iter
    (fun key l ->
      let arr = Array.of_list (List.rev !l) in
      Array.stable_sort (fun (a, _) (b, _) -> compare a b) arr;
      (Hashtbl.find cables key).transitions <- arr)
    transitions;
  Hashtbl.iter
    (fun ((e1 : link), (e2 : link)) cable ->
      let draws = cable.losses <> [] in
      Hashtbl.replace t.wires e1 { cable; rng = wire_rng t.seed e1; draws };
      Hashtbl.replace t.wires e2 { cable; rng = wire_rng t.seed e2; draws })
    cables;
  let slots = Array.make (Net.port_count net) None in
  Hashtbl.iter
    (fun (node, port) w -> slots.(Net.port_index net node port) <- Some w)
    t.wires;
  t.wire_slots <- slots;
  t.attached <- true;
  let wire_at node port = Array.unsafe_get slots (Net.port_index net node port) in
  Net.set_fault_hooks net
    (Some
       {
         Net.f_transit =
           (fun ~node ~port ~now frame ->
             f_transit t (wire_at node port) ~node ~port ~now frame);
         f_rate = (fun ~node ~port ~now ~bps -> f_rate (wire_at node port) ~now ~bps);
         f_delay =
           (fun ~node ~port ~now ~delay -> f_delay (wire_at node port) ~now ~delay);
         f_ingress = (fun ~node ~now -> f_ingress t ~node ~now);
         f_clean = (fun ~node ~port -> Option.is_none (wire_at node port));
       })

(* -- accounting ----------------------------------------------------- *)

type stats = {
  lost_down : int;
  dropped : int;
  corrupt_header : int;
  corrupt_fcs : int;
  frozen_arrivals : int;
  restarts : int;
}

let stats t =
  {
    lost_down = t.s_lost_down;
    dropped = t.s_dropped;
    corrupt_header = t.s_corrupt_header;
    corrupt_fcs = t.s_corrupt_fcs;
    frozen_arrivals = t.s_frozen_arrivals;
    restarts = t.s_restarts;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "lost_down=%d dropped=%d corrupt_header=%d corrupt_fcs=%d frozen=%d restarts=%d" s.lost_down
    s.dropped s.corrupt_header s.corrupt_fcs s.frozen_arrivals s.restarts
