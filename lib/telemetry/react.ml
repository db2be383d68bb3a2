module Net = Tpp_sim.Net
module Topology = Tpp_sim.Topology
module Switch = Tpp_asic.Switch
module State = Tpp_asic.State
module Alloc = Tpp_asic.Alloc

type action =
  | Drained of { switch : int; port : int }
  | Reweighted of { switch : int; port : int }

(* Drain a link once its fault EWMA reaches [fault_threshold] over at
   least [min_fault_events] fault cards; reweight the hottest link once
   it carries [hot_ratio] x the mean per-link bytes. *)
let fault_threshold = 0.25
let min_fault_events = 3
let hot_ratio = 4.0

type t = {
  net : Net.t;
  mutable version : int;
  mutable entry_id : int;  (* fresh ids, disjoint from install_routes' *)
  mutable drained_links : (int * int) list;
  mutable reweighted_links : (int * int) list;
  mutable prev_suspects : (int * int) list;
  mutable actions_rev : action list;
  drain_flag : (int, int) Hashtbl.t;  (* switch id -> SRAM word address *)
}

let create ?(version = 1) net =
  let drain_flag = Hashtbl.create 16 in
  List.iter
    (fun (sid, sw) ->
      match Alloc.alloc_words (Switch.alloc sw) ~task:"react" ~count:1 with
      | Ok addr ->
        ignore (State.sram_set (Switch.state sw) addr 0);
        Hashtbl.add drain_flag sid addr
      | Error _ -> ())
    (Net.switches net);
  {
    net;
    version;
    entry_id = 0x4000_0000;
    drained_links = [];
    reweighted_links = [];
    prev_suspects = [];
    actions_rev = [];
    drain_flag;
  }

let fresh_entry t =
  t.entry_id <- t.entry_id + 1;
  t.entry_id

(* Rewrite every destination's group on [switch] through [remap], which
   maps the BFS candidate ports to the ports (with multiplicity) to
   install; an unchanged or empty result leaves the entry alone. *)
let rewrite_groups t ~switch remap =
  t.version <- t.version + 1;
  List.iter
    (fun dest ->
      List.iter
        (fun (sid, ports) ->
          if sid = switch then
            match remap ports with
            | [] -> ()
            | new_ports when new_ports <> ports ->
              Topology.install_dest_on_switch t.net ~dest ~ecmp:true
                ~version:t.version ~entry_id:(fresh_entry t) sid new_ports
            | _ -> ())
        (Topology.next_hop_ports t.net ~dest))
    (Net.hosts t.net);
  Switch.set_version (Net.switch t.net switch) t.version

let set_drain_flag t ~switch =
  match Hashtbl.find_opt t.drain_flag switch with
  | None -> ()
  | Some addr ->
    let sw = Net.switch t.net switch in
    let prev = max 0 (State.sram_get (Switch.state sw) addr) in
    ignore (State.sram_set (Switch.state sw) addr (prev + 1))

let drain t ~switch ~port =
  if not (List.mem (switch, port) t.drained_links) then begin
    t.drained_links <- (switch, port) :: t.drained_links;
    rewrite_groups t ~switch (fun ports ->
        let kept =
          List.filter (fun p -> not (List.mem (switch, p) t.drained_links)) ports
        in
        if kept = [] then [] else kept);
    set_drain_flag t ~switch;
    t.actions_rev <- Drained { switch; port } :: t.actions_rev
  end

let reweight_away t ~switch ~port =
  if
    (not (List.mem (switch, port) t.reweighted_links))
    && not (List.mem (switch, port) t.drained_links)
  then begin
    t.reweighted_links <- (switch, port) :: t.reweighted_links;
    rewrite_groups t ~switch (fun ports ->
        if List.mem port ports && List.length ports > 1 then begin
          let siblings = List.filter (fun p -> p <> port) ports in
          siblings @ siblings @ [ port ]
        end
        else ports);
    t.actions_rev <- Reweighted { switch; port } :: t.actions_rev
  end

let step ?(suspects = []) t col =
  let before = t.actions_rev in
  (* Drain: Faultfind suspects name candidate cables, but greedy cover
     over-names while circuit evidence is young, so a suspect must (a)
     survive two consecutive rounds and (b) be corroborated by at
     least one fault card on that very link before it is acted on.
     Telemetry fault EWMAs catch lossy links the probe mesh missed. *)
  List.iter
    (fun (sw, port) ->
      if
        List.mem (sw, port) t.prev_suspects
        && Collector.link_faults col ~switch:sw ~port > 0
      then drain t ~switch:sw ~port)
    suspects;
  t.prev_suspects <- suspects;
  List.iter
    (fun (sw, port) ->
      if
        Collector.link_fault_ewma col ~switch:sw ~port >= fault_threshold
        && Collector.link_faults col ~switch:sw ~port >= min_fault_events
      then drain t ~switch:sw ~port)
    (Collector.links col);
  (* Reweight: at most one per round, hottest link first. *)
  (match
     Collector.hottest_link col
       ~exclude:(t.drained_links @ t.reweighted_links)
       ()
   with
  | None -> ()
  | Some (sw, port, bytes) ->
    let links = Collector.links col in
    let n = List.length links in
    if n >= 2 then begin
      let total =
        List.fold_left
          (fun acc (s, p) -> acc + Collector.link_bytes col ~switch:s ~port:p)
          0 links
      in
      let mean = float_of_int total /. float_of_int n in
      if float_of_int bytes >= hot_ratio *. mean then
        reweight_away t ~switch:sw ~port
    end);
  (* Actions taken this round, oldest first. *)
  let rec fresh acc l = if l == before then acc else
      match l with [] -> acc | a :: rest -> fresh (a :: acc) rest
  in
  fresh [] t.actions_rev

let version t = t.version
let drained t = List.rev t.drained_links
let actions t = List.rev t.actions_rev
