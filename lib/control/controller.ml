module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Topology = Tpp_sim.Topology
module Switch = Tpp_asic.Switch
module Alloc = Tpp_asic.Alloc
module Vaddr = Tpp_isa.Vaddr

type task = {
  task_name : string;
  link_slot : int option;
  word_base : int option;
  word_count : int;
}

type t = {
  net : Net.t;
  mutable current_version : int;
  mutable task_list : task list;
  mutable updating : bool;
  mutable next_tcam_entry : int;
}

let create net =
  Topology.install_routes ~version:1 net;
  { net; current_version = 1; task_list = []; updating = false;
    (* High base keeps controller-stamped TCAM ids visually distinct
       from the route installer's per-switch counters. *)
    next_tcam_entry = 10_000 }

let version t = t.current_version

(* Performs [f] on every switch, insisting all agree on the result. *)
let allocate_everywhere t what f =
  let results =
    List.map (fun (_, sw) -> f (Switch.alloc sw)) (Net.switches t.net)
  in
  let rec unify acc = function
    | [] -> acc
    | Error e :: _ -> Error e
    | Ok v :: rest -> (
      match acc with
      | Ok None -> unify (Ok (Some v)) rest
      | Ok (Some prev) when prev = v -> unify acc rest
      | Ok (Some prev) ->
        Error
          (Printf.sprintf
             "%s allocation disagrees across switches (%d vs %d); register tasks \
              before any per-switch allocation"
             what prev v)
      | Error _ as e -> e)
  in
  match unify (Ok None) results with
  | Ok (Some v) -> Ok v
  | Ok None -> Error "no switches in the network"
  | Error e -> Error e

let register_task t ~name ?(link_slot = false) ?(sram_words = 0) () =
  if List.exists (fun task -> task.task_name = name) t.task_list then
    Error (Printf.sprintf "task %S already registered" name)
  else begin
    let slot =
      if link_slot then
        match allocate_everywhere t "link slot" (Alloc.alloc_link_slot ~task:name) with
        | Ok s -> Ok (Some s)
        | Error e -> Error e
      else Ok None
    in
    match slot with
    | Error e -> Error e
    | Ok link_slot -> (
      let base =
        if sram_words > 0 then
          match
            allocate_everywhere t "word range"
              (Alloc.alloc_words ~task:name ~count:sram_words)
          with
          | Ok b -> Ok (Some b)
          | Error e -> Error e
        else Ok None
      in
      match base with
      | Error e -> Error e
      | Ok word_base ->
        let task = { task_name = name; link_slot; word_base; word_count = sram_words } in
        t.task_list <- t.task_list @ [ task ];
        Ok task)
  end

let tasks t = t.task_list

let defines_for task =
  let slot =
    match task.link_slot with
    | Some s -> [ (task.task_name ^ ":LinkReg", Vaddr.encode (Vaddr.Link_sram s)) ]
    | None -> []
  in
  let words =
    match task.word_base with
    | Some base ->
      List.init task.word_count (fun i ->
          ( Printf.sprintf "%s:Word%d" task.task_name i,
            Vaddr.encode (Vaddr.Sram (base + i)) ))
    | None -> []
  in
  slot @ words

let install_tcam t ~switch_node rule action =
  t.next_tcam_entry <- t.next_tcam_entry + 1;
  let entry_id = t.next_tcam_entry in
  Switch.install_tcam
    (Net.switch t.net switch_node)
    rule
    { Tpp_asic.Tables.action; entry_id; version = t.current_version };
  entry_id

let remove_tcam t ~switch_node ~entry_id =
  Switch.remove_tcam (Net.switch t.net switch_node) ~entry_id

let reinstall_routes t =
  t.current_version <- t.current_version + 1;
  Topology.install_routes ~version:t.current_version t.net

let staged_route_update t ~gap =
  if gap <= 0 then invalid_arg "Controller.staged_route_update: gap";
  t.current_version <- t.current_version + 1;
  t.updating <- true;
  let version = t.current_version in
  let eng = Net.engine t.net in
  let hosts = Net.hosts t.net in
  (* Next-hop sets computed now (the intent); applied switch by switch. *)
  let plans =
    List.map (fun dest -> (dest, Topology.next_hop_ports t.net ~dest)) hosts
  in
  let switches = List.sort compare (List.map fst (Net.switches t.net)) in
  List.iteri
    (fun i sid ->
      Engine.after eng (gap * (i + 1)) (fun () ->
          let entry_id = ref 0 in
          List.iter
            (fun (dest, plan) ->
              match List.assoc_opt sid plan with
              | Some ports ->
                incr entry_id;
                Topology.install_dest_on_switch t.net ~dest ~ecmp:false ~version
                  ~entry_id:!entry_id sid ports
              | None -> ())
            plans;
          Switch.set_version (Net.switch t.net sid) version;
          if i = List.length switches - 1 then t.updating <- false))
    switches

let update_in_progress t = t.updating
