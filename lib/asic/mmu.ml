module Vaddr = Tpp_isa.Vaddr
module Meta = Tpp_isa.Meta

type fault = Bad_address of int | Read_only of int | Port_out_of_range of int

let fault_message = function
  | Bad_address a -> Printf.sprintf "bad address 0x%03x" a
  | Read_only a -> Printf.sprintf "write to read-only address 0x%03x" a
  | Port_out_of_range p -> Printf.sprintf "port %d out of range" p

let read state ~meta ~now addr =
  match Vaddr.classify addr with
  | Error _ -> Error (Bad_address addr)
  | Ok region -> (
    match region with
    | Vaddr.Switch s -> Ok (State.switch_stat state ~now s)
    | Vaddr.Link s ->
      let port = meta.Meta.out_port in
      if port < 0 || port >= state.State.num_ports then Error (Port_out_of_range port)
      else Ok (State.port_stat state ~port s)
    | Vaddr.Queue s -> (
      let port = meta.Meta.out_port in
      if port < 0 || port >= state.State.num_ports then Error (Port_out_of_range port)
      else
        match State.queue_stat state ~port ~queue:meta.Meta.queue_id s with
        | -1 -> Error (Bad_address addr)
        | v -> Ok v)
    | Vaddr.Link_sram slot -> (
      match State.link_sram_index state ~slot ~port:meta.Meta.out_port with
      | -1 -> Error (Bad_address addr)
      | idx -> Ok (State.sram_array state).(idx))
    | Vaddr.Port (port, s) ->
      if port >= state.State.num_ports then Error (Port_out_of_range port)
      else Ok (State.port_stat state ~port s)
    | Vaddr.Meta m -> Ok (Meta.get meta m)
    | Vaddr.Sram w -> (
      match State.sram_get state w with -1 -> Error (Bad_address addr) | v -> Ok v))

let write state ~meta addr v =
  match Vaddr.classify addr with
  | Error _ -> Error (Bad_address addr)
  | Ok region -> (
    match region with
    | Vaddr.Link_sram slot -> (
      match State.link_sram_index state ~slot ~port:meta.Meta.out_port with
      | -1 -> Error (Bad_address addr)
      | idx ->
        (State.sram_array state).(idx) <- v land 0xFFFF_FFFF;
        Ok ())
    | Vaddr.Sram w -> if State.sram_set state w v then Ok () else Error (Bad_address addr)
    | Vaddr.Switch _ | Vaddr.Link _ | Vaddr.Queue _ | Vaddr.Port _ | Vaddr.Meta _ ->
      Error (Read_only addr))

let read_absolute state ~now addr =
  match Vaddr.classify addr with
  | Error _ -> Error (Bad_address addr)
  | Ok (Vaddr.Link _ | Vaddr.Queue _ | Vaddr.Link_sram _ | Vaddr.Meta _) ->
    Error (Bad_address addr)
  | Ok _ ->
    let meta = Meta.create () in
    read state ~meta ~now addr
