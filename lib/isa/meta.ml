type t = {
  mutable in_port : int;
  mutable out_port : int;
  mutable queue_id : int;
  mutable matched_entry : int;
  mutable matched_version : int;
  mutable table_hit : int;
  mutable arrival_ns : int;
  mutable hop_count : int;
}

let create () =
  {
    in_port = 0;
    out_port = 0;
    queue_id = 0;
    matched_entry = 0;
    matched_version = 0;
    table_hit = 0;
    arrival_ns = 0;
    hop_count = 0;
  }

let copy t = { t with in_port = t.in_port }

let reset t =
  t.in_port <- 0;
  t.out_port <- 0;
  t.queue_id <- 0;
  t.matched_entry <- 0;
  t.matched_version <- 0;
  t.table_hit <- 0;
  t.arrival_ns <- 0

let clear t =
  reset t;
  t.hop_count <- 0

let get t = function
  | Vaddr.Pkt_meta.Input_port -> t.in_port
  | Vaddr.Pkt_meta.Output_port -> t.out_port
  | Vaddr.Pkt_meta.Matched_entry -> t.matched_entry
  | Vaddr.Pkt_meta.Matched_version -> t.matched_version
  | Vaddr.Pkt_meta.Hop_count -> t.hop_count
  | Vaddr.Pkt_meta.Table_hit -> t.table_hit
  | Vaddr.Pkt_meta.Arrival_ns -> t.arrival_ns land 0xFFFF_FFFF
