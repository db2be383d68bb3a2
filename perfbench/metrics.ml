(* Metric names and units, the printed table and the result line.

   BENCHMARK.json lists the same names and units; the tests check that
   the two agree. *)

type spec = { name : string; units : string }

let spec name units = { name; units }

let end_to_end =
  [ spec "run_s" "s"; spec "setup_s" "s"; spec "alloc_mwords" "Mwords";
    spec "peak_heap_mb" "MiB"; spec "fail_frac" "ratio" ]

let transports = [ "rcp_star"; "ndp"; "tcp" ]
let ledger_rows = [ "frame"; "net"; "switch"; "tcpu"; "telemetry"; "bench" ]

let per_layer =
  [ spec "topology.build_s" "s";
    spec "topology.fib_per_switch" "entries";
    spec "engine.events" "count";
    spec "engine.events_per_s" "1/s";
    spec "engine.events_per_frame" "ratio";
    spec "engine.slice_ms_p50" "ms";
    spec "engine.slice_ms_p99" "ms";
    spec "net.host_send_ns" "ns";
    spec "net.frames_offered" "count";
    spec "net.frames_delivered" "count";
    spec "net.link_hops" "count";
    spec "net.nic_queue_max" "frames";
    spec "frame.build_ns" "ns";
    spec "frame.build_words" "words";
    spec "frame.pool_created" "count";
    spec "frame.pool_reused" "count";
    spec "frame.pool_outstanding" "count";
    spec "switch.ingress_ns" "ns";
    spec "switch.ingress_words" "words";
    spec "switch.route_ns" "ns";
    spec "switch.queue_bytes_p99" "bytes";
    spec "switch.drops" "count";
    spec "switch.trims" "count";
    spec "tcpu.execs" "count";
    spec "tcpu.faults" "count";
    spec "tcpu.instrs" "count";
    spec "tcpu.compile_hits" "count";
    spec "tcpu.compile_misses" "count";
    spec "tcpu.exec_ns" "ns";
    spec "tcpu.exec_words" "words";
    spec "telemetry.cards" "count";
    spec "telemetry.cards_dropped" "count";
    spec "telemetry.absorb_ns_per_card" "ns";
    spec "telemetry.sink_bytes_max" "bytes" ]
  @ List.concat_map
      (fun t ->
        let m = "rcp." ^ t ^ "." in
        [ spec (m ^ "run_s") "s"; spec (m ^ "events") "count";
          spec (m ^ "completed_frac") "ratio"; spec (m ^ "drops") "count";
          spec (m ^ "trims") "count" ])
      transports
  @ [ spec "parsim.run_s_2shard" "s";
      spec "parsim.rounds" "count";
      spec "parsim.messages" "count";
      spec "parsim.chunks" "count";
      spec "parsim.cut_links" "count";
      spec "parsim.shard_imbalance" "ratio";
      spec "parsim.boundary_outstanding" "count";
      spec "gc.minor_collections" "count";
      spec "gc.major_collections" "count";
      spec "gc.promoted_mwords" "Mwords";
      spec "bench.callback_mwords" "Mwords" ]
  @ List.map (fun r -> spec ("ledger." ^ r ^ "_frac") "ratio") ledger_rows
  @ [ spec "ledger.unattributed_frac" "ratio"; spec "trace.overhead" "ratio" ]

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Metrics.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    sorted.(min (n - 1)
              (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The rows of one mode, in schema order. Every value must name a metric
   of that mode. In the traced mode a per-layer metric the workload does
   not produce reads 0: its layer does not run there, or cannot be
   observed from outside lib/. *)
let rows ~trace values =
  let specs = if trace then per_layer else end_to_end in
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun s -> s.name = n) specs) then
        invalid_arg ("Metrics.rows: unknown metric " ^ n))
    values;
  List.map
    (fun s ->
      let v =
        match List.assoc_opt s.name values with
        | Some v -> v
        | None when trace -> 0.0
        | None -> invalid_arg ("Metrics.rows: no value for " ^ s.name)
      in
      if not (Float.is_finite v) then
        invalid_arg (Printf.sprintf "Metrics.rows: %s is %f" s.name v);
      (s, v))
    specs

let print_table ~trace rows =
  print_endline
    (if trace then "per-layer metrics (traced run):"
     else "end-to-end metrics (tracing off):");
  List.iter
    (fun (s, v) -> Printf.printf "  %-30s %16.6g %s\n" s.name v s.units)
    rows

(* Every digit of a measured value; whole numbers without a fraction. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~attempted rows =
  Printf.sprintf
    "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}"
    attempted
    (String.concat ", "
       (List.map
          (fun (s, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" s.name
              (number v) s.units)
          rows))
