(* The benchmark command's dispatch: one workload, untraced (the
   end-to-end metrics) or traced (the per-layer metrics and the ledger).
   Returns the number of simulation runs made and the metric values. *)

let workloads = [ "udp-plain"; "udp-tpp"; "udp-postcard" ]

(* Claims are developed on [default_seed] and must also hold on
   [held_out_seed]. *)
let default_seed = 11
let held_out_seed = 29

let run ?spans_dir ~workload ~smoke ~seed ~seconds ~trace () =
  let udp kind =
    let size = if smoke then Udp_workload.smoke else Udp_workload.full in
    if trace then
      Udp_workload.traced ?spans_dir ~workload kind size ~seed ~seconds
    else Udp_workload.measure ~workload kind size ~seed ~seconds
  in
  match workload with
  | "udp-plain" when trace ->
    let runs, values = udp Udp_workload.Plain in
    let size = if smoke then Fct_workload.smoke else Fct_workload.full in
    let fct_runs, fct = Fct_workload.traced ~workload size ~seed in
    (runs + fct_runs, values @ fct)
  | "udp-plain" -> udp Udp_workload.Plain
  | "udp-tpp" -> udp Udp_workload.With_tpp
  | "udp-postcard" -> udp Udp_workload.Postcard
  | w -> invalid_arg ("Bench.run: unknown workload " ^ w)
