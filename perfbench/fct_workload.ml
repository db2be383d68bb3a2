(* The transport layer, measured inside the traced udp-plain run: RCP*,
   NDP and TCP, each carrying the same pre-drawn Poisson/Pareto flow set
   across BENCH_8's k=4 fat-tree at 60% load (Fct.fabric_run ~shards:1;
   the seed draws the flow set). It drives the Engine and Switch layers
   differently from the udp-* workloads: a small working set (20
   switches), deep queues with drops and trims, closure timer events
   from the end hosts and RCP*, /32 FIBs and the default Always wire
   check. RCP* is the paper's §2.2 application.

   It is not a workload of its own (see README.md): fabric_run can only
   be timed whole, so its run time cannot discount other tenants'
   interference the way the udp-* slices do. *)

open Tpp

type size = { duration_ns : int }

let full = { duration_ns = Time_ns.ms 80 }
let smoke = { duration_ns = Time_ns.ms 10 }

let transports =
  [ (Fct.Rcp_star_t, Spans.fabric_rcp_star);
    (Fct.Ndp_t, Spans.fabric_ndp);
    (Fct.Tcp_t, Spans.fabric_tcp) ]

let params size ~seed =
  { Fct.fabric_default with
    Fct.f_load = 0.6;
    f_duration = size.duration_ns;
    f_seed = seed }

let run_once ?tracer p =
  List.map
    (fun (transport, span) ->
      Spans.enter_opt tracer span;
      let o = Fct.fabric_run ~shards:1 transport p in
      Spans.leave_opt tracer;
      o)
    transports

let check ~workload outcomes =
  List.iter
    (fun (o : Fct.fabric_outcome) ->
      let name = Fct.transport_name o.Fct.fo_transport in
      Check.that ~workload ~layer:"rcp/endhost"
        ~invariant:(name ^ ": transport invariants hold (Fct fo_ok)")
        o.Fct.fo_ok
        (fun () -> "fo_ok is false");
      Check.that ~workload ~layer:"rcp/endhost"
        ~invariant:(name ^ ": flows start, and no more complete than start")
        (o.Fct.fo_started > 0 && o.Fct.fo_completed <= o.Fct.fo_started)
        (Check.ints o.Fct.fo_completed o.Fct.fo_started))
    outcomes

(* One untraced and one traced run, which must agree; the traced run's
   spans and outcomes give the rcp.* metrics. Rcp_star numbers its
   controllers from one counter per process, and from the 4096th RCP*
   flow on its probe sequence numbers pass 2^32 and RCP* completes other
   flows, so a process must not repeat these runs many times over.
   Returns the number of runs made and the metrics. *)
let traced ~workload size ~seed =
  let p = params size ~seed in
  let untraced = run_once p in
  check ~workload untraced;
  let tr = Spans.create () in
  let outcomes = run_once ~tracer:tr p in
  check ~workload outcomes;
  Check.that ~workload ~layer:"rcp/endhost"
    ~invariant:"transport runs: traced run = untraced run"
    (List.map Fct.fingerprint outcomes = List.map Fct.fingerprint untraced)
    (fun () -> "Fct.fingerprint differs");
  let fl = float_of_int in
  ( 2,
    List.concat_map
      (fun ((transport, span), (o : Fct.fabric_outcome)) ->
        let m = "rcp." ^ Fct.transport_name transport ^ "." in
        [ (m ^ "run_s", fl (Spans.total_ns tr span) *. 1e-9);
          (m ^ "events", fl o.Fct.fo_events);
          (m ^ "completed_frac", fl o.Fct.fo_completed /. fl o.Fct.fo_started);
          (m ^ "drops", fl o.Fct.fo_drops);
          (m ^ "trims", fl o.Fct.fo_trims) ])
      (List.combine transports outcomes) )
