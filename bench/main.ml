(* The experiment harness: regenerates every table and figure of the
   paper (see DESIGN.md for the index). Usage:

     dune exec bench/main.exe              run all experiments
     dune exec bench/main.exe e2 e5        run a subset
     dune exec bench/main.exe -- --micro   also run bechamel microbenches
     dune exec bench/main.exe -- --benches summarise BENCH.json and exit
*)

open Tpp

let approx ~tolerance a b = Float.abs (a -. b) <= tolerance

(* --- E2: Figure 2 ------------------------------------------------------ *)

let e2 () =
  Report.section "E2 / Figure 2"
    "RCP* (TPP + end-host) vs in-network RCP: R(t)/C convergence";
  let params = Fig2.default in
  Report.kv "setup"
    "10 Mb/s bottleneck dumbbell, flows join at t = 0, 10, 20 s; alpha = 0.5, beta = 1";
  let star = Fig2.run_rcp_star params in
  let rcp = Fig2.run_rcp params in
  Report.sub "R(t)/C at the bottleneck (1-second buckets)";
  Tpp_util.Series.print_table
    [ star.Fig2.series; rcp.Fig2.series ]
    ~bucket:(Time_ns.sec 1);
  Report.plot ~y_label:"R(t)/C" [ star.Fig2.series; rcp.Fig2.series ];
  Report.write_csv ~name:"e2_rcp_star" ~header:"time_s,r_over_c"
    (Report.csv_of_series star.Fig2.series);
  Report.write_csv ~name:"e2_rcp" ~header:"time_s,r_over_c"
    (Report.csv_of_series rcp.Fig2.series);
  Report.sub "paper expectations (shape, not absolute numbers)";
  let windows = [ ("1 flow", 5, 10, 1.0); ("2 flows", 15, 20, 0.5); ("3 flows", 25, 30, 1.0 /. 3.0) ] in
  List.iter
    (fun (label, from_sec, to_sec, fair) ->
      let m_star = Fig2.mean_between star.Fig2.series ~from_sec ~to_sec in
      let m_rcp = Fig2.mean_between rcp.Fig2.series ~from_sec ~to_sec in
      Report.expect
        ~what:(Printf.sprintf "%s: RCP* near fair share" label)
        ~paper:(Printf.sprintf "R/C = %.2f" fair)
        ~measured:(Printf.sprintf "%.3f" m_star)
        (approx ~tolerance:0.15 m_star fair);
      Report.expect
        ~what:(Printf.sprintf "%s: RCP near fair share" label)
        ~paper:(Printf.sprintf "R/C = %.2f" fair)
        ~measured:(Printf.sprintf "%.3f" m_rcp)
        (approx ~tolerance:0.15 m_rcp fair);
      Report.expect
        ~what:(Printf.sprintf "%s: RCP* tracks RCP" label)
        ~paper:"qualitatively similar"
        ~measured:(Printf.sprintf "|%.3f - %.3f| = %.3f" m_star m_rcp
                     (Float.abs (m_star -. m_rcp)))
        (approx ~tolerance:0.15 m_star m_rcp))
    windows;
  Report.sub "flow goodput over each flow's lifetime (Mb/s)";
  List.iteri
    (fun i g -> Report.kvf (Printf.sprintf "RCP* flow %d" i) (g /. 1e6))
    star.Fig2.goodputs_bps;
  List.iteri
    (fun i g -> Report.kvf (Printf.sprintf "RCP  flow %d" i) (g /. 1e6))
    rcp.Fig2.goodputs_bps;
  Report.kvi "RCP* bottleneck tail drops" star.Fig2.drops;
  Report.kvi "RCP  bottleneck tail drops" rcp.Fig2.drops

(* --- E5: §2.1 micro-burst detection ------------------------------------- *)

let e5 () =
  Report.section "E5 / §2.1" "micro-burst detection: per-RTT TPPs vs management polling";
  let p = Burst_exp.default in
  Report.kv "setup"
    "two on/off senders share a 100 Mb/s uplink; overlapping ~45 KB bursts";
  Report.kv "threshold" (Printf.sprintf "%d bytes of queue" p.Burst_exp.threshold_bytes);
  let r = Burst_exp.run p in
  Printf.printf "\n  %-34s %10s %14s\n" "observer" "episodes" "max queue (B)";
  Printf.printf "  %-34s %10d %14d\n" "oracle (50us ground truth)"
    r.Burst_exp.oracle_episodes r.Burst_exp.oracle_max_queue;
  Printf.printf "  %-34s %10d %14d\n"
    (Printf.sprintf "TPP probes (1ms, %d sent)" r.Burst_exp.probes_sent)
    r.Burst_exp.tpp_episodes r.Burst_exp.tpp_max_queue;
  Printf.printf "  %-34s %10d %14s\n"
    (Printf.sprintf "SNMP-style poll (1s, %d samples)" r.Burst_exp.poll_samples)
    r.Burst_exp.poll_episodes "-";
  Report.sub "paper expectations";
  Report.expect ~what:"TPPs see (almost) every micro-burst"
    ~paper:"per-RTT visibility"
    ~measured:(Printf.sprintf "%d of %d" r.Burst_exp.tpp_episodes r.Burst_exp.oracle_episodes)
    (10 * r.Burst_exp.tpp_episodes >= 8 * r.Burst_exp.oracle_episodes);
  Report.expect ~what:"coarse polling is blind to them"
    ~paper:"ill-suited for micro-bursts"
    ~measured:(Printf.sprintf "%d of %d" r.Burst_exp.poll_episodes r.Burst_exp.oracle_episodes)
    (5 * r.Burst_exp.poll_episodes <= r.Burst_exp.oracle_episodes)

(* --- E6: §2.3 forwarding-plane debugger --------------------------------- *)

let e6 () =
  Report.section "E6 / §2.3" "forwarding-plane debugger: TPP tracer vs postcard ndb";
  let p = Ndb_exp.default in
  Report.kv "setup"
    "diamond A-{B,C}-D; a stale priority rule on A silently reroutes via C";
  let r = Ndb_exp.run p in
  let path_string ids = String.concat " -> " (List.map (Printf.sprintf "sw%d") ids) in
  Report.kv "control-plane intent" (path_string r.Ndb_exp.expected_path);
  (match r.Ndb_exp.observed_paths with
  | observed :: _ -> Report.kv "dataplane (from one traced packet)" (path_string observed)
  | [] -> Report.kv "dataplane" "no traces!");
  Report.sub "mismatches reported by the verifier";
  List.iter
    (fun m -> Format.printf "  %a@." Verify.pp_mismatch m)
    r.Ndb_exp.mismatches;
  (match r.Ndb_exp.culprit_entry with
  | Some entry -> Report.kvi "culprit flow entry (from the trace)" entry
  | None -> Report.kv "culprit flow entry" "none found");
  Report.sub "overhead for the same visibility";
  Report.kvi "application packets traced" r.Ndb_exp.traced_packets;
  Report.kvi "TPP in-band bytes per packet" r.Ndb_exp.tpp_bytes_per_packet;
  Report.kv "TPP extra packets" "0";
  Report.kvi "postcard packets (ndb baseline)" r.Ndb_exp.postcards;
  Report.kvi "postcard bytes" r.Ndb_exp.postcard_bytes;
  Report.sub "overhead scaling with path length (per application packet)";
  Printf.printf "  %6s %22s %26s\n" "hops" "TPP in-band bytes" "postcard bytes (+packets)";
  List.iter
    (fun h ->
      Printf.printf "  %6d %22d %18d (+%d)\n" h
        (Prog.section_size (Trace.make ~max_hops:h))
        (h * Postcard.postcard_bytes)
        h)
    [ 1; 2; 3; 5; 7 ];
  Report.sub "paper expectations";
  Report.expect ~what:"divergence localised to the bad hop"
    ~paper:"per-packet forwarding visibility"
    ~measured:
      (match r.Ndb_exp.mismatches with
      | Verify.Wrong_switch { hop; expected; got } :: _ ->
        Printf.sprintf "hop %d: sw%d instead of sw%d" hop got expected
      | _ -> "not found")
    (List.exists
       (function Verify.Wrong_switch _ -> true | _ -> false)
       r.Ndb_exp.mismatches);
  Report.expect ~what:"culprit entry identified" ~paper:"matched entry id on packet"
    ~measured:
      (match r.Ndb_exp.culprit_entry with Some e -> string_of_int e | None -> "-")
    (r.Ndb_exp.culprit_entry = Some 999);
  Report.expect ~what:"no extra packets vs one per packet per hop"
    ~paper:"ndb creates truncated copies"
    ~measured:(Printf.sprintf "%d postcards for %d packets" r.Ndb_exp.postcards
                 r.Ndb_exp.traced_packets)
    (r.Ndb_exp.postcards = 3 * r.Ndb_exp.traced_packets)

(* --- E7: §3.3 overheads --------------------------------------------------- *)

let e7 () =
  Report.section "E7 / §3.3" "TPP byte overhead and the line-rate cycle budget";
  let rows = Overheads.rows ~hops:5 [ 1; 2; 3; 4; 5; 8 ] in
  Printf.printf
    "  %6s %12s %12s %14s %16s %8s %8s\n" "instrs" "instr bytes" "header" "mem/hop (B)"
    "section@5hops" "cycles" "budget";
  List.iter
    (fun r ->
      Printf.printf "  %6d %12d %12d %14d %16d %8d %8s\n" r.Overheads.instructions
        r.Overheads.instr_bytes r.Overheads.header_bytes r.Overheads.perhop_memory_bytes
        r.Overheads.section_bytes r.Overheads.cycles
        (if r.Overheads.fits_budget then "fits" else "OVER"))
    rows;
  let lr = Overheads.line_rate_analysis () in
  Report.sub "line-rate context (paper footnote 2 and §3.3)";
  Report.kv "switch"
    (Printf.sprintf "%d x %d GbE, min frame %dB (incl. preamble+IFG)" lr.Overheads.ports
       lr.Overheads.port_gbps lr.Overheads.min_frame_bytes);
  Report.kv "packets/second"
    (Printf.sprintf "%.2e (paper: ~1 billion)" lr.Overheads.packets_per_sec);
  Report.kv "time per packet per port pipeline"
    (Printf.sprintf "%.1f ns = %.0f cycles at 1 GHz" lr.Overheads.ns_per_packet
       lr.Overheads.ns_per_packet);
  Report.kv "TCPU instructions/second (all ports)"
    (Printf.sprintf "%.2e" lr.Overheads.tcpu_instr_per_sec);
  Report.sub "paper expectations";
  let five = List.nth rows 4 in
  Report.expect ~what:"5 instructions cost 20 bytes" ~paper:"20 bytes/packet"
    ~measured:(Printf.sprintf "%d bytes" five.Overheads.instr_bytes)
    (five.Overheads.instr_bytes = 20);
  Report.expect ~what:"5-instruction TPP under cut-through budget"
    ~paper:"< 300 cycles"
    ~measured:(Printf.sprintf "%d cycles" five.Overheads.cycles)
    five.Overheads.fits_budget;
  Report.expect ~what:"~1 billion packets/second at line rate"
    ~paper:"10^9 pkts/s"
    ~measured:(Printf.sprintf "%.2e" lr.Overheads.packets_per_sec)
    (lr.Overheads.packets_per_sec > 0.9e9)

(* --- E8: ablations ---------------------------------------------------------- *)

let e8 () =
  Report.section "E8 / ablation" "why CEXEC targeting and CSTORE matter";
  Report.sub "(a) phase-3 update with and without the CEXEC guard";
  let rows = Ablation.cexec_targeting () in
  Printf.printf "  %-10s %14s %20s %20s\n" "switch" "capacity kbps" "CEXEC-guarded reg"
    "unguarded reg";
  List.iter
    (fun r ->
      Printf.printf "  sw%-8d %14d %20d %20d\n" r.Ablation.switch_id
        r.Ablation.capacity_kbps r.Ablation.targeted_kbps r.Ablation.broadcast_kbps)
    rows;
  let target_ok =
    List.for_all
      (fun r ->
        if r.Ablation.switch_id = 2 then r.Ablation.targeted_kbps = 2000
        else r.Ablation.targeted_kbps = r.Ablation.capacity_kbps)
      rows
  in
  let broadcast_clobbers =
    List.for_all (fun r -> r.Ablation.broadcast_kbps = 2000) rows
  in
  Report.expect ~what:"CEXEC updates only the bottleneck"
    ~paper:"executes on one switch" ~measured:"only sw2 changed" target_ok;
  Report.expect ~what:"without CEXEC every link is clobbered"
    ~paper:"(motivates CEXEC)" ~measured:"all registers overwritten"
    broadcast_clobbers;
  Report.sub "(b) CSTORE vs plain STORE under three concurrent writers";
  let r = Ablation.cstore_vs_store () in
  Printf.printf "  %-26s %16s %16s\n" "" "CSTORE" "STORE";
  Printf.printf "  %-26s %16.4f %16.4f\n" "converged mean R/C" r.Ablation.with_cstore_mean
    r.Ablation.without_cstore_mean;
  Printf.printf "  %-26s %16.4f %16.4f\n" "converged stddev"
    r.Ablation.with_cstore_stddev r.Ablation.without_cstore_stddev;
  Report.kvf "CSTORE updates rejected (%)" r.Ablation.updates_rejected_pct;
  Report.expect ~what:"CSTORE detects concurrent writers"
    ~paper:"linearizable conditional store"
    ~measured:(Printf.sprintf "%.1f%% of updates rejected" r.Ablation.updates_rejected_pct)
    (r.Ablation.updates_rejected_pct > 0.0);
  Report.expect ~what:"both variants still converge (races are benign here)"
    ~paper:"congestion control tolerates races"
    ~measured:(Printf.sprintf "means %.3f vs %.3f" r.Ablation.with_cstore_mean
                 r.Ablation.without_cstore_mean)
    (approx ~tolerance:0.15 r.Ablation.with_cstore_mean r.Ablation.without_cstore_mean)

(* --- E9: flow completion times (extension) -------------------------------- *)

let e9 () =
  Report.section "E9 / extension"
    "flow completion times: RCP* vs TCP Reno vs AIMD (the paper's motivation)";
  let p = Fct.default in
  Report.kv "workload"
    (Printf.sprintf
       "Poisson arrivals %.0f/s, Pareto sizes (mean %.0f kB, shape %.1f), 10 Mb/s \
        bottleneck, %.0f s"
       p.Fct.arrivals_per_sec
       (p.Fct.mean_flow_bytes /. 1e3)
       p.Fct.pareto_shape
       (Time_ns.to_sec_f p.Fct.duration));
  let star = Fct.run Fct.Rcp_star_ctl p in
  let aimd = Fct.run Fct.Aimd_ctl p in
  let tcp = Fct.run Fct.Tcp_ctl p in
  let line name (r : Fct.result) =
    Printf.printf "  %-12s %4d/%-4d %10.3f %10.3f %10.3f %10.3f %8d\n" name
      r.Fct.completed r.Fct.started
      (Tpp_util.Stats.mean r.Fct.short_fct)
      (Tpp_util.Stats.percentile r.Fct.short_fct 95.0)
      (Tpp_util.Stats.mean r.Fct.long_fct)
      (Tpp_util.Stats.percentile r.Fct.long_fct 95.0)
      r.Fct.bottleneck_drops
  in
  Printf.printf "\n  %-12s %9s %10s %10s %10s %10s %8s\n" "controller" "done"
    "short mean" "short p95" "long mean" "long p95" "drops";
  Printf.printf "  %-12s %9s %10s %10s %10s %10s %8s\n" "" "" "(s)" "(s)" "(s)" "(s)" "";
  line "RCP*(TPP)" star;
  line "AIMD" aimd;
  line "TCP (Reno)" tcp;
  let s_star = Tpp_util.Stats.mean star.Fct.short_fct in
  let s_aimd = Tpp_util.Stats.mean aimd.Fct.short_fct in
  let s_tcp = Tpp_util.Stats.mean tcp.Fct.short_fct in
  Report.sub "expectations (RCP's motivation: flows converge to fair share fast)";
  Report.expect ~what:"short flows finish faster under RCP*"
    ~paper:"RCP helps flows finish quickly"
    ~measured:
      (Printf.sprintf "%.3fs vs %.3fs AIMD / %.3fs TCP" s_star s_aimd s_tcp)
    (s_star < s_aimd && s_star < s_tcp);
  Report.expect ~what:"all controllers complete the workload"
    ~paper:"same offered schedule"
    ~measured:(Printf.sprintf "%d / %d / %d of %d" star.Fct.completed
                 aimd.Fct.completed tcp.Fct.completed star.Fct.started)
    (star.Fct.completed > 0 && aimd.Fct.completed > 0 && tcp.Fct.completed > 0)

(* --- E10: fat-tree fabric (extension) --------------------------------------- *)

let e10 () =
  Report.section "E10 / extension"
    "TPP tasks on a k=4 fat-tree: fabric-wide sweep + path verification";
  let r = Fabric.run () in
  Report.kvi "switches in the fabric" r.Fabric.switches_total;
  Report.kvi "switches the sweep observed" r.Fabric.switches_observed;
  Report.kv "note"
    "ECMP: flows hash across equal-cost up-links; the verifier replays the same hash";
  Report.sub "path tracing";
  Report.kvi "packets traced" r.Fabric.traced;
  Report.kvi "traces matching control-plane intent" r.Fabric.verified;
  List.iter
    (fun (len, count) ->
      Report.kv (Printf.sprintf "paths crossing %d switch(es)" len)
        (Printf.sprintf "%d packets" count))
    r.Fabric.path_length_counts;
  Report.sub "hotspot localisation from sweep data";
  Report.kvi "predicted congested switch (offered > capacity)" r.Fabric.hotspot_expected;
  Report.kvi "busiest switch per sweep" r.Fabric.hotspot_found;
  Report.kvf "its mean queue (bytes)" r.Fabric.hotspot_mean_queue;
  Report.kvf "runner-up mean queue (bytes)" r.Fabric.runner_up_mean_queue;
  Report.sub "expectations";
  Report.expect ~what:"every traced packet verified"
    ~paper:"dataplane = control plane here"
    ~measured:(Printf.sprintf "%d of %d" r.Fabric.verified r.Fabric.traced)
    (r.Fabric.traced > 0 && r.Fabric.verified = r.Fabric.traced);
  Report.expect ~what:"paths fit datacenter hop counts"
    ~paper:"typically 5-7 hops max"
    ~measured:
      (String.concat ","
         (List.map (fun (l, _) -> string_of_int l) r.Fabric.path_length_counts))
    (List.for_all (fun (l, _) -> l >= 1 && l <= 5) r.Fabric.path_length_counts);
  Report.expect ~what:"sweep localises the hotspot"
    ~paper:"low-latency visibility into queues"
    ~measured:
      (Printf.sprintf "sw%d (planted sw%d), %.0fB vs %.0fB" r.Fabric.hotspot_found
         r.Fabric.hotspot_expected r.Fabric.hotspot_mean_queue
         r.Fabric.runner_up_mean_queue)
    (r.Fabric.hotspot_found = r.Fabric.hotspot_expected
    && r.Fabric.hotspot_mean_queue > 2.0 *. r.Fabric.runner_up_mean_queue)

(* --- E11: visibility ladder (extension) ------------------------------------- *)

let e11 () =
  Report.section "E11 / extension"
    "congestion control vs dataplane visibility: loss-only, ECN bit, TPP registers";
  Report.kv "setup"
    "3 flows on a 10 Mb/s bottleneck (150 kB buffer, ECN mark at 30 kB), 15 s";
  let r = Cc_compare.run () in
  let line (o : Cc_compare.outcome) =
    Printf.printf "  %-24s %12.0f %12.0f %10.2f %8d %12.1f\n" o.Cc_compare.name
      o.Cc_compare.queue_mean o.Cc_compare.queue_p95
      (o.Cc_compare.goodput_bps /. 1e6)
      o.Cc_compare.drops o.Cc_compare.latency_p95_ms
  in
  Printf.printf "\n  %-24s %12s %12s %10s %8s %12s\n" "controller" "q mean (B)"
    "q p95 (B)" "goodput" "drops" "lat p95 (ms)";
  line r.Cc_compare.aimd;
  line r.Cc_compare.dctcp;
  line r.Cc_compare.rcp_star;
  Report.plot ~y_label:"bottleneck queue (bytes)"
    [ r.Cc_compare.aimd.Cc_compare.queue_series;
      r.Cc_compare.dctcp.Cc_compare.queue_series;
      r.Cc_compare.rcp_star.Cc_compare.queue_series ];
  Report.sub "expectations (more visibility -> smaller standing queue)";
  let q o = o.Cc_compare.queue_mean in
  Report.expect ~what:"AIMD fills the buffer to sense congestion"
    ~paper:"loss-based control needs full queues"
    ~measured:(Printf.sprintf "%.0f B mean, %d drops" (q r.Cc_compare.aimd)
                 r.Cc_compare.aimd.Cc_compare.drops)
    (q r.Cc_compare.aimd > 2.0 *. q r.Cc_compare.dctcp
    && r.Cc_compare.aimd.Cc_compare.drops > 0);
  Report.expect ~what:"DCTCP hovers near the marking threshold"
    ~paper:"ECN gives 1 bit early warning"
    ~measured:(Printf.sprintf "%.0f B mean vs 30000 B threshold" (q r.Cc_compare.dctcp))
    (q r.Cc_compare.dctcp < 60_000.0);
  Report.expect ~what:"RCP* runs the smallest queue"
    ~paper:"TPPs read the whole queue register"
    ~measured:(Printf.sprintf "%.0f B mean" (q r.Cc_compare.rcp_star))
    (q r.Cc_compare.rcp_star <= q r.Cc_compare.dctcp
    && q r.Cc_compare.rcp_star < q r.Cc_compare.aimd);
  Report.expect ~what:"all three keep the link busy"
    ~paper:"same offered capacity"
    ~measured:(Printf.sprintf "%.1f / %.1f / %.1f Mb/s"
                 (r.Cc_compare.aimd.Cc_compare.goodput_bps /. 1e6)
                 (r.Cc_compare.dctcp.Cc_compare.goodput_bps /. 1e6)
                 (r.Cc_compare.rcp_star.Cc_compare.goodput_bps /. 1e6))
    (List.for_all
       (fun o -> o.Cc_compare.goodput_bps > 6.0e6)
       [ r.Cc_compare.aimd; r.Cc_compare.dctcp; r.Cc_compare.rcp_star ])

(* --- E12: consistent updates (extension) ------------------------------------ *)

let e12 () =
  Report.section "E12 / extension"
    "witnessing inconsistent forwarding during a staged routing update";
  Report.kv "setup"
    "diamond; traced packets every 2 ms; switch-at-a-time route update at t=200 ms";
  let r = Consistent.run () in
  Report.kvi "packets traced" r.Consistent.total;
  Report.kvi
    (Printf.sprintf "version-pure at v%d (before)" r.Consistent.old_version)
    r.Consistent.pure_old;
  Report.kvi
    (Printf.sprintf "version-pure at v%d (after)" r.Consistent.new_version)
    r.Consistent.pure_new;
  Report.kvi "mixed-version packets (straddlers)" r.Consistent.mixed;
  Report.kv "example straddler saw versions"
    (String.concat "," (List.map string_of_int r.Consistent.example_mixture));
  Report.sub "expectations";
  Report.expect ~what:"update transient individually visible"
    ~paper:"rules change constantly; updates are not atomic"
    ~measured:(Printf.sprintf "%d straddlers" r.Consistent.mixed)
    (r.Consistent.mixed > 0);
  Report.expect ~what:"every straddler sent during the update window"
    ~paper:"per-packet attribution"
    ~measured:(Printf.sprintf "%d of %d" r.Consistent.mixed_during_window
                 r.Consistent.mixed)
    (r.Consistent.mixed_during_window = r.Consistent.mixed);
  Report.expect ~what:"steady state is version-pure"
    ~paper:"(sanity)"
    ~measured:(Printf.sprintf "%d + %d + %d = %d" r.Consistent.pure_old
                 r.Consistent.mixed r.Consistent.pure_new r.Consistent.total)
    (r.Consistent.pure_old > 0 && r.Consistent.pure_new > 0
    && r.Consistent.pure_old + r.Consistent.pure_new + r.Consistent.mixed
       = r.Consistent.total)

(* --- E13: fault localisation (extension) ------------------------------------- *)

let e13 () =
  Report.section "E13 / extension"
    "end-host fault localisation: a link dies, probes find it";
  Report.kv "setup"
    "k=4 ECMP fat-tree; 16 probe circuits at 10 ms; one agg->core link fails at t=1s";
  let r = Faults.run () in
  Report.kvi "probe circuits" r.Faults.circuits;
  Report.kv "failed link (ground truth)"
    (Format.asprintf "%a" Faultfind.pp_link r.Faults.failed_link);
  Report.kvi "circuits that lost their echoes" r.Faults.failing_circuits;
  Report.kvf "detection latency (ms)" r.Faults.detection_ms;
  Report.kv "suspect links"
    (String.concat ", "
       (List.map (Format.asprintf "%a" Faultfind.pp_link) r.Faults.suspects));
  Report.sub "expectations";
  Report.expect ~what:"failure detected within a few probe periods"
    ~paper:"low-latency fault diagnosis"
    ~measured:(Printf.sprintf "%.0f ms (probe period 10 ms)" r.Faults.detection_ms)
    (r.Faults.detection_ms < 100.0);
  Report.expect ~what:"true link among suspects"
    ~paper:"localisation from end-hosts"
    ~measured:(Format.asprintf "%a" Faultfind.pp_link r.Faults.failed_link)
    r.Faults.true_link_in_suspects;
  Report.expect ~what:"suspect set is small"
    ~paper:"(intersection of failing paths)"
    ~measured:(Printf.sprintf "%d links" (List.length r.Faults.suspects))
    (List.length r.Faults.suspects <= 3 && r.Faults.suspects <> [])

(* --- E14: streaming telemetry (extension) ------------------------------------- *)

let e14 () =
  Report.section "E14 / extension"
    "streaming telemetry: binary postcards -> sketches -> reacting controller";
  Report.kv "setup"
    "k=4 ECMP fat-tree; one agg->core link turns 50% lossy at t=1s; 1 ms control loop";
  let r = Telemetry_exp.run () in
  Report.kvi "hosts probing" r.Telemetry_exp.hosts;
  Report.kvf "healthy probe RTT (ms)" r.Telemetry_exp.rtt_ms;
  Report.kv "failed link (ground truth)"
    (let n, p = r.Telemetry_exp.failed_link in
     Printf.sprintf "node %d port %d" n p);
  Report.kvi "binary postcards" r.Telemetry_exp.cards;
  Report.kvi "postcards dropped (sink overflow)" r.Telemetry_exp.cards_dropped;
  Report.kvi "fault cards" r.Telemetry_exp.fault_cards;
  Report.kvi "probe retry cards" r.Telemetry_exp.probe_retries;
  Report.kvi "probe failure cards" r.Telemetry_exp.probe_failures;
  Report.kvf "fault -> first telemetry evidence (ms)" r.Telemetry_exp.detect_ms;
  Report.kvf "fault -> drain installed (ms)" r.Telemetry_exp.react_ms;
  Report.kvf "detect latency (RTTs)" r.Telemetry_exp.detect_rtts;
  Report.kvf "react latency (RTTs)" r.Telemetry_exp.react_rtts;
  Report.kvi "hop cards on drained link after settling"
    r.Telemetry_exp.failed_hops_after_drain;
  Report.sub "expectations";
  Report.expect ~what:"the lossy link is the one drained"
    ~paper:"controller reacts to telemetry"
    ~measured:
      (String.concat ", "
         (List.map
            (fun (n, p) -> Printf.sprintf "node %d port %d" n p)
            r.Telemetry_exp.drained))
    (List.mem r.Telemetry_exp.failed_link r.Telemetry_exp.drained);
  Report.expect ~what:"reaction at RTT timescales, not control-protocol ones"
    ~paper:"ms-scale reaction"
    ~measured:(Printf.sprintf "%.1f ms" r.Telemetry_exp.react_ms)
    (r.Telemetry_exp.react_ms < 200.0);
  Report.expect ~what:"flows hash away from the drained link"
    ~paper:"ECMP group rewrite"
    ~measured:
      (Printf.sprintf "%d late hop cards" r.Telemetry_exp.failed_hops_after_drain)
    (r.Telemetry_exp.failed_hops_after_drain
     < r.Telemetry_exp.cards / 100);
  Report.expect ~what:"no telemetry lost" ~paper:"bounded collector memory"
    ~measured:(Printf.sprintf "%d dropped" r.Telemetry_exp.cards_dropped)
    (r.Telemetry_exp.cards_dropped = 0)

(* --- dispatch ----------------------------------------------------------------- *)

let all = [ ("e1", Demos.figure1); ("e2", e2); ("e3", Demos.table1);
            ("e4", Demos.table2); ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8);
            ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13);
            ("e14", e14) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--benches" args then begin
    Report.print_benches "BENCH.json";
    exit 0
  end;
  let micro = List.mem "--micro" args in
  let strict = List.mem "--check" args in
  if List.mem "--csv" args then Report.csv_dir := Some "bench_csv";
  let wanted =
    List.filter
      (fun a -> a <> "--micro" && a <> "--csv" && a <> "--check" && a <> "--")
      args
  in
  Printf.printf
    "Tiny Packet Programs (HotNets'13) — experiment harness, library v%s\n" version;
  let to_run =
    if wanted = [] then all
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt (String.lowercase_ascii name) all with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S (known: e1..e8)\n" name;
            exit 2)
        wanted
  in
  List.iter (fun (_, f) -> f ()) to_run;
  if micro then Micro.run ();
  let diverged = Report.summary () in
  (* --check makes the harness CI-friendly: nonzero exit when any
     paper-vs-measured expectation diverges. *)
  if strict && diverged > 0 then exit 1
