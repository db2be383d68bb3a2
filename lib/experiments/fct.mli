(** Flow completion times: one harness for every topology and transport.

    The paper motivates RCP with flows "finishing quickly"; this module
    measures it. A workload of Poisson flow arrivals with heavy-tailed
    (Pareto) sizes is drawn once, before any engine exists, and then
    run under one transport on one topology: E9's dumbbell (a shared
    10 Mb/s bottleneck, RCP* against TCP Reno and plain AIMD) or a
    k-ary fat-tree (the five-way transport comparison of the gate
    table). Short flows are where transports differ: AIMD spends their
    whole lifetime probing for bandwidth, while RCP* starts at the
    network's advertised fair rate within one control period.

    A run is {!attach} on each replica of the fabric and {!merge} of
    their parts, so sequential and sharded ({!Tpp_parsim.Parsim}) runs
    of the same parameters must produce bit-identical {!fingerprint}s. *)

type transport =
  | Rcp_star_t  (** TPP-driven RCP (paper §2.2) *)
  | Tcp_t       (** Reno-style reliable transport *)
  | Dctcp_t     (** ECN-fraction rate control *)
  | Ndp_t       (** receiver-driven pull/trim transport *)
  | Tpp_lb_t    (** AIMD + CONGA-style flowlet steering from TPP probes *)
  | Aimd_t      (** rate-based AIMD on loss reports: TPP-LB without the balancer *)

val transport_name : transport -> string
val all_transports : transport list
(** The five the gate table's [flows-*] rows sweep ({!Aimd_t} is E9's). *)

type topo =
  | Fat_tree of int  (** k-ary fat-tree (k even); every host sends *)
  | Dumbbell of { pairs : int; core_bps : int }
      (** [pairs] senders, each sending to its paired receiver across a
          [core_bps] core link *)

type fabric_params = {
  f_topo : topo;
  f_bps : int;           (** every link's rate (dumbbell: every host link) *)
  f_delay_ns : int;      (** every link's propagation delay *)
  f_load : float;
      (** offered load: a fraction of each host's access link on the
          fat-tree, of each sender's [core_bps / pairs] share on the
          dumbbell *)
  f_mean_bytes : float;
  f_shape : float;       (** Pareto shape (> 1) *)
  f_payload : int;       (** data bytes per packet *)
  f_duration : int;
  f_seed : int;
  f_short_bytes : int;   (** "short flow" threshold for reporting *)
  f_chaos_drop : float;  (** drop probability on every access link; 0 = clean *)
  f_max_bytes : int;
      (** flow-size cap applied to the Pareto draw ([max_int] = none):
          completion-gated runs bound sizes so every started flow can
          finish inside the drain window *)
}

val fabric_default : fabric_params
(** k=4 fat-tree, 200 Mb/s links, load 0.6, seed 11. Control timing is
    fixed by the topology: 200 us probes and controller RTT, switch
    utilisation updated every 100 us. *)

val dumbbell_default : fabric_params
(** E9: 4 pairs across a 10 Mb/s core, 100 Mb/s host links, 5 ms per
    link, load 0.384 (8 arrivals/s of 60 kB Pareto(1.5) flows), 30 s,
    seed 7. RCP* probes every 25 ms; controller RTT and receiver
    reports are 40 ms; utilisation is updated every 10 ms. *)

type fabric_outcome = {
  fo_transport : transport;
  fo_started : int;
  fo_completed : int;
  fo_samples : (int * int) list;
      (** (flow bytes, flow completion time ns), sorted *)
  fo_drops : int;   (** switch-port drops summed over owned switches *)
  fo_trims : int;   (** trim-to-header events (nonzero only for NDP) *)
  fo_events : int;  (** engine events over all shards (not identity-stable) *)
  fo_ok : bool;     (** transport invariants held (NDP state machine) *)
}

val build : fabric_params -> Tpp_sim.Engine.t -> Tpp_sim.Net.t
(** The fabric [f_topo] names: one replica. *)

val attach :
  transport -> fabric_params -> owns:(int -> bool) -> Tpp_sim.Net.t -> unit -> fabric_outcome
(** [attach t p ~owns net] sets the flow set up on a {!build} of [p],
    launching the flows of the hosts [owns] accepts. Called after the
    run, the reader returns this replica's part: its flows, its owned
    switches' drops and trims, its engine's events. *)

val merge : fabric_outcome list -> fabric_outcome
(** A run's parts (at least one) as one outcome. *)

val fabric_run : ?shards:int -> transport -> fabric_params -> fabric_outcome
(** Runs the workload under one transport. Arrivals stop at 70% of the
    horizon so the tail can drain. [shards = 1] (default) is the
    sequential baseline; any sharding of the same parameters must agree
    on {!fingerprint}. Raises [Invalid_argument] for a Pareto shape
    <= 1 (see {!Workload.validate}). *)

val fingerprint : fabric_outcome -> int list
(** Identity-stable digest: started, completed, drops, trims and the
    flattened sorted samples — everything except wall-clock artifacts
    like event counts. *)

type fct_summary = {
  fs_n : int;
  fs_mean_ns : float;
  fs_p50_ns : int;
  fs_p99_ns : int;
}

val short_long : fabric_outcome -> threshold:int -> fct_summary * fct_summary
(** Summaries of the flows of at most [threshold] bytes, and of the rest. *)
