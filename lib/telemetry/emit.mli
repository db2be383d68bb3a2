(** Wiring from the instrumented layers into a {!Sink}.

    Three producers exist: the switch dataplane (binary hop cards via
    {!Tpp_asic.Switch.set_bin_tap}), the end-host reliable prober
    (retry/failure evidence via {!Tpp_endhost.Probe.Reliable.set_observer}),
    and the fault-injection layer ({!Tpp_sim.Fault.set_observer}). Each
    installer below points one of them at a sink; postcards from all
    three interleave in emission order and are told apart by their
    {!Wire.kind}. *)

module Net = Tpp_sim.Net

val tap_switches : Sink.t -> Net.t -> unit
(** Installs a binary tap on every switch of the net: one [Hop] card
    per frame reaching an egress queue. Replaces any previous binary
    tap (the boxed {!Tpp_asic.Switch.set_tap} is untouched). *)

val probe_events : Sink.t -> node:int -> Tpp_endhost.Probe.Reliable.t -> unit
(** [Probe_retry] / [Probe_failure] cards from this prober, stamped
    with the probing host's [node] id; [subject] is the probe seq,
    [value] the transmissions so far. *)

val fault_events : Sink.t -> Tpp_sim.Fault.t -> unit
(** One [Fault_event] card per injection: [node]/[out_port] name the
    transmitting endpoint of the affected wire, [value] a stable small
    int for the injection cause (0 lost on a down link, 1 random drop,
    2 corrupt header, 3 corrupt FCS, 4 frozen arrival, 5 restart),
    [subject] the lost frame's id. *)
