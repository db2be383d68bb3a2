(** Experiment E13 (extension): end-host fault localisation at RTT
    timescales.

    The paper's first sentence promises "low-latency visibility" for
    "fault diagnosis". Here a fleet of 16 probe circuits covers a k=4
    ECMP fat-tree; at t = 1 s a {!Tpp_sim.Fault} schedule breaks it.
    Within a couple of probe periods some circuits stop echoing, and
    intersecting their predicted link sets (minus every healthy
    circuit's links) pins down the failed link — no switch support
    beyond the TPP echo, no control-plane liveness protocol.

    Four scenarios: a permanent kill of one aggregation-to-core link
    (E13 itself), a flapping link (15 ms dark every 30 ms), two
    simultaneous failures on distinct cables, and a 40%-lossy link.
    Localisation must place every true cable in the suspect set in all
    four. *)

type scenario = Permanent | Flap | Dual_failure | Lossy_link

val scenario_name : scenario -> string

type scenario_result = {
  sc_scenario : scenario;
  sc_circuits : int;
  sc_true_links : Tpp_ndb.Faultfind.link list;  (** ground truth *)
  sc_degraded_circuits : int;
  sc_detection_ms : float;  (** fault start -> first circuit degraded *)
  sc_suspects : Tpp_ndb.Faultfind.link list;
  sc_localised : bool;  (** every true cable is in the suspect set *)
  sc_fault_stats : Tpp_sim.Fault.stats;
}

val run_scenario : ?seed:int -> scenario -> scenario_result

val run_matrix : ?seed:int -> unit -> scenario_result list
(** All four scenarios, in declaration order. *)
