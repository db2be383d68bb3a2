(** Experiment E6 (paper §2.3): the forwarding-plane debugger.

    A diamond topology with a stale high-priority TCAM rule planted on
    the ingress switch. Traced application packets reveal the
    divergence; the postcard baseline observes the same but at a
    per-packet-per-hop packet cost. Its postcards are the binary hop
    cards every switch emits ({!Tpp_telemetry.Emit.tap_switches}), each
    priced as a {!postcard_size}-byte packet. *)

type params = {
  packets : int;
  payload_bytes : int;
  plant_stale_rule : bool;
  max_hops : int;
}

val default : params

val postcard_size : int
(** Wire bytes of one modelled ndb postcard: a minimum 64-byte Ethernet
    frame. *)

type result = {
  expected_path : int list;
  observed_paths : int list list;      (** one per traced packet *)
  mismatches : Tpp_ndb.Verify.mismatch list;  (** from the first packet *)
  culprit_entry : int option;          (** entry id at the diverging hop *)
  traced_packets : int;
  tpp_bytes_per_packet : int;
  postcards : int;          (** hop cards the switches emitted *)
  postcard_bytes : int;     (** [postcards * postcard_size] *)
}

val run : params -> result
