(** Heavy-tailed workload draws.

    The primitives {!Fct} builds its flow schedules from: Poisson
    inter-arrival gaps at a target load and flow sizes from a
    heavy-tailed {!mix} (the canonical "websearch" / "datamining"
    datacenter CDFs, a parametric Pareto, or fixed-size). Each is a
    pure function of the {!Rng.t} it is handed, so a schedule is a pure
    function of its seed — same seed, same flows, on every platform and
    shard layout. *)

module Rng = Tpp_util.Rng

(** Flow-size distribution. *)
type mix =
  | Websearch
      (** The DCTCP web-search trace shape: mostly tens-of-KB request
          flows with a top decile running to tens of MB. *)
  | Datamining
      (** The VL2 data-mining trace shape: ~80% of flows under 10 KB,
          with rare multi-hundred-MB shuffles carrying most bytes. *)
  | Pareto of { shape : float; mean_bytes : float }
      (** Parametric Pareto with the given mean ([shape] > 1). *)
  | Fixed of int  (** Every flow the same size. *)

val validate : mix -> unit
(** Raises [Invalid_argument] for a mix with no finite mean
    (Pareto shape <= 1, non-positive sizes). *)

val mean_bytes : mix -> float
(** The analytic mean flow size of the mix — exact for the
    linear-interpolation sampler, so load targeting needs no
    calibration runs. *)

val exp_gap : Rng.t -> rate:float -> float
(** One exponential inter-arrival gap (seconds) at [rate] arrivals/sec:
    a single [Rng.exponential] draw. *)

val sample_bytes : Rng.t -> mix -> int
(** One flow-size draw: a single uniform variate through the mix's
    inverse CDF ([Pareto]: a single [Rng.pareto] draw with the scale
    derived from the mean). May return 0
    for the empirical mixes' smallest flows; clamp at the call site. *)

val arrival_rate : load:float -> link_bps:int -> mix:mix -> float
(** Per-host arrivals/sec such that each host offers [load] of its
    [link_bps] access link: [load * bps / (8 * mean_bytes)]. *)
