module Rng = Tpp_util.Rng

type mix =
  | Websearch
  | Datamining
  | Pareto of { shape : float; mean_bytes : float }
  | Fixed of int

(* Empirical flow-size CDFs as (cumulative probability, bytes) knots;
   sampling interpolates linearly between knots, so each draw costs one
   uniform variate. The shapes follow the two canonical datacenter
   workloads: "websearch" (the DCTCP web-search trace: most flows are
   tens of KB, the top decile runs to tens of MB) and "datamining" (the
   VL2 trace: ~80% of flows under 10 KB while a sliver of multi-hundred-
   MB shuffles carries most bytes — a far heavier tail). *)
let websearch_cdf =
  [|
    (0.00, 1_000.);
    (0.15, 10_000.);
    (0.20, 20_000.);
    (0.30, 30_000.);
    (0.40, 50_000.);
    (0.53, 80_000.);
    (0.60, 200_000.);
    (0.70, 1_000_000.);
    (0.80, 2_000_000.);
    (0.90, 5_000_000.);
    (0.97, 10_000_000.);
    (1.00, 30_000_000.);
  |]

let datamining_cdf =
  [|
    (0.00, 100.);
    (0.50, 300.);
    (0.60, 1_000.);
    (0.70, 2_000.);
    (0.80, 10_000.);
    (0.90, 100_000.);
    (0.95, 1_000_000.);
    (0.99, 10_000_000.);
    (1.00, 300_000_000.);
  |]

let validate = function
  | Websearch | Datamining -> ()
  | Pareto { shape; mean_bytes } ->
    (* Shape <= 1 has no finite mean: the derived scale goes
       non-positive and draws silently truncate to garbage. *)
    if shape <= 1.0 then invalid_arg "Workload: pareto shape must be > 1.0";
    if mean_bytes <= 0.0 then invalid_arg "Workload: mean_bytes must be positive"
  | Fixed n -> if n <= 0 then invalid_arg "Workload: fixed size must be positive"

(* Exact for the linear-interpolated sampler: over each knot interval
   the size is linear in the uniform draw, so its conditional mean is
   the midpoint and the mixture weights are the probability masses. *)
let cdf_mean cdf =
  let m = ref 0.0 in
  for i = 1 to Array.length cdf - 1 do
    let p0, b0 = cdf.(i - 1) and p1, b1 = cdf.(i) in
    m := !m +. ((p1 -. p0) *. (b0 +. b1) /. 2.0)
  done;
  !m

let mean_bytes = function
  | Websearch -> cdf_mean websearch_cdf
  | Datamining -> cdf_mean datamining_cdf
  | Pareto { mean_bytes; _ } -> mean_bytes
  | Fixed n -> float_of_int n

(* The scale giving a Pareto(shape) the requested mean — the same
   derivation [Fct] has always used, kept draw-for-draw compatible. *)
let pareto_scale ~shape ~mean_bytes = mean_bytes *. (shape -. 1.0) /. shape

let sample_cdf rng cdf =
  let u = Rng.float rng 1.0 in
  let n = Array.length cdf in
  let rec seg i =
    if i >= n - 1 then n - 1
    else
      let p, _ = cdf.(i) in
      if u <= p then i else seg (i + 1)
  in
  let i = seg 1 in
  let p0, b0 = cdf.(i - 1) and p1, b1 = cdf.(i) in
  let frac = if p1 > p0 then (u -. p0) /. (p1 -. p0) else 0.0 in
  int_of_float (b0 +. (frac *. (b1 -. b0)))

let sample_bytes rng = function
  | Websearch -> sample_cdf rng websearch_cdf
  | Datamining -> sample_cdf rng datamining_cdf
  | Pareto { shape; mean_bytes } ->
    int_of_float (Rng.pareto rng ~shape ~scale:(pareto_scale ~shape ~mean_bytes))
  | Fixed n ->
    ignore (Rng.float rng 1.0);
    (* burn one draw so mixes are position-compatible *)
    n

let exp_gap rng ~rate = Rng.exponential rng ~mean:(1.0 /. rate)

let arrival_rate ~load ~link_bps ~mix =
  if not (load > 0.0) then invalid_arg "Workload: load must be positive";
  if link_bps <= 0 then invalid_arg "Workload: link_bps must be positive";
  load *. float_of_int link_bps /. (8.0 *. mean_bytes mix)
