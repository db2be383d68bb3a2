(* The seeded schedule of the udp-* workloads.

   Every input comes from the benchmark's --seed; the simulator only
   sees the generated schedule. Each host of a k-ary fat-tree sends one
   constant-rate flow to a partner host in another pod, so every frame
   crosses edge, aggregation and core switches, starting at a seeded
   offset within the first gap. For the TPP workload the seed also picks
   each flow's program. Hosts are indexed pod-major, as the fabric
   numbers them. *)

module Rng = Tpp.Rng

type t = {
  k : int;
  frames_per_host : int;
  gap_ns : int;
  partner : int array;  (* host -> destination host, in another pod *)
  offset_ns : int array;  (* host -> first send, in [1, gap_ns] *)
  program : int array;  (* host -> program index, in [0, programs) *)
}

let hosts_per_pod k = k * k / 4

let make ~k ~frames_per_host ~gap_ns ~programs ~seed =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Gen.make: k must be even and >= 2";
  if gap_ns < 1 || programs < 1 then
    invalid_arg "Gen.make: gap_ns and programs must be positive";
  let rng = Rng.create ~seed in
  let per_pod = hosts_per_pod k and hosts = k * k * k / 4 in
  let partner =
    Array.init hosts (fun h ->
        let pod = ((h / per_pod) + 1 + Rng.int rng (k - 1)) mod k in
        (pod * per_pod) + Rng.int rng per_pod)
  in
  let offset_ns = Array.init hosts (fun _ -> 1 + Rng.int rng gap_ns) in
  let program = Array.init hosts (fun _ -> Rng.int rng programs) in
  { k; frames_per_host; gap_ns; partner; offset_ns; program }

let pod_of t host = host / hosts_per_pod t.k
let frames t = Array.length t.partner * t.frames_per_host
let send_time t ~host ~frame = t.offset_ns.(host) + (frame * t.gap_ns)

(* Strictly after every send: the last one is at most
   gap_ns + (frames_per_host - 1) * gap_ns. *)
let horizon t = (t.frames_per_host * t.gap_ns) + 1
