(* Host time for the benchmark: monotonic wall time for the spans of the
   traced run, and process CPU time for the end-to-end timings. On a
   machine shared with other tenants, wall time also counts the time
   they hold the cores; CPU time does not, though it still stretches
   while they load the host (see README.md). *)

(* Monotonic nanoseconds. Reading it allocates nothing, so spans may
   read it around allocation-sensitive calls. *)
external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

(* CPU time of the whole process, every thread, in nanoseconds.
   Allocates nothing. *)
external cpu_ns : unit -> (int[@untagged])
  = "perfbench_cpu_ns_byte" "perfbench_cpu_ns"
[@@noalloc]

let cpu_since_s t0 = float_of_int (cpu_ns () - t0) *. 1e-9
