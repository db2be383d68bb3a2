(* Samples the program counter over perfbench's timed phase: the
   workload's set-up runs with the timer stopped, [Engine.run] to the
   horizon with it running, repeated until [--seconds] of wall time
   have passed. bench/prof builds and runs this and reads the samples
   back; run it directly with

     dune exec bench/sampler/sampler.exe -- --workload udp-plain --seed 11 \
       --seconds 40 --out samples.txt *)

open Perfbench
module Engine = Tpp.Engine

external init : int -> int -> unit = "sampler_init"
external resume : unit -> unit = "sampler_resume"
external pause : unit -> unit = "sampler_pause"
external taken : unit -> int = "sampler_taken"
external write : string -> unit = "sampler_write"

let interval_us = 100

let () =
  let workload = ref "udp-plain" and seed = ref 11 and seconds = ref 40
  and out = ref "samples.txt" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "udp-plain | udp-tpp | udp-postcard");
      ("--seed", Arg.Set_int seed, "traffic seed (default 11)");
      ("--seconds", Arg.Set_int seconds, "wall seconds of repetitions (default 40)");
      ("--out", Arg.Set_string out, "sample file (default samples.txt)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sampler.exe [--workload W] [--seed S] [--seconds N] [--out FILE]";
  let kind =
    match !workload with
    | "udp-plain" -> Udp_workload.Plain
    | "udp-tpp" -> Udp_workload.With_tpp
    | "udp-postcard" -> Udp_workload.Postcard
    | w ->
      prerr_endline ("sampler: unknown workload " ^ w);
      exit 2
  in
  let size = Udp_workload.full in
  let gen = Udp_workload.generate size ~seed:!seed in
  (* At most one sample per interval of CPU time. *)
  init interval_us (!seconds * (1_000_000 / interval_us));
  let stop = Udp_workload.deadline !seconds in
  let runs = ref 0 in
  while !runs = 0 || Clock.now_ns () < stop do
    let fab = Udp_workload.setup kind size gen in
    resume ();
    Engine.run fab.Udp_workload.eng ~until:(Gen.horizon gen);
    pause ();
    incr runs
  done;
  write !out;
  Printf.printf "%s seed %d: %d runs, %d samples -> %s\n" !workload !seed !runs (taken ())
    !out
