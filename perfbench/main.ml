(* The benchmark command (see README.md):

     main.exe --workload W --seed N --seconds S --trace 0|1

   Prints provenance, a table of every metric with its unit, and as the
   last line of standard output one JSON result. A failed correctness
   check exits 1 without a result line; bad arguments exit 2. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload (udp-plain|udp-tpp|udp-postcard) \
     --seed N --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref None and seed = ref Bench.default_seed in
  let seconds = ref 10 and trace = ref false in
  let int v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w Bench.workloads ->
      workload := Some w;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := int v;
      if !seconds < 0 then usage ();
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  Printf.printf
    "perfbench: workload=%s seed=%d seconds=%d trace=%d commit=%s ocaml=%s \
     nproc=%d\n%!"
    workload !seed !seconds
    (if !trace then 1 else 0)
    (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown")
    Sys.ocaml_version
    (Domain.recommended_domain_count ());
  match
    Bench.run ~spans_dir:".perfbench" ~workload ~smoke:false ~seed:!seed
      ~seconds:!seconds ~trace:!trace ()
  with
  | exception Check.Failed msg ->
    Printf.eprintf "perfbench: CHECK FAILED: %s\n%!" msg;
    exit 1
  | attempted, values ->
    let rows = Metrics.rows ~trace:!trace values in
    Metrics.print_table ~trace:!trace rows;
    print_endline (Metrics.result_line ~attempted rows)
