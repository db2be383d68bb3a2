(* The benchmark's own tests: the seeded schedule generator, the metric
   schema against BENCHMARK.json, and a smoke-size run of every
   workload, untraced and traced, at the default and the held-out seed,
   passing every correctness check. *)

open Perfbench

let gen ~k ~seed =
  Gen.make ~k ~frames_per_host:10 ~gap_ns:4_000 ~programs:5 ~seed

let same_seed () =
  Alcotest.(check bool)
    "identical schedule" true
    (gen ~k:16 ~seed:11 = gen ~k:16 ~seed:11)

let different_seed () =
  let a = gen ~k:16 ~seed:11 and b = gen ~k:16 ~seed:29 in
  Alcotest.(check bool)
    "different partner map" false
    (a.Gen.partner = b.Gen.partner)

let other_pod () =
  List.iter
    (fun k ->
      List.iter
        (fun seed ->
          let g = gen ~k ~seed in
          Array.iteri
            (fun h p ->
              if Gen.pod_of g h = Gen.pod_of g p then
                Alcotest.failf "k=%d seed=%d: host %d and partner %d share pod %d"
                  k seed h p (Gen.pod_of g h))
            g.Gen.partner)
        [ -5; 0; 1; Bench.default_seed; Bench.held_out_seed ])
    [ 4; 8; 16 ]

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let occurrences text sub =
  let n = String.length sub and len = String.length text in
  let rec go i acc =
    if i + n > len then acc
    else if String.sub text i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let schema () =
  let e2e = Metrics.end_to_end and layers = Metrics.per_layer in
  Alcotest.(check bool)
    "at most 16 end-to-end metrics" true
    (List.length e2e <= 16);
  Alcotest.(check bool)
    "at most 128 per-layer metrics" true
    (List.length layers <= 128);
  let names =
    Bench.workloads @ List.map (fun s -> s.Metrics.name) (e2e @ layers)
  in
  List.iter
    (fun n -> if not (valid_name n) then Alcotest.failf "bad name %S" n)
    names;
  Alcotest.(check int)
    "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  List.iter
    (fun n ->
      if occurrences json (Printf.sprintf "\"name\": \"%s\"" n) <> 1 then
        Alcotest.failf "%s is not in BENCHMARK.json exactly once" n)
    names;
  List.iter
    (fun s ->
      let name = s.Metrics.name and units = s.Metrics.units in
      let entry = Printf.sprintf "\"name\": \"%s\", \"unit\": \"%s\"" name units in
      if occurrences json entry <> 1 then
        Alcotest.failf "%s: BENCHMARK.json does not give it unit %s" name units)
    (e2e @ layers);
  Alcotest.(check int)
    "BENCHMARK.json names nothing else" (List.length names)
    (occurrences json "\"name\":")

let smoke workload () =
  List.iter
    (fun seed ->
      List.iter
        (fun trace ->
          let attempted, values =
            Bench.run ~workload ~smoke:true ~seed ~seconds:0 ~trace ()
          in
          Alcotest.(check bool) "made a run" true (attempted >= 1);
          ignore (Metrics.rows ~trace values))
        [ false; true ])
    [ Bench.default_seed; Bench.held_out_seed ]

let () =
  Alcotest.run "perfbench"
    [ ( "gen",
        [ Alcotest.test_case "same seed, identical schedule" `Quick same_seed;
          Alcotest.test_case "another seed, another partner map" `Quick
            different_seed;
          Alcotest.test_case "every partner in another pod" `Quick other_pod ] );
      ( "schema",
        [ Alcotest.test_case "names, units and BENCHMARK.json" `Quick schema ] );
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case w `Quick (smoke w))
          Bench.workloads ) ]
