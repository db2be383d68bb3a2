(* The committed BENCH.json against the gate table it records: one
   provenance block, the schema's fields on every row, and exactly the
   rows the table runs (so every row CI gates on), in table order. A
   stale or hand-edited record fails here. *)

let file = lazy (Report.benches "../BENCH.json")
let names ~smoke = List.map (fun s -> s.Gates.name) (Gates.table ~smoke)

let one_provenance () =
  Alcotest.(check int) "git_commit entries" 1 (List.length (Lazy.force file).Report.commits)

let mandatory_fields () =
  List.iter
    (fun (row, line) ->
      List.iter
        (fun field ->
          if Report.key_end line field = None then
            Alcotest.failf "row %s has no %S" row field)
        Report.bench_fields)
    (Lazy.force file).Report.rows

let gate_rows () =
  let recorded = List.map fst (Lazy.force file).Report.rows in
  List.iter
    (fun row ->
      if not (List.mem row recorded) then
        Alcotest.failf "row %s, which CI gates on, is not in BENCH.json" row)
    (names ~smoke:true);
  Alcotest.(check (list string)) "rows of one full-size run" (names ~smoke:false) recorded

let () =
  Alcotest.run "bench"
    [ ( "BENCH.json",
        [ Alcotest.test_case "one provenance block" `Quick one_provenance;
          Alcotest.test_case "mandatory fields on every row" `Quick mandatory_fields;
          Alcotest.test_case "every gate row present" `Quick gate_rows ] ) ]
