(* Command line for bench/gates.ml's scenario table.

     dune exec bench/perf.exe                  every row at full size
                                               -> BENCH.json
     dune exec bench/perf.exe -- --smoke       every row at CI size;
                                               writes nothing
     dune exec bench/perf.exe -- --row NAME    one row (repeatable);
                                               writes nothing
     dune exec bench/perf.exe -- --out FILE    write FILE (with any of
                                               the above)

   Exits 1 if any identity check or assertion failed (each failure is
   printed as it happens, naming the row, the run and the first field
   that differs; the record is still written); 2 on a bad argument. *)

let () =
  let smoke = ref false and rows = ref [] and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--" :: rest -> parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--row" :: name :: rest ->
      rows := name :: !rows;
      parse rest
    | "--out" :: file :: rest ->
      out := Some file;
      parse rest
    | a :: _ ->
      Printf.eprintf
        "perf: unknown argument %S (expected --smoke, --row NAME, --out FILE)\n" a;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let table = Gates.table ~smoke:!smoke in
  let names = List.map (fun s -> s.Gates.name) table in
  List.iter
    (fun r ->
      if not (List.mem r names) then begin
        Printf.eprintf "perf: no row %S; rows: %s\n" r (String.concat " " names);
        exit 2
      end)
    !rows;
  let specs =
    if !rows = [] then table else List.filter (fun s -> List.mem s.Gates.name !rows) table
  in
  let lines, failed = Gates.run_table ~smoke:!smoke specs in
  let out =
    match !out with
    | Some _ as o -> o
    | None -> if !smoke || !rows <> [] then None else Some "BENCH.json"
  in
  Option.iter
    (fun out ->
      Report.write_benches ~smoke:!smoke ~out lines;
      Printf.printf "perf: wrote %s\n%!" out)
    out;
  if failed <> [] then begin
    Printf.eprintf "perf: FAIL — %d of %d row(s) failed: %s\n" (List.length failed)
      (List.length lines) (String.concat " " failed);
    exit 1
  end;
  Printf.printf "perf: OK — %d row(s) hold\n%!" (List.length lines)
