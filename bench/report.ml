(* Console reporting helpers shared by the experiment harness. *)

let section id title =
  Printf.printf "\n%s\n%s — %s\n%s\n"
    (String.make 78 '=') id title (String.make 78 '=')

let sub title = Printf.printf "\n-- %s --\n" title

let kv key value = Printf.printf "  %-42s %s\n" key value

let kvi key value = kv key (string_of_int value)

let kvf key value = kv key (Printf.sprintf "%.3f" value)

(* Renders time series as an ASCII chart so `dune exec bench/main.exe`
   shows the figure, not just its numbers. Series are drawn with
   distinct glyphs; collisions show the later series' glyph. *)
let plot ?(width = 70) ?(height = 14) ~y_label series =
  let series =
    List.map (fun s -> (Tpp_util.Series.name s, Tpp_util.Series.points s)) series
  in
  let all_points = List.concat_map (fun (_, pts) -> Array.to_list pts) series in
  if all_points <> [] then begin
    let t_max = List.fold_left (fun a (t, _) -> max a t) 0 all_points in
    let v_max = List.fold_left (fun a (_, v) -> Float.max a v) 0.0 all_points in
    let v_max = if v_max <= 0.0 then 1.0 else v_max *. 1.05 in
    let grid = Array.make_matrix height width ' ' in
    let glyphs = [| '*'; '+'; 'o'; 'x' |] in
    List.iteri
      (fun si (_, points) ->
        Array.iter
          (fun (t, v) ->
            if t >= 0 && t <= t_max then begin
              let x = if t_max = 0 then 0 else t * (width - 1) / t_max in
              let y = int_of_float (v /. v_max *. float_of_int (height - 1)) in
              let y = max 0 (min (height - 1) y) in
              grid.(height - 1 - y).(x) <- glyphs.(si mod Array.length glyphs)
            end)
          points)
      series;
    Printf.printf "\n  %s\n" y_label;
    Array.iteri
      (fun row line ->
        let v = v_max *. float_of_int (height - 1 - row) /. float_of_int (height - 1) in
        Printf.printf "  %6.2f |%s|\n" v (String.init width (Array.get line)))
      grid;
    Printf.printf "  %6s +%s+\n" "" (String.make width '-');
    Printf.printf "  %6s 0%*s\n" ""
      (width - 1)
      (Printf.sprintf "%.1fs" (Tpp_util.Time_ns.to_sec_f t_max));
    List.iteri
      (fun si (name, _) ->
        Printf.printf "  %c = %s\n" glyphs.(si mod Array.length glyphs) name)
      series
  end

(* Optional CSV export, enabled with --csv. *)
let csv_dir : string option ref = ref None

let write_csv ~name ~header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc (header ^ "\n");
    List.iter (fun row -> output_string oc (row ^ "\n")) rows;
    close_out oc;
    Printf.printf "  (wrote %s)\n" path

let csv_of_series series =
  Tpp_util.Series.points series |> Array.to_list
  |> List.map (fun (t, v) ->
         Printf.sprintf "%.6f,%.6f" (Tpp_util.Time_ns.to_sec_f t) v)

(* --- BENCH.json ---------------------------------------------------------- *)

(* bench/perf.exe writes BENCH.json: one provenance block, then one gate
   row per line, its own fields ahead of its "runs" and "assertions".
   A first-occurrence key scan of a line is therefore exact and needs
   no JSON dependency. *)

(* Every row carries these. *)
let bench_fields =
  [ "row"; "why"; "workload"; "oracle"; "events"; "delivered"; "registers";
    "faults"; "pool_outstanding"; "boundary_outstanding"; "wall_s";
    "minor_words_per_event"; "promoted_words_per_event"; "metrics"; "runs";
    "assertions" ]

(* Index just past the first ["key":] at or after [from] in [text]. *)
let rec key_end ?(from = 0) text key =
  let needle = Printf.sprintf "\"%s\":" key in
  let nl = String.length needle in
  if from + nl > String.length text then None
  else if String.sub text from nl = needle then Some (from + nl)
  else key_end ~from:(from + 1) text key

let skip_blanks text i =
  let i = ref i in
  while !i < String.length text && (text.[!i] = ' ' || text.[!i] = '\n') do incr i done;
  !i

(* The number following ["key": ], or None. *)
let json_number text key =
  Option.bind (key_end text key) (fun start ->
      let s = skip_blanks text start in
      let e = ref s in
      while
        !e < String.length text
        && match text.[!e] with '0' .. '9' | '-' | '.' | 'e' | '+' -> true | _ -> false
      do incr e done;
      if !e = s then None else float_of_string_opt (String.sub text s (!e - s)))

(* The (escape-free) string value starting at [start]. *)
let string_at text start =
  let s = skip_blanks text start in
  if s >= String.length text || text.[s] <> '"' then None
  else
    Option.map (fun e -> String.sub text (s + 1) (e - s - 1))
      (String.index_from_opt text (s + 1) '"')

let json_string text key = Option.bind (key_end text key) (string_at text)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

type benches = {
  commits : string list;  (* every git_commit in the file: one, if it is whole *)
  rows : (string * string) list;  (* row name, its line *)
}

let benches path =
  let text = read_file path in
  let rec commits from =
    match key_end ~from text "git_commit" with
    | None -> []
    | Some i -> Option.to_list (string_at text i) @ commits i
  in
  let rows =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           Option.map (fun n -> (n, line)) (json_string line "row"))
  in
  { commits = commits 0; rows }

(* The checked-out commit, "-dirty" when the tree has uncommitted edits. *)
let git_commit () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty --abbrev=7 2>/dev/null"
    in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

(* One provenance block, then one gate row (a JSON object rendered by
   bench/gates.ml) per line: the shape [benches] reads. *)
let write_benches ~smoke ~out rows =
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"schema\": \"tpp-gates/1\",\n  \"git_commit\": \"%s\",\n  \"ocaml\": \"%s\",\n  \
     \"cores\": %d,\n  \"smoke\": %b,\n  \"rows\": [\n    %s\n  ]\n}\n"
    (git_commit ()) Sys.ocaml_version (Domain.recommended_domain_count ()) smoke
    (String.concat ",\n    " rows);
  close_out oc

let count_sub text needle =
  let nl = String.length needle in
  let n = ref 0 in
  for i = 0 to String.length text - nl do
    if String.sub text i nl = needle then incr n
  done;
  !n

(* One line per gate row: the sequential run's throughput and exact
   allocation, and how many of its assertions warned or skipped. *)
let print_benches path =
  if not (Sys.file_exists path) then Printf.printf "no %s in the working directory\n" path
  else begin
    let b = benches path in
    sub (Printf.sprintf "gate rows (%s, commit %s)" path (String.concat ", " b.commits));
    Printf.printf "  %-22s %10s %12s %10s %10s %9s %s\n" "row" "events" "events/sec"
      "minor w/ev" "prom w/ev" "wall s" "warned/skipped";
    List.iter
      (fun (name, line) ->
        let cell fmt key =
          match json_number line key with Some v -> Printf.sprintf fmt v | None -> "-"
        in
        Printf.printf "  %-22s %10s %12s %10s %10s %9s %d/%d\n" name (cell "%.0f" "events")
          (cell "%.3e" "events_per_sec") (cell "%.3f" "minor_words_per_event")
          (cell "%.3f" "promoted_words_per_event") (cell "%.3f" "wall_s")
          (count_sub line "\"verdict\": \"WARNING\"")
          (count_sub line "\"verdict\": \"SKIPPED\""))
      b.rows
  end

(* Paper-vs-measured rows collected for the experiment summary. *)
let expectations : (string * string * string * bool) list ref = ref []

let expect ~what ~paper ~measured ok =
  expectations := (what, paper, measured, ok) :: !expectations;
  Printf.printf "  %-42s paper: %-18s measured: %-18s [%s]\n" what paper measured
    (if ok then "ok" else "DIVERGES")

let summary () =
  let all = List.rev !expectations in
  if all = [] then 0
  else begin
    section "SUMMARY" "paper vs measured";
    let ok = List.length (List.filter (fun (_, _, _, ok) -> ok) all) in
    List.iter
      (fun (what, paper, measured, ok) ->
        Printf.printf "  [%s] %-40s paper: %-18s measured: %s\n"
          (if ok then "ok" else "!!") what paper measured)
      all;
    Printf.printf "\n  %d/%d expectations hold\n" ok (List.length all);
    List.length all - ok
  end
