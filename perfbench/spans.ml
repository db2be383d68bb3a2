(* Spans for the traced run, recorded from the benchmark's own code
   around each call into a layer; nothing inside lib/ is instrumented.

   Every span adds to exact per-name accumulators: calls, nanoseconds
   and minor words, in total and as self time (the span minus its child
   spans). Raw spans (id, parent, name, start, stop) are kept in
   preallocated arrays and written out when the run ends. Entering
   and leaving a span allocates nothing, so the words a span records are
   the words its call allocated. *)

let setup = 0
let topology = 1
let schedule = 2
let attach = 3
let run = 4
let slice = 5
let tick = 6
let build = 7
let send = 8
let receive = 9
let absorb = 10
let fabric_rcp_star = 11
let fabric_ndp = 12
let fabric_tcp = 13

let names =
  [| "setup"; "topology.fat_tree"; "traffic.schedule"; "telemetry.attach";
     "run"; "engine.run"; "bench.tick"; "frame.build"; "net.host_send";
     "host.receive"; "telemetry.absorb"; "fabric_run.rcp_star";
     "fabric_run.ndp"; "fabric_run.tcp" |]

let max_depth = 8

(* Raw spans kept: every one at depth 0 and 1, one in [stride] below,
   and at most [capacity] in all. *)
let stride = 64
let capacity = 65_536

type t = {
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  total_words : float array;
  self_words : float array;
  mutable depth : int;
  open_name : int array;  (* the open spans, innermost at [depth - 1] *)
  open_id : int array;
  open_start : int array;
  open_child_ns : int array;
  open_words : float array;
  open_child_words : float array;
  mutable next_id : int;
  mutable kept : int;
  kept_id : int array;
  kept_parent : int array;
  kept_name : int array;
  kept_start : int array;
  kept_stop : int array;
}

let create () =
  let n = Array.length names in
  let ints k = Array.make k 0 and floats k = Array.make k 0.0 in
  { calls = ints n; total_ns = ints n; self_ns = ints n;
    total_words = floats n; self_words = floats n; depth = 0;
    open_name = ints max_depth; open_id = ints max_depth;
    open_start = ints max_depth; open_child_ns = ints max_depth;
    open_words = floats max_depth; open_child_words = floats max_depth;
    next_id = 0; kept = 0;
    kept_id = ints capacity; kept_parent = ints capacity;
    kept_name = ints capacity; kept_start = ints capacity;
    kept_stop = ints capacity }

let enter t name =
  let d = t.depth in
  if d = max_depth then invalid_arg "Spans.enter: spans nested too deep";
  t.depth <- d + 1;
  t.open_name.(d) <- name;
  t.open_id.(d) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.open_child_ns.(d) <- 0;
  t.open_child_words.(d) <- 0.0;
  t.open_words.(d) <- Gc.minor_words ();
  t.open_start.(d) <- Clock.now_ns ()

let leave t =
  let stop = Clock.now_ns () in
  let words = Gc.minor_words () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Spans.leave: no open span";
  t.depth <- d;
  let name = t.open_name.(d) in
  let ns = stop - t.open_start.(d) in
  let w = words -. t.open_words.(d) in
  t.calls.(name) <- t.calls.(name) + 1;
  t.total_ns.(name) <- t.total_ns.(name) + ns;
  t.self_ns.(name) <- t.self_ns.(name) + ns - t.open_child_ns.(d);
  t.total_words.(name) <- t.total_words.(name) +. w;
  t.self_words.(name) <- t.self_words.(name) +. w -. t.open_child_words.(d);
  if d > 0 then begin
    t.open_child_ns.(d - 1) <- t.open_child_ns.(d - 1) + ns;
    t.open_child_words.(d - 1) <- t.open_child_words.(d - 1) +. w
  end;
  let id = t.open_id.(d) in
  if (d <= 1 || id mod stride = 0) && t.kept < Array.length t.kept_id then begin
    let k = t.kept in
    t.kept <- k + 1;
    t.kept_id.(k) <- id;
    t.kept_parent.(k) <- (if d > 0 then t.open_id.(d - 1) else -1);
    t.kept_name.(k) <- name;
    t.kept_start.(k) <- t.open_start.(d);
    t.kept_stop.(k) <- stop
  end

(* For code that runs both traced and untraced. *)
let enter_opt tracer name =
  match tracer with Some t -> enter t name | None -> ()

let leave_opt tracer = match tracer with Some t -> leave t | None -> ()

let total_ns t name = t.total_ns.(name)
let self_ns t name = t.self_ns.(name)
let self_words t name = t.self_words.(name)

let mean_ns t name =
  if t.calls.(name) = 0 then 0.0
  else float_of_int t.total_ns.(name) /. float_of_int t.calls.(name)

let mean_words t name =
  if t.calls.(name) = 0 then 0.0
  else t.total_words.(name) /. float_of_int t.calls.(name)

let write t ~dir ~file =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir file) in
  output_string oc "id\tparent\tname\tstart_ns\tstop_ns\n";
  for k = 0 to t.kept - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" t.kept_id.(k) t.kept_parent.(k)
      names.(t.kept_name.(k)) t.kept_start.(k) t.kept_stop.(k)
  done;
  close_out oc
