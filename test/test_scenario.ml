(* Scenario specs as tests, and a fuzzer over them.

   [case] runs a named spec through the runner bench/gates.ml's table
   uses (bench/scenario.ml): its sequential run must equal its oracle's
   and every sharded run, every run must conserve frames at every
   horizon, and the spec's assertions must hold. The fuzzer draws specs
   of the same type (topology x traffic x chaos x shard counts x an
   oracle valid for the draw x packets x cut horizons) and checks each
   the same way. A failing draw shrinks, then prints as a [spec] line
   that can be pasted into [Gates.table]. *)

open Scenario

let case spec () =
  match check spec with
  | [] -> ()
  | fails -> Alcotest.failf "%s: %s" spec.name (String.concat "; " fails)

(* The tally of a run's drained horizon. *)
let drained r = List.hd (List.rev r.tallies)

(* What the fuzzer draws from, with the constructors that print them. *)
let traffics =
  [ (Pooled, "Pooled"); (Collect, "Collect"); (Heavy, "Heavy"); (Postcard, "Postcard") ]

let oracles =
  [ (Sequential, "Sequential"); (Queued, "Queued"); (Unpooled, "Unpooled");
    (Round_trip, "Round_trip"); (Interpreter, "Interpreter"); (Host32, "Host32");
    (Bare, "Bare") ]

let chaoses = [ (No_chaos, "No_chaos"); (Empty, "Empty"); (Chaotic, "Chaotic") ]

let show_topo = function
  | Fat_tree k -> Printf.sprintf "(Fat_tree %d)" k
  | Pods k -> Printf.sprintf "(Pods %d)" k
  | Leaf_spine (l, s, h) -> Printf.sprintf "(Leaf_spine (%d, %d, %d))" l s h
  | Dumbbell pairs -> Printf.sprintf "(Dumbbell %d)" pairs
  | Random (s, h, x, seed) -> Printf.sprintf "(Random (%d, %d, %d, %d))" s h x seed
  | Fct_fabric | No_fabric -> invalid_arg "Test_scenario.show_topo: not a fabric"

let ints l = "[ " ^ String.concat "; " (List.map string_of_int l) ^ " ]"

(* The spec as a row of [Gates.table]; optional arguments at their
   defaults are left out. *)
let show s =
  let opt cond arg = if cond then " ~" ^ arg else "" in
  Printf.sprintf "spec %S %s %s ~packets:%d%s%s%s%s%s\n  ~why:%S" s.name (show_topo s.topo)
    (List.assoc s.traffic traffics) s.packets
    (opt (s.chaos <> No_chaos) ("chaos:" ^ List.assoc s.chaos chaoses))
    (opt (s.shards <> []) ("shards:" ^ ints s.shards))
    (opt (s.oracle <> Sequential) ("oracle:" ^ List.assoc s.oracle oracles))
    (opt (s.queue_limit <> None)
       ("queue_limit:" ^ string_of_int (Option.value s.queue_limit ~default:0)))
    (opt (s.horizons <> []) ("horizons:" ^ ints s.horizons))
    s.why

(* Topologies of 10 hosts or more, the chaos schedule's need, smallest
   first so that a failure shrinks towards them. *)
let gen_topo =
  let open QCheck2.Gen in
  oneof
    [ oneofl [ Dumbbell 5; Fat_tree 4; Pods 4; Leaf_spine (3, 2, 4) ];
      (let+ switches = int_range 2 5 and+ hosts = int_range 10 14
       and+ extra = int_range 0 3 and+ seed = int_range 0 10_000 in
       Random (switches, hosts, extra, seed)) ]

(* An oracle is drawn only where it applies: /32 FIBs on pod-addressed
   fabrics, no fault schedule against an empty one. *)
let gen =
  let open QCheck2.Gen in
  let* topo = gen_topo and* chaos = oneofl (List.map fst chaoses) in
  let applies o =
    (o <> Host32 || match topo with Pods _ -> true | _ -> false)
    && (o <> Bare || chaos = Empty)
  in
  let* packets = int_range 1 24 in
  let+ traffic = oneofl (List.map fst traffics)
  and+ shards = oneofl [ []; [ 2 ]; [ 4 ]; [ 2; 4 ] ]
  and+ oracle = oneofl (List.filter applies (List.map fst oracles))
  and+ queue_limit = opt (oneofl [ 2_500; 5_000 ])
  and+ horizons = list_size (int_range 0 2) (int_range 0 ((packets * gap_ns) + 10_000)) in
  spec "fuzz" topo traffic ~chaos ~packets ~shards ~oracle ?queue_limit
    ~horizons:(List.sort_uniq compare horizons)
    ~why:"a fuzz draw: identity with its oracle and under sharding, frames conserved"

let fuzz =
  QCheck2.Test.make ~name:"random specs: oracle, shards and frame conservation" ~count:200
    ~print:show gen (fun s ->
      let fails = check s in
      fails = [] || QCheck2.Test.fail_reportf "%s" (String.concat "\n" fails))

let suite = [ QCheck_alcotest.to_alcotest fuzz ]
