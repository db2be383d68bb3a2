(* Scenario specs as tests, and a fuzzer over them.

   [case] runs a named spec through the runner bench/gates.ml's table
   uses (bench/scenario.ml): its sequential run must equal its oracle's
   and every sharded run, every run must conserve frames at every
   horizon, and the spec's assertions must hold. The fuzzer draws specs
   of the same type (topology x traffic x chaos x shard counts x an
   oracle valid for the draw x packets x cut horizons), one draw in ten
   a flow set instead (transport x fabric x duration x load x chaos x
   shard counts), and checks each the same way. A failing draw shrinks,
   then prints as a [spec] line that can be pasted into
   [Gates.table]. *)

open Tpp
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
  | No_fabric -> "No_fabric"

let ints l = "[ " ^ String.concat "; " (List.map string_of_int l) ^ " ]"

let transports =
  [ (Fct.Rcp_star_t, "Rcp_star_t"); (Fct.Tcp_t, "Tcp_t"); (Fct.Dctcp_t, "Dctcp_t");
    (Fct.Ndp_t, "Ndp_t"); (Fct.Tpp_lb_t, "Tpp_lb_t"); (Fct.Aimd_t, "Aimd_t") ]

(* Flow sets change one of Fct's defaults in load and duration only, up
   to the longest duration drawn on it. *)
let flow_bases =
  [ ("dumbbell_default", Fct.dumbbell_default, Time_ns.sec 3);
    ("fabric_default", Fct.fabric_default, Time_ns.ms 30) ]

let show_traffic = function
  | Flows (t, p) ->
    let base, _, _ = List.find (fun (_, b, _) -> b.Fct.f_topo = p.Fct.f_topo) flow_bases in
    Printf.sprintf "(Flows (Fct.%s, { Fct.%s with Fct.f_load = %.2f; f_duration = %d }))"
      (List.assoc t transports) base p.Fct.f_load p.Fct.f_duration
  | t -> List.assoc t traffics

(* The spec as a row of [Gates.table]; optional arguments at their
   defaults are left out. *)
let show s =
  let opt cond arg = if cond then " ~" ^ arg else "" in
  Printf.sprintf "spec %S %s %s%s%s%s%s%s%s\n  ~why:%S" s.name (show_topo s.topo)
    (show_traffic s.traffic)
    (opt (s.packets <> 0) ("packets:" ^ string_of_int s.packets))
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

(* A flow set on one of [flow_bases], at a tenth to all of its longest
   duration; chaos is 1% loss on every access link. *)
let gen_flows =
  let open QCheck2.Gen in
  let+ transport = oneofl (List.map fst transports)
  and+ _, base, longest = oneofl flow_bases
  and+ tenths = int_range 1 10
  and+ load = int_range 10 90
  and+ chaos = oneofl [ No_chaos; Chaotic ]
  and+ shards = oneofl [ []; [ 2 ] ] in
  let p =
    { base with
      Fct.f_load = float_of_int load /. 100.0;
      f_duration = longest / 10 * tenths }
  in
  spec "fuzz" No_fabric (Flows (transport, p)) ~chaos ~shards
    ~why:"a fuzz draw: a flow set runs identically under sharding"

let fuzz =
  QCheck2.Test.make ~name:"random specs: oracle, shards and frame conservation" ~count:200
    ~print:show
    QCheck2.Gen.(frequency [ (9, gen); (1, gen_flows) ])
    (fun s ->
      let fails = check s in
      fails = [] || QCheck2.Test.fail_reportf "%s" (String.concat "\n" fails))

let suite = [ QCheck_alcotest.to_alcotest fuzz ]
