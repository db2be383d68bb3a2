(* Telemetry properties: the postcard codec round-trips, sink
   accounting balances under arbitrary emit/drain interleavings, and
   the sketches obey their proven error bounds against exact oracles —
   count-min point queries never underestimate and overestimate by at
   most e/width * total; t-digest quantiles sit within the k1
   cluster-width rank bound of the exact Stats.percentile; merged
   shard sketches match the single-stream sketch (bit-exactly for the
   CMS and the collector fingerprint, rank-close for the digest). *)

open Tpp

let qtest = QCheck_alcotest.to_alcotest

(* ---- wire codec ------------------------------------------------- *)

let wire_roundtrip =
  QCheck.Test.make ~name:"postcard fields round-trip through the card"
    ~count:500
    QCheck.(pair (quad small_nat small_nat small_nat small_nat) int)
    (fun ((a, b, c, d), seed) ->
      let rng = Rng.create ~seed in
      let u32 = 0xFFFF_FFFF in
      let kind = a land 0xFF and in_port = b land 0xFF in
      let out_port = (c * 997) land 0xFFFF in
      let node = Rng.int rng (u32 + 1) in
      let value = Rng.int rng (u32 + 1) in
      let version = Rng.int rng (u32 + 1) in
      let subject = Rng.int rng max_int in
      let time_ns = Rng.int rng max_int in
      let flow_hash = Rng.int rng (u32 + 1) in
      let wire_bytes = d * 977 and entry = (d * 31) + a in
      let buf = Bytes.create Telemetry_wire.bytes_per_card in
      Telemetry_wire.write buf ~off:0 ~kind ~in_port ~out_port ~node ~value
        ~version ~subject ~time_ns ~flow_hash ~wire_bytes ~entry;
      Telemetry_wire.kind buf ~off:0 = kind
      && Telemetry_wire.in_port buf ~off:0 = in_port
      && Telemetry_wire.out_port buf ~off:0 = out_port
      && Telemetry_wire.node buf ~off:0 = node
      && Telemetry_wire.value buf ~off:0 = value
      && Telemetry_wire.version buf ~off:0 = version
      && Telemetry_wire.subject buf ~off:0 = subject
      && Telemetry_wire.time_ns buf ~off:0 = time_ns
      && Telemetry_wire.flow_hash buf ~off:0 = flow_hash
      && Telemetry_wire.wire_bytes buf ~off:0 = min wire_bytes 0xFFFF
      && Telemetry_wire.entry buf ~off:0 = min entry 0xFFFF)

(* ---- sink accounting -------------------------------------------- *)

(* Each op: 0 drains, n > 0 emits n cards into a deliberately tiny
   sink (4 chunks of 8 cards), so overflow cannibalisation is common.
   Whatever the interleaving: every accepted card is drained, still
   pending, or counted dropped — and memory stays at the cap. *)
let sink_accounting =
  QCheck.Test.make ~name:"sink conserves cards and bounds memory"
    ~count:200
    QCheck.(list small_nat)
    (fun ops ->
      let cards_per_chunk = 8 and max_chunks = 4 in
      let sink = Telemetry_sink.create ~cards_per_chunk ~max_chunks () in
      let cap = cards_per_chunk * max_chunks * Telemetry_wire.bytes_per_card in
      let drained = ref 0 in
      let ok = ref true in
      List.iter
        (fun n ->
          if n = 0 then
            Telemetry_sink.drain sink (fun _ ~off:_ -> incr drained)
          else
            for i = 1 to n do
              Telemetry_sink.emit_hop sink ~now:i ~switch_id:1 ~in_port:0
                ~out_port:0 ~queue_bytes:0 ~version:1 ~frame_id:i
                ~flow_hash:0 ~wire_bytes:64 ~entry:0
            done;
          if Telemetry_sink.card_bytes_alive sink > cap then ok := false)
        ops;
      !ok
      && Telemetry_sink.emitted sink
         = !drained + Telemetry_sink.dropped sink + Telemetry_sink.pending sink)

(* Draining a sink whose chunk pool is exhausted reads every pending
   card: flushing the partial chunk must not cannibalise the full one
   the drain is about to read. *)
let test_drain_exhausted_pool () =
  let sink = Telemetry_sink.create ~cards_per_chunk:4 ~max_chunks:2 () in
  for i = 1 to 6 do
    Telemetry_sink.emit_hop sink ~now:i ~switch_id:1 ~in_port:0 ~out_port:0
      ~queue_bytes:0 ~version:1 ~frame_id:i ~flow_hash:0 ~wire_bytes:64 ~entry:0
  done;
  let drained = ref 0 in
  Telemetry_sink.drain sink (fun _ ~off:_ -> incr drained);
  Alcotest.(check int) "drained" 6 !drained;
  Alcotest.(check int) "dropped" 0 (Telemetry_sink.dropped sink);
  Alcotest.(check int) "pending" 0 (Telemetry_sink.pending sink);
  Alcotest.(check int) "chunks" 2 (Telemetry_sink.chunks_alive sink)

(* ---- collector allocation --------------------------------------- *)

let write_hop buf ~off ~switch ~port ~depth ~i =
  Telemetry_wire.write buf ~off ~kind:(Telemetry_wire.kind_code Telemetry_wire.Hop)
    ~in_port:0 ~out_port:port ~node:switch ~value:depth ~version:1 ~subject:i
    ~time_ns:(i * 10) ~flow_hash:(i land 255) ~wire_bytes:1000 ~entry:1

(* A warm collector absorbs hop cards without allocating: the depth
   crosses into the sketches as an int, every link's digest has compressed
   at least once (so its centroid arrays exist), and the domain's merge
   scratch has grown to the largest flush. Each window carries over 832
   cards per link, so digests flush inside the measured absorbs too. *)
let test_absorb_allocates_nothing () =
  let links = 16 and per_link = 2_000 in
  let sink = Telemetry_sink.create () and col = Collector.create () in
  let window () =
    for i = 0 to (links * per_link) - 1 do
      let l = i mod links in
      Telemetry_sink.emit_hop sink ~now:i ~switch_id:(l / 4) ~in_port:0
        ~out_port:(l mod 4) ~queue_bytes:((i * 7919) land 0xFFFF) ~version:1
        ~frame_id:i ~flow_hash:(i land 255) ~wire_bytes:1000 ~entry:1
    done
  in
  window ();
  Collector.absorb col sink;
  let rounds = 4 in
  let words = ref 0.0 in
  for _ = 1 to rounds do
    window ();
    let w0 = Gc.minor_words () in
    Collector.absorb col sink;
    words := !words +. (Gc.minor_words () -. w0)
  done;
  Alcotest.(check int) "every card absorbed" ((rounds + 1) * links * per_link)
    (Collector.hops col);
  Alcotest.(check int) "none dropped" 0 (Telemetry_sink.dropped sink);
  Alcotest.(check (float 0.0)) "minor words across warm absorbs" 0.0 !words

(* A fresh digest holds its sample buffer (833 words at delta 100) and
   little else: no centroid arrays before the first compress, no
   private merge scratch. *)
let test_tdigest_footprint () =
  let words = Obj.reachable_words (Obj.repr (Sketch.Tdigest.create ())) in
  if words > 900 then Alcotest.failf "fresh t-digest holds %d words (> 900)" words

(* ---- count-min vs exact ----------------------------------------- *)

let cms_exact_of stream =
  let cms = Sketch.Cms.create () in
  let exact = Hashtbl.create 128 in
  List.iter
    (fun (key, w) ->
      Sketch.Cms.add cms ~key w;
      Hashtbl.replace exact key
        (w + Option.value ~default:0 (Hashtbl.find_opt exact key)))
    stream;
  (cms, exact)

(* <= 100 distinct keys in a 2048-wide sketch: a key violating the
   e/width * total bound needs heavy collisions in all [depth] rows at
   once, which the analysis caps at e^-depth per query — and the real
   probability here is far smaller, so the bound check is stable. *)
let cms_bounds =
  QCheck.Test.make ~name:"cms: never under, over by <= e/width * total"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 100 2000) (pair small_nat small_nat))
    (fun stream ->
      let cms, exact = cms_exact_of stream in
      let bound =
        int_of_float
          (Float.ceil
             (Sketch.Cms.epsilon cms *. float_of_int (Sketch.Cms.total cms)))
      in
      Hashtbl.fold
        (fun key exact_v ok ->
          let est = Sketch.Cms.estimate cms ~key in
          ok && est >= exact_v && est - exact_v <= bound)
        exact true)

let cms_merge_identity =
  QCheck.Test.make ~name:"cms: merged shards bit-identical to one stream"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 100 2000) (pair small_nat small_nat))
    (fun stream ->
      let single = Sketch.Cms.create () in
      let shards = Array.init 4 (fun _ -> Sketch.Cms.create ()) in
      List.iteri
        (fun i (key, w) ->
          Sketch.Cms.add single ~key w;
          Sketch.Cms.add shards.((i * 7) land 3) ~key w)
        stream;
      let merged = Sketch.Cms.create () in
      Array.iter (fun s -> Sketch.Cms.merge ~into:merged s) shards;
      Sketch.Cms.equal single merged
      && Sketch.Cms.fingerprint single = Sketch.Cms.fingerprint merged)

(* ---- t-digest vs exact percentiles ------------------------------ *)

let td_delta = 100.0

(* k1 cluster width in rank space at q, plus the oracle's own 1/n
   discretisation — the digest's answer may not sit further from q
   than one cluster. *)
let td_bound ~n q =
  (2.0 *. Float.pi /. td_delta *. sqrt (q *. (1.0 -. q)))
  +. (1.0 /. float_of_int n)

let td_values ints = List.map (fun v -> float_of_int v /. 7.0) ints

let td_within_bound ~slack digest st n q =
  let est = Sketch.Tdigest.quantile digest q in
  let b = slack *. td_bound ~n q in
  let lo = Stats.percentile st (100.0 *. Float.max 0.0 (q -. b)) in
  let hi = Stats.percentile st (100.0 *. Float.min 1.0 (q +. b)) in
  lo -. 1e-9 <= est && est <= hi +. 1e-9

let td_quantiles = [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]

let tdigest_rank =
  QCheck.Test.make
    ~name:"t-digest: quantiles within the k1 rank bound of Stats.percentile"
    ~count:30
    QCheck.(list_of_size Gen.(int_range 50 3000) (int_bound 1_000_000))
    (fun ints ->
      let vals = td_values ints in
      let n = List.length vals in
      let digest = Sketch.Tdigest.create ~delta:td_delta () in
      let st = Stats.create () in
      List.iter
        (fun v ->
          Sketch.Tdigest.add digest v;
          Stats.add st v)
        vals;
      Sketch.Tdigest.centroids digest <= int_of_float (2.0 *. td_delta) + 8
      && List.for_all (td_within_bound ~slack:1.0 digest st n) td_quantiles)

(* Merging compresses each centroid set once more, so allow the bound
   to double — still constant, still checked against the exact
   oracle over the concatenated stream. *)
let tdigest_merge_rank =
  QCheck.Test.make
    ~name:"t-digest: merged shards rank-close to the exact oracle"
    ~count:30
    QCheck.(list_of_size Gen.(int_range 50 3000) (int_bound 1_000_000))
    (fun ints ->
      let vals = td_values ints in
      let n = List.length vals in
      let shards = Array.init 4 (fun _ -> Sketch.Tdigest.create ~delta:td_delta ()) in
      let st = Stats.create () in
      List.iteri
        (fun i v ->
          Sketch.Tdigest.add shards.(i land 3) v;
          Stats.add st v)
        vals;
      let merged = Sketch.Tdigest.create ~delta:td_delta () in
      Array.iter (fun s -> Sketch.Tdigest.merge ~into:merged s) shards;
      Sketch.Tdigest.count merged = n
      && List.for_all (td_within_bound ~slack:2.0 merged st n) td_quantiles)

(* ---- per-domain digest scratch ---------------------------------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let probe_qs = [ 0.0; 0.01; 0.25; 0.5; 0.75; 0.99; 1.0 ]

(* Many links' digests share one domain's merge scratch, flushing at
   different times. Each link must answer bit for bit what a standalone
   digest and EWMA answer when fed the same depths in order, one link
   at a time, in a fresh domain whose scratch no other digest has
   touched. A small delta (a 112-sample buffer) makes flushes frequent;
   [None] ops query one link mid-stream on both sides. *)
let collector_links_standalone =
  QCheck.Test.make ~name:"collector: per-link sketches equal standalone ones"
    ~count:40
    QCheck.(
      list_of_size Gen.(int_range 200 3000)
        (pair (int_bound 11) (option (int_bound 100_000))))
    (fun ops ->
      let delta = 10.0 and links = 12 in
      let answers ewma quantile = ewma :: List.map quantile probe_qs in
      (* per link, the answers at each query and at the end, newest first *)
      let collector_side () =
        let col = Collector.create ~digest_delta:delta () in
        let buf = Bytes.create Telemetry_wire.bytes_per_card in
        let seen = Array.make links [] in
        let query l =
          let switch = l / 3 and port = l mod 3 in
          seen.(l) <-
            answers
              (Collector.link_depth_ewma col ~switch ~port)
              (fun q -> Collector.link_depth_quantile col ~switch ~port ~q)
            :: seen.(l)
        in
        List.iteri
          (fun i (l, op) ->
            match op with
            | Some depth ->
              write_hop buf ~off:0 ~switch:(l / 3) ~port:(l mod 3) ~depth ~i;
              Collector.absorb_card col buf ~off:0
            | None -> query l)
          ops;
        for l = 0 to links - 1 do
          query l
        done;
        seen
      in
      let standalone_side () =
        Array.init links (fun l ->
            let td = Sketch.Tdigest.create ~delta () and ewma = Sketch.Ewma.create () in
            let query seen =
              answers (Sketch.Ewma.value ewma) (Sketch.Tdigest.quantile td) :: seen
            in
            List.fold_left
              (fun seen (l', op) ->
                if l' <> l then seen
                else
                  match op with
                  | Some depth ->
                    Sketch.Tdigest.add td (float_of_int depth);
                    Sketch.Ewma.observe ewma (float_of_int depth);
                    seen
                  | None -> query seen)
              [] ops
            |> query)
      in
      let expected = Domain.join (Domain.spawn standalone_side) in
      Array.for_all2 (List.equal (List.equal same_float)) (collector_side ()) expected)

(* Digests of two different deltas need different scratch sizes. Fed
   interleaved on one domain, each answers exactly as it does alone in
   a fresh domain, whose scratch has never grown. *)
let tdigest_mixed_delta =
  QCheck.Test.make ~name:"t-digest: mixed deltas on one domain answer as alone"
    ~count:30
    QCheck.(list_of_size Gen.(int_range 100 4000) (pair bool (int_bound 1_000_000)))
    (fun ops ->
      let deltas = [| 10.0; 150.0 |] in
      let answers td = List.map (Sketch.Tdigest.quantile td) probe_qs in
      let alone side =
        Domain.join
          (Domain.spawn (fun () ->
               let td = Sketch.Tdigest.create ~delta:deltas.(side) () in
               List.iter
                 (fun (b, v) ->
                   if Bool.to_int b = side then Sketch.Tdigest.add td (float_of_int v))
                 ops;
               answers td))
      in
      let tds = Array.map (fun delta -> Sketch.Tdigest.create ~delta ()) deltas in
      List.iter
        (fun (b, v) -> Sketch.Tdigest.add tds.(Bool.to_int b) (float_of_int v))
        ops;
      List.for_all2 same_float (answers tds.(0)) (alone 0)
      && List.for_all2 same_float (answers tds.(1)) (alone 1))

(* ---- collector merge identity ----------------------------------- *)

(* Random card streams split across four shard collectors must merge
   to the same order-independent fingerprint (and the same totals) as
   one collector absorbing everything. *)
let collector_merge =
  QCheck.Test.make ~name:"collector: merged shards fingerprint the stream"
    ~count:50
    QCheck.(list (pair (pair small_nat small_nat) (pair small_nat small_nat)))
    (fun cards ->
      let buf = Bytes.create Telemetry_wire.bytes_per_card in
      let single = Collector.create () in
      let shards = Array.init 4 (fun _ -> Collector.create ()) in
      List.iteri
        (fun i ((a, node), (c, d)) ->
          Telemetry_wire.write buf ~off:0 ~kind:(a land 3) ~in_port:0
            ~out_port:(c land 7) ~node ~value:(d * 13)
            ~version:1 ~subject:i ~time_ns:(i * 10)
            ~flow_hash:((node * 131) + c)
            ~wire_bytes:(64 + d) ~entry:0;
          Collector.absorb_card single buf ~off:0;
          Collector.absorb_card shards.((i * 5) land 3) buf ~off:0)
        cards;
      let merged = Collector.create () in
      Array.iter (fun c -> Collector.merge ~into:merged c) shards;
      Collector.fingerprint merged = Collector.fingerprint single
      && Collector.cards merged = Collector.cards single
      && Collector.hops merged = Collector.hops single
      && Collector.fault_events merged = Collector.fault_events single
      && Collector.links merged = Collector.links single)

let suite =
  [
    qtest wire_roundtrip;
    qtest sink_accounting;
    Alcotest.test_case "sink drain reads every card of an exhausted pool" `Quick
      test_drain_exhausted_pool;
    Alcotest.test_case "warm collector absorb allocates nothing" `Quick
      test_absorb_allocates_nothing;
    Alcotest.test_case "fresh t-digest holds <= 900 words" `Quick
      test_tdigest_footprint;
    qtest cms_bounds;
    qtest cms_merge_identity;
    qtest tdigest_rank;
    qtest tdigest_merge_rank;
    qtest collector_merge;
    qtest collector_links_standalone;
    qtest tdigest_mixed_delta;
  ]
