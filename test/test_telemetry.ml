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

(* A byte-at-a-time reference codec: the layout of wire.mli spelled out
   one byte store and load per byte, each field masked or saturated as
   the layout says. [Telemetry_wire] must write the same bytes and read
   the same values at any offset. A u64 field stores the 63-bit int, so
   its top byte is the int's bits 56..62 and a load drops bit 63. *)
module Ref_wire = struct
  let set buf off ~bytes v =
    for i = 0 to bytes - 1 do
      Bytes.set buf (off + i) (Char.chr ((v lsr (8 * (bytes - 1 - i))) land 0xFF))
    done

  let get buf off ~bytes =
    let v = ref 0 in
    for i = 0 to bytes - 1 do
      v := (!v lsl 8) lor Char.code (Bytes.get buf (off + i))
    done;
    !v

  (* (offset, width) of each field, in [fields] order *)
  let layout = [ (0, 1); (1, 1); (2, 2); (4, 4); (8, 4); (12, 4); (16, 8); (24, 8); (32, 4); (36, 2); (38, 2) ]

  (* [fields]: kind, in_port, out_port, node, value, version, subject,
     time_ns, flow_hash, wire_bytes, entry *)
  let write buf ~off fields =
    List.iteri
      (fun i (at, bytes) ->
        let v = fields.(i) in
        let v = if i >= 9 then min v 0xFFFF else v in
        set buf (off + at) ~bytes v)
      layout

  let read buf ~off = List.map (fun (at, bytes) -> get buf (off + at) ~bytes) layout
end

let wire_write buf ~off f =
  Telemetry_wire.write buf ~off ~kind:f.(0) ~in_port:f.(1) ~out_port:f.(2) ~node:f.(3)
    ~value:f.(4) ~version:f.(5) ~subject:f.(6) ~time_ns:f.(7) ~flow_hash:f.(8)
    ~wire_bytes:f.(9) ~entry:f.(10)

let wire_read buf ~off =
  Telemetry_wire.
    [ kind buf ~off; in_port buf ~off; out_port buf ~off; node buf ~off; value buf ~off;
      version buf ~off; subject buf ~off; time_ns buf ~off; flow_hash buf ~off;
      wire_bytes buf ~off; entry buf ~off ]

let chunk_cards = 16

(* Field values across every width: negatives, values at and past 2^16
   and 2^32, the int extremes. *)
let field_gen =
  QCheck.Gen.(
    frequency
      [ (3, int);
        (2, int_range (-70_000) 70_000);
        (2, map (fun x -> x + (1 lsl 32)) (int_bound 0xFFFF_FFFF));
        (1, map (fun x -> -x) (int_bound max_int));
        (1, oneofl [ 0; -1; max_int; min_int; 0xFFFF; 0x1_0000; 0xFFFF_FFFF; 1 lsl 32; 1 lsl 62 ]) ])

(* A chunk of random bytes, a card offset anywhere in it (aligned to a
   card slot or not), and the eleven fields. *)
let codec_case =
  let chunk = chunk_cards * Telemetry_wire.bytes_per_card in
  QCheck.make
    ~print:(fun (seed, off, f) ->
      Printf.sprintf "seed=%d off=%d fields=[%s]" seed off
        (String.concat "; " (Array.to_list (Array.map string_of_int f))))
    QCheck.Gen.(
      triple int
        (oneof
           [ map (fun i -> i * Telemetry_wire.bytes_per_card) (int_bound (chunk_cards - 1));
             int_bound (chunk - Telemetry_wire.bytes_per_card) ])
        (array_repeat 11 field_gen))

let wire_matches_reference =
  QCheck.Test.make ~name:"wire: write and getters equal the byte-at-a-time codec"
    ~count:1000 codec_case (fun (seed, off, fields) ->
      let rng = Rng.create ~seed in
      let chunk = Bytes.init (chunk_cards * Telemetry_wire.bytes_per_card) (fun _ ->
          Char.chr (Rng.int rng 256)) in
      (* getters over arbitrary bytes, bit 63 of a u64 field included *)
      let same_reads = wire_read chunk ~off = Ref_wire.read chunk ~off in
      let expected = Bytes.copy chunk in
      Ref_wire.write expected ~off fields;
      wire_write chunk ~off fields;
      same_reads && Bytes.equal chunk expected
      && wire_read chunk ~off = Ref_wire.read expected ~off)

(* One card's bytes, recorded from the byte-at-a-time codec: fields
   past their widths (kind 0x103, in_port 0x1A5, out_port 0x12345,
   value 0x123456789, flow_hash 0x789ABCDEF, wire_bytes 70000),
   negatives (node -7, subject -2, entry -5) and time max_int. *)
let golden_card_hex =
  "03a52345fffffff923456789deadbeef7ffffffffffffffe3fffffffffffffff89abcdeffffffffb"

let test_wire_golden_card () =
  let buf = Bytes.make Telemetry_wire.bytes_per_card '\xAA' in
  wire_write buf ~off:0
    [| 0x103; 0x1A5; 0x1_2345; -7; 0x1_2345_6789; 0xDEAD_BEEF; -2; max_int; 0x7_89AB_CDEF;
       70_000; -5 |];
  let hex =
    String.concat ""
      (List.init (Bytes.length buf) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get buf i))))
  in
  Alcotest.(check string) "card bytes" golden_card_hex hex;
  Alcotest.(check (list int)) "fields read back"
    [ 3; 0xA5; 0x2345; 0xFFFF_FFF9; 0x2345_6789; 0xDEAD_BEEF; -2; max_int; 0x89AB_CDEF;
      0xFFFF; 0xFFFB ]
    (wire_read buf ~off:0)

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

(* A fresh digest holds no arrays: no sample buffer before its first
   sample, no centroid arrays before its first compress, no private
   merge scratch. *)
let words d = Obj.reachable_words (Obj.repr d)

let test_tdigest_footprint () =
  let fresh = words (Sketch.Tdigest.create ()) in
  if fresh > 16 then Alcotest.failf "fresh t-digest holds %d words (> 16)" fresh

(* The first sample brings the half-size buffer (2 cap slots, 416 at
   delta 100) and nothing else. *)
let test_tdigest_first_sample () =
  let d = Sketch.Tdigest.create () in
  Sketch.Tdigest.add d 1.0;
  let limit = (2 * ((2 * 100) + 8)) + 32 and held = words d in
  if held > limit then
    Alcotest.failf "t-digest holds %d words after one sample (> %d)" held limit

(* ---- t-digest golden quantiles ---------------------------------- *)

(* Quantile answers pinned bit for bit (Int64.bits_of_float, in hex).
   What a digest answers depends on exactly which samples each compress
   sees, so a change that moves a flush point moves some of these bits
   even where the rank-bound properties still hold. Per delta: a seeded
   stream queried twice mid-stream and at its end, a 4-way merge into
   a digest still holding buffered samples, and integer streams one
   short of, at and one past the buffer's growth (2 cap) and flush
   (4 cap) points. *)
let golden_qs = [ 0.01; 0.25; 0.5; 0.9; 0.999 ]

let golden_quantiles () =
  let out = ref [] in
  let ask td = List.iter (fun q -> out := Sketch.Tdigest.quantile td q :: !out) golden_qs in
  List.iter
    (fun delta ->
      let rng = Rng.create ~seed:(int_of_float (delta *. 10.0)) in
      let td = Sketch.Tdigest.create ~delta () in
      let shards = Array.init 4 (fun _ -> Sketch.Tdigest.create ~delta ()) in
      for i = 1 to 6000 do
        let v = Rng.exponential rng ~mean:250.0 in
        Sketch.Tdigest.add td v;
        Sketch.Tdigest.add shards.(i land 3) v;
        if i = 1234 || i = 3000 then ask td
      done;
      ask td;
      let merged = Sketch.Tdigest.create ~delta () in
      for i = 1 to 100 do
        Sketch.Tdigest.add merged (float_of_int i)
      done;
      Array.iter (fun s -> Sketch.Tdigest.merge ~into:merged s) shards;
      ask merged;
      let cap = int_of_float (2.0 *. delta) + 8 in
      List.iter
        (fun n ->
          let rng = Rng.create ~seed:n and td = Sketch.Tdigest.create ~delta () in
          for _ = 1 to n do
            Sketch.Tdigest.add_int td (Rng.int rng 100_000)
          done;
          ask td)
        [ (2 * cap) - 1; 2 * cap; (2 * cap) + 1; (4 * cap) - 1; 4 * cap; (4 * cap) + 1 ])
    [ 10.0; 37.5; 100.0; 300.0 ];
  List.rev_map (fun x -> Printf.sprintf "%Lx" (Int64.bits_of_float x)) !out

let golden_hex =
  [
    "402af5f6e7131915"; "40541a22af507675"; "40666243af0e7ca4"; "408286d23fbbe2fa";
    "408eaf70ae19c50a"; "40294b951b69977a"; "40534515b9a2087f"; "40668c5ce009f796";
    "40852af3a927cfea"; "409404c5ddb06115"; "4029225084ee6dd6"; "4052df2c4e8be672";
    "40661e631c2f6e7b"; "408533ba90e5c530"; "409d4f86f81706b3"; "402961154ec42ba7";
    "40554e89dcdbe4ba"; "406771d4948fcefc"; "40824e2b9dbf4114"; "408c136dc17bb1a0";
    "40ba673333333333"; "40dbf3a2ff522a1a"; "40ea8da207507507"; "40f5ff1609c09c0a";
    "40f7f77000000000"; "40a7e13333333333"; "40d2c4d1b6a2f1b7"; "40e6c8f460522a0d";
    "40f5f2181767dce4"; "40f7e69000000000"; "40b1be999999999a"; "40d2539d4d4d4d4d";
    "40e64b4e9a9a9a9a"; "40f4e769c335ccf7"; "40f787c000000000"; "40b2616666666666";
    "40d56c60f6352893"; "40e7d7d74fbc4520"; "40f58a4b7ec38f23"; "40f854e000000000";
    "40b645b333333334"; "40d8725ef1a78324"; "40e805bea23f2660"; "40f5da07eeeeeeef";
    "40f830c000000000"; "40b54cb333333333"; "40d98db5e33c4c9f"; "40e9e7b5c027903a";
    "40f4995c9fabf1b5"; "40f7f91000000000"; "4009f87b731527db"; "4052e34fbac795b1";
    "4066f98a86804c90"; "4082460ba8d88b8f"; "40a4dee65ba558f3"; "40041903a4a082ff";
    "40523688fb0be122"; "40665759fe80ea7c"; "40826a48c81f6c31"; "40974ee206d51710";
    "40064e195b697214"; "405242a059b8c3b9"; "4065a95415ef2568"; "4081e3aa715bc404";
    "409835a230c99f2a"; "400534179ea509b8"; "4051cd4501eb61d8"; "40655b49790afe8e";
    "4081f614f1fc46f5"; "409b4c8b8a9fc4e0"; "4093254ccccccccd"; "40d85d7ec44ce6b4";
    "40e81f83380c1e4c"; "40f60b2b00000000"; "40f84e1000000000"; "408e0d3a06d3a06d";
    "40d993a7ed1cab58"; "40ea1b5276276276"; "40f67c8741d41d42"; "40f869d000000000";
    "408c33e147ae147a"; "40d68569f1d25058"; "40e7209d28e63f9f"; "40f68e53e04e04e1";
    "40f8506000000000"; "409d8131eb851eb8"; "40db853f1700bdf5"; "40e77930fcd6e9e0";
    "40f580de9c9a4aff"; "40f866d000000000"; "408db5f258bf258c"; "40d9af4aaaaaaaaa";
    "40e98b3e38e38e39"; "40f5665511dcbcc9"; "40f851f000000000"; "408be3947ae147ae";
    "40d71419d0369d03"; "40e881452e00b3cc"; "40f5e09328baa139"; "40f8645000000000";
    "4007857543e82be8"; "4050822fe6d7571a"; "4065106b1eb45f69"; "408127ed14bb3198";
    "409825f46f7abc8c"; "4009da64ceea52b6"; "4051e59257e84c32"; "40657902713baae5";
    "4081cf9f32732c43"; "409d34d4b57085ad"; "40096562b4e8e080"; "405248239719a0b7";
    "4065877af8313b0c"; "408202e6fa9698f8"; "409bcdaeb1876882"; "4008d235a407450a";
    "40517463d4ef5ca0"; "4064fa199f4c51d7"; "4081e2dc4bd0252f"; "409d2ec9974cc797";
    "408135199999999a"; "40dc1019637021da"; "40e991fb13b13b14"; "40f66deccccccccd";
    "40f867f000000000"; "40829fc28f5c28f6"; "40d8b35de2615284"; "40e7ecf8fe7c3688";
    "40f5cfa222222223"; "40f85c6000000000"; "409594bd70a3d70a"; "40d8934419637022";
    "40e77e0122d719c0"; "40f5e2efe0cad97a"; "40f8634000000000"; "408c3632dbd19424";
    "40d7aba4a1167697"; "40e87236ef5657dd"; "40f60ebf956a7958"; "40f85971c28f5c29";
    "40892fc6a7ef9db2"; "40d89cd4bfab180a"; "40e817013b13b13c"; "40f61cdfdbc64dbd";
    "40f86046872b020c"; "4095324c1e098eae"; "40d9a2f3b45ba6dc"; "40e99742f5657dba";
    "40f663bfe6acde6b"; "40f860a1eb851eb8"; "3ffd3f89e7a12b15"; "4051ca8086d49b84";
    "4065aae7999e6d95"; "4081556b7ab9f2b6"; "409bbe10d72ad510"; "3fffcf8174deca53";
    "405192cc7af216a4"; "4064f1ecc3fd2ac2"; "408172ef6d201a1e"; "409a6135d8d506ee";
    "4002421290657617"; "4051b20dd0e50e24"; "40652280ea33f9cf"; "4081ecd2ae25614a";
    "409d1c0065ddc5f8"; "400213b408adb5f1"; "40511b83084c6aac"; "4064abac65a0a43e";
    "4081cd823389ba2c"; "409d00976d39f389"; "4089d7cccccccccd"; "40d785bd9ead7cd2";
    "40e7c905aaaaaaab"; "40f5d2ffac687d63"; "40f86606b851eb85"; "4097d2f5c28f5c29";
    "40d881aa50658dc0"; "40e8e779c71c71c8"; "40f62ddf8af8af8c"; "40f85aaec8b4395a";
    "4095153333333333"; "40d5dcda94196370"; "40e78823c71c71c7"; "40f5d38ad73fbd20";
    "40f866373b645a1c"; "40863b123456789c"; "40d7d588da589b41"; "40e8848bedfa43ff";
    "40f5bfeb97530eca"; "40f862f8dd2f1aa0"; "408a3de181ef2930"; "40d8a8a4f04defc3";
    "40e81eece703afb8"; "40f5bacbc4d5e6f8"; "40f8672f3b645a1d"; "408e584395810626";
    "40d7bfe77eb9689d"; "40e7cf2dab9f559c"; "40f5ca4ca11bfd46"; "40f84d61c28f5c29";
  ]

let test_tdigest_golden () =
  Alcotest.(check (list string)) "quantile bits" golden_hex (golden_quantiles ())

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

(* ---- collector vs an assoc-list model ---------------------------- *)

(* The model keeps what the collector answers in association lists and
   recomputes the fingerprint from them: per node its hop cards, per
   (node, port) link its hops, bytes and faults, plus the scalar
   counters and a CMS fed the same (flow hash, bytes) pairs. *)
type model = {
  mutable m_cards : int;
  mutable m_hops : int;
  mutable m_retries : int;
  mutable m_failures : int;
  mutable m_faults : int;
  mutable m_switch : (int * int) list;
  mutable m_links : ((int * int) * (int * int * int)) list;
  m_cms : Sketch.Cms.t;
}

type card = { c_kind : int; c_node : int; c_port : int; c_bytes : int; c_flow : int }

let model_create () =
  { m_cards = 0; m_hops = 0; m_retries = 0; m_failures = 0; m_faults = 0; m_switch = [];
    m_links = []; m_cms = Sketch.Cms.create () }

let bump key f zero l =
  (key, f (Option.value ~default:zero (List.assoc_opt key l))) :: List.remove_assoc key l

let model_absorb m c =
  m.m_cards <- m.m_cards + 1;
  let link = (c.c_node, c.c_port) in
  match c.c_kind with
  | 0 ->
    m.m_hops <- m.m_hops + 1;
    m.m_switch <- bump c.c_node succ 0 m.m_switch;
    Sketch.Cms.add m.m_cms ~key:c.c_flow c.c_bytes;
    m.m_links <- bump link (fun (h, b, f) -> (h + 1, b + c.c_bytes, f)) (0, 0, 0) m.m_links
  | 1 -> m.m_retries <- m.m_retries + 1
  | 2 -> m.m_failures <- m.m_failures + 1
  | _ ->
    m.m_faults <- m.m_faults + 1;
    m.m_links <- bump link (fun (h, b, f) -> (h, b, f + 1)) (0, 0, 0) m.m_links

let model_links m = List.sort compare (List.map fst m.m_links)

let model_hottest m ~exclude =
  List.filter (fun (l, _) -> not (List.mem l exclude)) m.m_links
  |> List.map (fun ((sw, port), (_, b, _)) -> (-b, sw, port))
  |> List.sort compare
  |> function
  | [] -> None
  | (nb, sw, port) :: _ -> Some (sw, port, -nb)

let model_fingerprint m =
  let mix = Sketch.mix in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let sw = sum (fun (id, n) -> mix ((id * 0x1000003) lxor n)) m.m_switch in
  let li =
    sum
      (fun ((node, port), (h, b, f)) ->
        mix (((node * 65536) + port) lxor mix (h lxor mix (b lxor f))))
      m.m_links
  in
  let h = mix (m.m_cards lxor mix (m.m_hops lxor mix sw)) in
  let h = mix (h lxor mix li) in
  let h = mix (h lxor mix (m.m_retries lxor mix (m.m_failures lxor m.m_faults))) in
  mix (h lxor Sketch.Cms.fingerprint m.m_cms)

let card_write buf c =
  Telemetry_wire.write buf ~off:0 ~kind:c.c_kind ~in_port:0 ~out_port:c.c_port ~node:c.c_node
    ~value:(c.c_bytes * 3) ~version:1 ~subject:0 ~time_ns:0 ~flow_hash:c.c_flow
    ~wire_bytes:c.c_bytes ~entry:0

(* Every answer the collector gives, next to the model's. [probe]
   picks the exclusion set for [hottest_link] (by bit over the model's
   links, plus an unseen link) and adds unseen nodes and links to ask
   about. *)
let agrees col m ~probe =
  let links = model_links m in
  let exclude =
    (1 lsl 20, 0) :: List.filteri (fun i _ -> (probe lsr (i land 31)) land 1 = 1) links
  in
  let unseen_nodes = [ probe land 0xFFFFF; 1 lsl 20; -1 ] in
  let unseen_links = List.map (fun n -> (n, probe land 0xFFFF)) unseen_nodes @ [ (0, 65_536) ] in
  let per_link (sw, port) =
    let h, b, f =
      Option.value ~default:(0, 0, 0) (List.assoc_opt (sw, port) m.m_links)
    in
    Collector.link_hops col ~switch:sw ~port = h
    && Collector.link_bytes col ~switch:sw ~port = b
    && Collector.link_faults col ~switch:sw ~port = f
  in
  let switch_hops id =
    Collector.switch_hops col ~switch:id
    = Option.value ~default:0 (List.assoc_opt id m.m_switch)
  in
  Collector.links col = links
  && List.for_all per_link (links @ unseen_links)
  && List.for_all switch_hops (List.map fst m.m_switch @ unseen_nodes)
  && Collector.hottest_link col () = model_hottest m ~exclude:[]
  && Collector.hottest_link col ~exclude () = model_hottest m ~exclude
  && Collector.cards col = m.m_cards
  && Collector.hops col = m.m_hops
  && Collector.probe_retries col = m.m_retries
  && Collector.probe_failures col = m.m_failures
  && Collector.fault_events col = m.m_faults
  && Collector.fingerprint col = model_fingerprint m

(* Ops: [`Card (side, card)] absorbs a card into the whole-stream
   collector and into shard [side]; [`Query probe] compares the
   whole-stream collector with the model so far. At the end shard 1 is
   merged into shard 0, which must then agree with the model too. Few
   nodes and ports per stream (drawn across the whole id ranges) and
   three frame sizes make shared links and byte ties common. A node id
   near 2^20 makes each collector's tables about 2^21 words, so the
   case count is kept small. *)
let collector_case =
  let open QCheck.Gen in
  let stream =
    let* nodes = array_size (int_range 1 5) (oneof [ int_bound ((1 lsl 20) - 1); oneofl [ 0; (1 lsl 20) - 1 ] ]) in
    let* ports = array_size (int_range 1 4) (oneof [ int_bound 65_535; oneofl [ 0; 65_535 ] ]) in
    let card =
      map
        (fun (((kind, ni), (pi, bytes)), flow) ->
          { c_kind = kind; c_node = nodes.(ni mod Array.length nodes);
            c_port = ports.(pi mod Array.length ports); c_bytes = bytes; c_flow = flow })
        (pair
           (pair
              (pair (frequency [ (6, return 0); (1, return 1); (1, return 2); (2, return 3) ]) nat)
              (pair nat (oneofl [ 64; 128; 1500 ])))
           (int_bound 4095))
    in
    list_size (int_range 1 300)
      (frequency [ (20, map2 (fun side c -> `Card (side, c)) (int_bound 1) card);
                   (1, map (fun p -> `Query p) int) ])
  in
  QCheck.make stream
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | `Card (side, c) ->
               Printf.sprintf "%d:k%d n%d p%d b%d f%d" side c.c_kind c.c_node c.c_port c.c_bytes
                 c.c_flow
             | `Query p -> Printf.sprintf "?%d" p)
           ops))

let collector_model =
  QCheck.Test.make ~name:"collector: answers equal an assoc-list model, merged split too"
    ~count:40 collector_case (fun ops ->
      let buf = Bytes.create Telemetry_wire.bytes_per_card in
      let whole = Collector.create () and m = model_create () in
      let shards = [| Collector.create (); Collector.create () |] in
      let ok =
        List.for_all
          (function
            | `Card (side, c) ->
              card_write buf c;
              Collector.absorb_card whole buf ~off:0;
              Collector.absorb_card shards.(side) buf ~off:0;
              model_absorb m c;
              true
            | `Query probe -> agrees whole m ~probe)
          ops
      in
      Collector.merge ~into:shards.(0) shards.(1);
      ok && agrees whole m ~probe:0x5A5A && agrees shards.(0) m ~probe:0x5A5A)

(* A hop or fault card naming node 2^20 is refused, naming the id,
   before anything is counted. *)
let test_collector_node_bound () =
  let col = Collector.create () and buf = Bytes.create Telemetry_wire.bytes_per_card in
  List.iter
    (fun kind ->
      card_write buf { c_kind = kind; c_node = 1 lsl 20; c_port = 1; c_bytes = 64; c_flow = 0 };
      match Collector.absorb_card col buf ~off:0 with
      | () -> Alcotest.failf "kind %d: node 2^20 was absorbed" kind
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names the id" msg)
          true
          (Test_asm.contains msg "1048576"))
    [ 0; 3 ];
  Alcotest.(check int) "nothing counted" 0 (Collector.cards col);
  Alcotest.(check (list (pair int int))) "no link" [] (Collector.links col)

(* One fixed stream's fingerprint, recorded from the hash-table
   collector: hop, probe and fault cards over six nodes up to 2^20 - 1
   and five ports up to 65535. *)
let test_collector_golden_fingerprint () =
  let rng = Rng.create ~seed:2027 in
  let nodes = [| 0; 1; 17; 1023; 65_537; (1 lsl 20) - 1 |] in
  let ports = [| 0; 1; 15; 255; 65_535 |] in
  let col = Collector.create () and buf = Bytes.create Telemetry_wire.bytes_per_card in
  for i = 0 to 2_999 do
    let kind = match Rng.int rng 8 with 0 -> 1 | 1 -> 2 | 2 -> 3 | _ -> 0 in
    let node = nodes.(Rng.int rng (Array.length nodes)) in
    Telemetry_wire.write buf ~off:0 ~kind ~in_port:(i land 7)
      ~out_port:ports.(Rng.int rng (Array.length ports)) ~node ~value:(Rng.int rng 200_000)
      ~version:1 ~subject:i ~time_ns:(i * 1000) ~flow_hash:(Rng.int rng 5_000)
      ~wire_bytes:(64 + Rng.int rng 1_437) ~entry:0;
    Collector.absorb_card col buf ~off:0
  done;
  Alcotest.(check int) "fingerprint" 0x336a318387d715dd (Collector.fingerprint col)

let suite =
  [
    qtest wire_roundtrip;
    qtest sink_accounting;
    Alcotest.test_case "sink drain reads every card of an exhausted pool" `Quick
      test_drain_exhausted_pool;
    Alcotest.test_case "warm collector absorb allocates nothing" `Quick
      test_absorb_allocates_nothing;
    Alcotest.test_case "fresh t-digest holds <= 16 words" `Quick test_tdigest_footprint;
    Alcotest.test_case "one-sample t-digest holds <= 2 cap + 32 words" `Quick
      test_tdigest_first_sample;
    Alcotest.test_case "t-digest quantiles match their golden bits" `Quick
      test_tdigest_golden;
    qtest cms_bounds;
    qtest cms_merge_identity;
    qtest tdigest_rank;
    qtest tdigest_merge_rank;
    qtest collector_merge;
    qtest collector_links_standalone;
    qtest tdigest_mixed_delta;
    qtest wire_matches_reference;
    Alcotest.test_case "wire: golden card bytes" `Quick test_wire_golden_card;
    qtest collector_model;
    Alcotest.test_case "collector: node id 2^20 raises" `Quick test_collector_node_bound;
    Alcotest.test_case "collector: golden stream fingerprint" `Quick
      test_collector_golden_fingerprint;
  ]
