(* Telemetry properties: the postcard codec round-trips, sink
   accounting balances under arbitrary emit/drain interleavings,
   count-min point queries never underestimate and overestimate by at
   most e/width * total of an exact table, and merged shard sketches
   and collectors match the single stream's bit for bit. *)

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

(* A warm collector absorbs hop cards without allocating: every link's
   state exists after the first window, so a card costs counter and
   EWMA updates, a CMS add and the sink's chunk recycling. *)
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

(* ---- per-link fault EWMA --------------------------------------- *)

let write_fault buf ~off ~switch ~port ~i =
  Telemetry_wire.write buf ~off
    ~kind:(Telemetry_wire.kind_code Telemetry_wire.Fault_event)
    ~in_port:0 ~out_port:port ~node:switch ~value:0 ~version:1 ~subject:i
    ~time_ns:(i * 10) ~flow_hash:0 ~wire_bytes:0 ~entry:0

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The per-link fault EWMA is the value React thresholds on. Each
   link must answer bit for bit what a standalone alpha-0.1 EWMA
   answers when fed 0.0 per hop card and 1.0 per fault card on that
   link, in card order. Op 0 queries a link mid-stream on both sides,
   op 1 is a fault card, any other op a hop card. *)
let collector_fault_ewma_standalone =
  QCheck.Test.make ~name:"collector: per-link fault EWMA equals a standalone one"
    ~count:40
    QCheck.(list_of_size Gen.(int_range 200 3000) (pair (int_bound 11) (int_bound 5)))
    (fun ops ->
      let links = 12 in
      (* per link, the answers at each query and at the end, newest first *)
      let collector_side () =
        let col = Collector.create () in
        let buf = Bytes.create Telemetry_wire.bytes_per_card in
        let seen = Array.make links [] in
        let query l =
          seen.(l) <-
            Collector.link_fault_ewma col ~switch:(l / 3) ~port:(l mod 3) :: seen.(l)
        in
        List.iteri
          (fun i (l, op) ->
            let switch = l / 3 and port = l mod 3 in
            if op = 0 then query l
            else begin
              if op = 1 then write_fault buf ~off:0 ~switch ~port ~i
              else write_hop buf ~off:0 ~switch ~port ~depth:i ~i;
              Collector.absorb_card col buf ~off:0
            end)
          ops;
        for l = 0 to links - 1 do
          query l
        done;
        seen
      in
      let standalone l =
        let ewma = Sketch.Ewma.create ~alpha:0.1 () in
        let query seen = Sketch.Ewma.value ewma :: seen in
        List.fold_left
          (fun seen (l', op) ->
            if l' <> l then seen
            else if op = 0 then query seen
            else begin
              Sketch.Ewma.observe ewma (if op = 1 then 1.0 else 0.0);
              seen
            end)
          [] ops
        |> query
      in
      Array.for_all2 (List.equal same_float) (collector_side ())
        (Array.init links standalone))

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
    qtest cms_bounds;
    qtest cms_merge_identity;
    qtest collector_merge;
    qtest collector_fault_ewma_standalone;
    qtest wire_matches_reference;
    Alcotest.test_case "wire: golden card bytes" `Quick test_wire_golden_card;
    qtest collector_model;
    Alcotest.test_case "collector: node id 2^20 raises" `Quick test_collector_node_bound;
    Alcotest.test_case "collector: golden stream fingerprint" `Quick
      test_collector_golden_fingerprint;
  ]
