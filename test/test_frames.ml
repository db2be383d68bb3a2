(* Differential tests for the flat frame representation: the record
   codecs in [Tpp_packet] are the oracle. Flat construction must be
   byte-identical to composing the record writers; in-place patches
   (TTL/ECN/DSCP/ident) must keep the stored IPv4 checksum equal to a
   full recompute; pooled construction must produce the same wire image
   as unpooled; and the pool's reuse bookkeeping must hold. *)

open Tpp

let qtest = QCheck_alcotest.to_alcotest

let hex b =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.init (Bytes.length b) (Bytes.get_uint8 b)))

let bytes_equal_t = Alcotest.testable (fun fmt b -> Format.pp_print_string fmt (hex b)) Bytes.equal

let mac_a = Mac.of_host_id 1
let mac_b = Mac.of_host_id 2

(* ---- oracle: the wire image composed with the record writers ---- *)

let oracle_image frame =
  let w = Buf.Writer.create () in
  Ethernet.write w (Frame.eth frame);
  (match frame.Frame.tpp with Some s -> Prog.write w s | None -> ());
  let pay = Frame.payload frame in
  (match (Frame.ip frame, Frame.udp frame) with
  | Some ip, Some u ->
    Ipv4.Header.write w ip ~payload_len:(Udp.size + Bytes.length pay);
    Udp.write w u ~payload_len:(Bytes.length pay)
  | Some ip, None -> Ipv4.Header.write w ip ~payload_len:(Bytes.length pay)
  | None, _ -> ());
  Buf.Writer.bytes w pay;
  Buf.Writer.contents w

(* Encodable-only instruction generator (unencodable operands are a
   serialization error by design, tested elsewhere). *)
let instr_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Instr.Nop);
        (1, return Instr.Halt);
        (3, map (fun v -> Instr.Push (Instr.Imm v)) (int_bound 0xFF));
        (2, map (fun v -> Instr.Push (Instr.Sw v)) (int_bound 0x20));
        (2, map (fun v -> Instr.Pop (Instr.Pkt (4 * v))) (int_bound 0x08));
      ])

let frame_spec_gen =
  QCheck.Gen.(
    tup6 (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xFFFFFF)
      (int_range 1 255)
      (string_size (0 -- 101))
      (option (pair (list_size (0 -- 8) instr_gen) (int_range 1 16))))

let frame_spec_arbitrary =
  QCheck.make
    ~print:(fun (sp, dp, ip, ttl, pay, tpp) ->
      Printf.sprintf "sport=%d dport=%d ip=%#x ttl=%d pay=%d tpp=%s" sp dp ip ttl
        (String.length pay)
        (match tpp with
        | None -> "no"
        | Some (prog, words) ->
          Printf.sprintf "%d instrs / %d words" (List.length prog) words))
    frame_spec_gen

let build_spec (sport, dport, ip, ttl, payload, tpp) =
  let tpp =
    Option.map
      (fun (prog, mem_words) -> Prog.make ~program:prog ~mem_len:(4 * mem_words) ())
      tpp
  in
  Frame.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(Ipv4.Addr.of_int ip)
    ~dst_ip:(Ipv4.Addr.of_host_id 2) ~src_port:sport ~dst_port:dport ~ttl ?tpp
    ~payload:(Bytes.of_string payload) ()

let prop_flat_serialize_matches_record_writers =
  QCheck.Test.make
    ~name:"flat serialization == record-codec composition (with/without TPP)"
    ~count:500 frame_spec_arbitrary
    (fun spec ->
      let frame = build_spec spec in
      Bytes.equal (Frame.serialize frame) (oracle_image frame))

let prop_flat_accessors_match_records =
  QCheck.Test.make ~name:"flat field accessors == materialized records" ~count:300
    frame_spec_arbitrary
    (fun spec ->
      let frame = build_spec spec in
      let ip = Option.get (Frame.ip frame) in
      let udp = Option.get (Frame.udp frame) in
      Ipv4.Addr.equal (Frame.ip_src frame) ip.Ipv4.Header.src
      && Ipv4.Addr.equal (Frame.ip_dst frame) ip.Ipv4.Header.dst
      && Frame.ip_ttl frame = ip.Ipv4.Header.ttl
      && Frame.ip_proto frame = ip.Ipv4.Header.proto
      && Frame.ip_ident frame = ip.Ipv4.Header.ident
      && Frame.udp_src_port frame = udp.Udp.src_port
      && Frame.udp_dst_port frame = udp.Udp.dst_port)

(* ---- incremental checksum vs full recompute -------------------------- *)

let patch_gen =
  QCheck.Gen.(
    list_size (1 -- 12)
      (oneof
         [
           map (fun v -> `Ttl (1 + v)) (int_bound 254);
           map (fun v -> `Ecn v) (int_bound 3);
           map (fun v -> `Dscp v) (int_bound 63);
           map (fun v -> `Ident v) (int_bound 0xFFFF);
         ]))

let prop_incremental_checksum_matches_recompute =
  QCheck.Test.make
    ~name:"RFC 1624 patches keep the IPv4 checksum equal to a recompute"
    ~count:500
    (QCheck.make
       ~print:(fun (spec, ps) ->
         QCheck.Print.pair
           (fun s -> (QCheck.get_print frame_spec_arbitrary |> Option.get) s)
           (fun l -> string_of_int (List.length l) ^ " patches")
           (spec, ps))
       QCheck.Gen.(pair frame_spec_gen patch_gen))
    (fun (spec, patches) ->
      let frame = build_spec spec in
      List.iter
        (function
          | `Ttl v -> Frame.set_ip_ttl frame v
          | `Ecn v -> Frame.set_ip_ecn frame v
          | `Dscp v -> Frame.set_ip_dscp frame v
          | `Ident v -> Frame.set_ip_ident frame v)
        patches;
      let img = Frame.serialize frame in
      (* A valid header sums (checksum field included) to zero... *)
      Ipv4.checksum img ~pos:frame.Frame.ip_off ~len:Ipv4.Header.size = 0
      (* ...and the patched image must equal a from-scratch render of the
         same field values (full checksum recompute included). *)
      && Bytes.equal img (oracle_image frame)
      && match Frame.parse img with Ok _ -> true | Error _ -> false)

(* ---- pooled vs unpooled construction --------------------------------- *)

let prop_pooled_construction_identical =
  QCheck.Test.make
    ~name:"pooled and unpooled frames render the same wire image" ~count:300
    frame_spec_arbitrary
    (fun (sport, dport, ip, ttl, payload, tpp) ->
      (* Each side gets its own TPP: building rebases it onto the frame. *)
      let tpp () =
        Option.map
          (fun (prog, mem_words) -> Prog.make ~program:prog ~mem_len:(4 * mem_words) ())
          tpp
      in
      let pool = Frame.Pool.create ~frame_bytes:256 () in
      let pooled =
        Frame.Pool.udp_frame pool ~src_mac:mac_a ~dst_mac:mac_b
          ~src_ip:(Ipv4.Addr.of_int ip) ~dst_ip:(Ipv4.Addr.of_host_id 2)
          ~src_port:sport ~dst_port:dport ~ttl ?tpp:(tpp ())
          ~payload:(Bytes.of_string payload) ()
      in
      let plain =
        Frame.udp_frame ~src_mac:mac_a ~dst_mac:mac_b
          ~src_ip:(Ipv4.Addr.of_int ip) ~dst_ip:(Ipv4.Addr.of_host_id 2)
          ~src_port:sport ~dst_port:dport ~ttl ?tpp:(tpp ())
          ~payload:(Bytes.of_string payload) ()
      in
      (* The IP ident is the one constructor input drawn from the global
         id counter; align it (incrementally) before comparing. *)
      Frame.set_ip_ident pooled 0x2222;
      Frame.set_ip_ident plain 0x2222;
      Bytes.equal (Frame.serialize pooled) (Frame.serialize plain)
      && Frame.flow_hash pooled = Frame.flow_hash plain
      && Frame.wire_size pooled = Frame.wire_size plain)

let test_pool_reuse () =
  let pool = Frame.Pool.create ~frame_bytes:256 () in
  let send payload =
    Frame.Pool.udp_frame pool ~src_mac:mac_a ~dst_mac:mac_b
      ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2)
      ~src_port:5 ~dst_port:7 ~payload ()
  in
  let f1 = send (Bytes.make 10 'a') in
  Alcotest.(check int) "one created" 1 (Frame.Pool.created pool);
  Alcotest.(check int) "one outstanding" 1 (Frame.Pool.outstanding pool);
  let buf1 = f1.Frame.buf in
  Frame.recycle f1;
  Alcotest.(check int) "recycle returns it" 0 (Frame.Pool.outstanding pool);
  let f2 = send (Bytes.make 32 'b') in
  Alcotest.(check int) "no new allocation" 1 (Frame.Pool.created pool);
  Alcotest.(check int) "reuse counted" 1 (Frame.Pool.reused pool);
  Alcotest.(check bool) "same physical buffer" true (f2.Frame.buf == buf1);
  Alcotest.(check int) "re-rendered payload" 32 (Frame.payload_len f2);
  (match Frame.parse (Frame.serialize f2) with
  | Ok got -> Alcotest.(check int) "re-rendered frame parses" 32 (Frame.payload_len got)
  | Error e -> Alcotest.fail e);
  (* Double recycle must not corrupt the free list. *)
  Frame.recycle f2;
  Frame.recycle f2;
  Alcotest.(check int) "double recycle is a no-op" 0 (Frame.Pool.outstanding pool);
  let f3 = send (Bytes.make 4 'c') in
  let f4 = send (Bytes.make 4 'd') in
  Alcotest.(check bool) "no aliased frames after double recycle" true (f3 != f4);
  (* Unpooled frames ignore recycle entirely. *)
  let loose =
    Frame.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(Ipv4.Addr.of_host_id 1)
      ~dst_ip:(Ipv4.Addr.of_host_id 2) ~src_port:1 ~dst_port:2
      ~payload:Bytes.empty ()
  in
  Frame.recycle loose;
  Alcotest.(check int) "foreign recycle does not join the pool" 2
    (Frame.Pool.outstanding pool)

let test_clone_is_private () =
  let pool = Frame.Pool.create ~frame_bytes:256 () in
  let f =
    Frame.Pool.udp_frame pool ~src_mac:mac_a ~dst_mac:mac_b
      ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2)
      ~src_port:5 ~dst_port:7 ~payload:(Bytes.make 8 'x') ()
  in
  let c = Frame.clone f in
  Alcotest.(check bool) "clone owns its buffer" true (c.Frame.buf != f.Frame.buf);
  let ttl = Frame.ip_ttl f in
  Frame.set_ip_ttl c (ttl - 5);
  Alcotest.(check int) "patching the clone leaves the original intact" ttl
    (Frame.ip_ttl f)

(* ---- TPP copies live and die with their pooled frames ---- *)

let tpp_frame_in pool tpp =
  Frame.Pool.udp_frame pool ~src_mac:mac_a ~dst_mac:mac_b
    ~src_ip:(Ipv4.Addr.of_host_id 1) ~dst_ip:(Ipv4.Addr.of_host_id 2)
    ~src_port:5 ~dst_port:7 ~tpp ~payload:(Bytes.make 8 'x') ()

let template () =
  Prog.make ~program:[ Instr.Push (Instr.Sw 0); Instr.Halt ] ~mem_len:16 ()

let test_copy_recycled_with_frame () =
  let pool = Frame.Pool.create ~frame_bytes:256 () in
  let tpl = template () in
  let v = Prog.copy tpl in
  let f = tpp_frame_in pool v in
  Alcotest.(check bool) "embedded in the wire image" true (v.Prog.memory == f.Frame.buf);
  Frame.recycle f;
  Alcotest.(check int) "back on the family's spare stack" 1 tpl.Prog.cache.Prog.spare_len;
  let raises what g =
    match g () with
    | _ -> Alcotest.failf "%s of a recycled copy did not raise" what
    | exception Invalid_argument _ -> ()
  in
  raises "mem_get" (fun () -> Prog.mem_get v 0);
  raises "mem_set" (fun () -> Prog.mem_set v 0 1);
  raises "copy" (fun () -> ignore (Prog.copy v));
  raises "write" (fun () -> Prog.write (Buf.Writer.create ()) v);
  raises "build" (fun () -> ignore (tpp_frame_in pool v));
  let w = Prog.copy tpl in
  Alcotest.(check bool) "the next copy reuses the record" true (w == v);
  Alcotest.(check int) "spare stack drained" 0 tpl.Prog.cache.Prog.spare_len;
  Alcotest.(check (list int)) "reused record reads the template" (Prog.words tpl)
    (Prog.words w)

(* A template handed to a pooled build directly keeps today's lifetime:
   recycling the frame neither retires it nor stacks it. *)
let test_template_never_stacked () =
  let pool = Frame.Pool.create ~frame_bytes:256 () in
  let tpl = template () in
  Prog.mem_set tpl 4 3;
  Frame.recycle (tpp_frame_in pool tpl);
  Alcotest.(check int) "no spare" 0 tpl.Prog.cache.Prog.spare_len;
  Alcotest.(check int) "template still readable" 3 (Prog.mem_get tpl 4);
  let v = Prog.copy tpl in
  Alcotest.(check bool) "a fresh copy" true (v != tpl);
  Alcotest.(check int) "copy reads the template" 3 (Prog.mem_get v 4)

(* The spare stack belongs to the domain that made the family: copies
   of a family made in another domain are never stacked, and that
   domain's stack is never popped here. *)
let test_foreign_family_never_pooled () =
  let tpl = Domain.join (Domain.spawn template) in
  let pool = Frame.Pool.create ~frame_bytes:256 () in
  let v = Prog.copy tpl in
  Frame.recycle (tpp_frame_in pool v);
  Alcotest.(check int) "not stacked" 0 tpl.Prog.cache.Prog.spare_len;
  Alcotest.(check bool) "still live" true (v.Prog.state <> Prog.Retired);
  Alcotest.(check bool) "next copy is a fresh record" true (Prog.copy tpl != v)

let test_with_tpp_copies_meta () =
  let f =
    Frame.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(Ipv4.Addr.of_host_id 1)
      ~dst_ip:(Ipv4.Addr.of_host_id 2) ~src_port:5 ~dst_port:7
      ~tpp:(template ()) ~payload:Bytes.empty ()
  in
  f.Frame.meta.Meta.hop_count <- 4;
  let g = Frame.with_tpp f None in
  Alcotest.(check bool) "own metadata" true (g.Frame.meta != f.Frame.meta);
  Alcotest.(check int) "same values" 4 g.Frame.meta.Meta.hop_count;
  Meta.clear f.Frame.meta;
  Alcotest.(check int) "clearing the original leaves it" 4 g.Frame.meta.Meta.hop_count

(* ---- pcap golden image ------------------------------------------------ *)

(* Frozen pcap file image for a two-frame capture (one plain datagram,
   one TPP frame). Every constructor input is pinned — idents are
   patched to constants — so this must never change; it guards the
   single-blit emission path end to end (frame serialize + pcap
   framing). Regenerate only for a deliberate wire-format change. *)
let pcap_golden_hex =
  "d4c3b2a1020004000000000000000000ffff00000100000000000000e80300002f0000002f00000002000010000202000010000108004500002112344000401114960a0000010a00000200050007000d000068656c6c6f00000000c4090000540000005400000002000010000102000010000288b50100000800100000000000000800000010002000e8002000000000000000000000000000000000004500001e432140004011e3ab0a0000020a0000010009000b000a00006f6b"

let golden_capture () =
  let cap = Pcap.create () in
  let plain =
    Frame.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(Ipv4.Addr.of_host_id 1)
      ~dst_ip:(Ipv4.Addr.of_host_id 2) ~src_port:5 ~dst_port:7
      ~payload:(Bytes.of_string "hello") ()
  in
  Frame.set_ip_ident plain 0x1234;
  Pcap.record cap ~now:1_000_000 plain;
  let tpp = Result.get_ok (Asm.to_tpp ~mem_len:16 "PUSH [Switch:SwitchID]\nHALT\n") in
  let probe =
    Frame.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(Ipv4.Addr.of_host_id 2)
      ~dst_ip:(Ipv4.Addr.of_host_id 1) ~src_port:9 ~dst_port:11 ~tpp
      ~payload:(Bytes.of_string "ok") ()
  in
  Frame.set_ip_ident probe 0x4321;
  Pcap.record cap ~now:2_500_000 probe;
  cap

let test_pcap_golden () =
  let image = Pcap.to_bytes (golden_capture ()) in
  Alcotest.check bytes_equal_t "pcap image frozen"
    (Bytes.of_string
       (String.init
          (String.length pcap_golden_hex / 2)
          (fun i ->
            Char.chr (int_of_string ("0x" ^ String.sub pcap_golden_hex (2 * i) 2)))))
    image

let suite =
  [
    qtest prop_flat_serialize_matches_record_writers;
    qtest prop_flat_accessors_match_records;
    qtest prop_incremental_checksum_matches_recompute;
    qtest prop_pooled_construction_identical;
    Alcotest.test_case "pool reuse bookkeeping" `Quick test_pool_reuse;
    Alcotest.test_case "clone owns a private buffer" `Quick test_clone_is_private;
    Alcotest.test_case "tpp copy recycled with its frame" `Quick
      test_copy_recycled_with_frame;
    Alcotest.test_case "pooled template never stacked" `Quick
      test_template_never_stacked;
    Alcotest.test_case "foreign-domain tpp family never pooled" `Quick
      test_foreign_family_never_pooled;
    Alcotest.test_case "with_tpp copies metadata" `Quick test_with_tpp_copies_meta;
    Alcotest.test_case "pcap golden image" `Quick test_pcap_golden;
  ]
