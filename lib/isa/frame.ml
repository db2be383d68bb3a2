module Buf = Tpp_util.Buf
module Ethernet = Tpp_packet.Ethernet
module Ipv4 = Tpp_packet.Ipv4
module Udp = Tpp_packet.Udp
module Mac = Tpp_packet.Mac

(* A frame is one contiguous buffer holding its wire encoding
   (Ethernet at 0, then an optional TPP section, then IPv4/UDP/payload)
   plus integer offsets into it, parsed once at construction or ingress.
   Header rewrites (TTL, ECN, TPP memory stores) patch the buffer in
   place — incremental checksum update for IPv4 — so a hop allocates no
   header records and serialization is a single blit of [buf].

   In-place-patch soundness: every field a switch rewrites in flight
   (TTL, ECN, TPP words, TPP sp/hop/flags) either sits under the IPv4
   incremental checksum discipline (RFC 1624 patches keep the stored
   checksum equal to a full recompute), or lives outside any checksum
   (Ethernet has none here, the TPP section is unchecksummed, UDP's
   checksum is transmitted as zero). With one documented exception, no
   rewrite changes any length field, so the offsets computed at parse
   time stay valid for the frame's whole lifetime: the only operations
   that change the layout ({!with_tpp}) build a fresh buffer. The
   exception is {!trim} (NDP-style packet trimming), which only ever
   shortens the payload tail in place — both length fields are patched
   consistently and every offset still points where it did.

   The TPP view in [tpp] aliases [buf]: its packet memory window points
   at the memory bytes of the serialized section, so TCPU word stores
   land directly in the wire image. The section header's mutable fields
   (flags/sp/hop) stay authoritative in the [Tpp.t] record between hops
   and are flushed by {!serialize}/{!serialize_into} before any byte
   export. *)
type t = {
  mutable id : int;
  mutable buf : bytes;  (* wire image in [0, len); may have spare room *)
  mutable len : int;
  mutable tpp : Tpp.t option;  (* view whose packet memory aliases [buf] *)
  mutable ip_off : int;        (* IPv4 header offset; -1 = absent *)
  mutable udp_off : int;       (* UDP header offset; -1 = absent *)
  mutable pay_off : int;       (* payload offset (== len when empty) *)
  meta : Meta.t;
  mutable flow_hash_cache : int;
      (* lazily memoized ([min_int] = unset). Sound because in-flight
         header rewrites (TTL, ECN) never touch the 5-tuple. *)
  mutable home : pool;         (* free-list this frame recycles into *)
  mutable in_free_list : bool;
  mutable tx_end : int;        (* end of its latest transmission, ns *)
}

(* A per-flow free list of fixed-capacity frames. Frames allocated from
   a pool return to it on delivery or drop ({!recycle}); steady-state
   traffic then reuses one buffer per in-flight packet instead of
   allocating ~1.5 kB of minor heap per send. Ownership rule: a pool
   belongs to the domain that created it, and a frame that crossed a
   shard boundary is recycled only by that domain — [recycle] from any
   other domain is a no-op, so cross-shard frames simply age out to the
   GC and determinism is unaffected. *)
and pool = {
  frame_bytes : int;  (* buffer capacity preallocated per frame *)
  pool_dom : int;     (* Domain.id of the owning domain *)
  mutable free : t array;
  mutable free_len : int;
  mutable p_created : int;  (* frames ever allocated fresh *)
  mutable p_reused : int;   (* takes served from the free list *)
}

let no_pool =
  { frame_bytes = 0; pool_dom = -1; free = [||]; free_len = 0;
    p_created = 0; p_reused = 0 }

(* Atomic: frames are created concurrently by the shards of a parallel
   run (ids stay unique; only tracing and the IP ident field see them,
   so cross-shard allocation order does not affect simulation state). *)
let next_id = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

(* ---- Cheap field views over the flat buffer ---- *)

let ethertype t = Ethernet.Flat.ethertype t.buf ~off:0
let eth_dst t = Ethernet.Flat.dst t.buf ~off:0
let eth_src t = Ethernet.Flat.src t.buf ~off:0

let eth t =
  { Ethernet.dst = eth_dst t; src = eth_src t; ethertype = ethertype t }

let has_ip t = t.ip_off >= 0

let[@inline] ip_exn t =
  if t.ip_off < 0 then invalid_arg "Frame: no IPv4 header";
  t.ip_off

let ip t =
  if t.ip_off < 0 then None
  else Some (Ipv4.Header.Flat.to_header t.buf ~off:t.ip_off)

let ip_src t = Ipv4.Header.Flat.src t.buf ~off:(ip_exn t)
let ip_dst t = Ipv4.Header.Flat.dst t.buf ~off:(ip_exn t)
let ip_proto t = Ipv4.Header.Flat.proto t.buf ~off:(ip_exn t)
let ip_ttl t = Ipv4.Header.Flat.ttl t.buf ~off:(ip_exn t)
let ip_dscp t = Ipv4.Header.Flat.dscp t.buf ~off:(ip_exn t)
let ip_ecn t = Ipv4.Header.Flat.ecn t.buf ~off:(ip_exn t)
let ip_ident t = Ipv4.Header.Flat.ident t.buf ~off:(ip_exn t)

let set_ip_ttl t v = Ipv4.Header.Flat.set_ttl t.buf ~off:(ip_exn t) v
let set_ip_ecn t v = Ipv4.Header.Flat.set_ecn t.buf ~off:(ip_exn t) v
let set_ip_dscp t v = Ipv4.Header.Flat.set_dscp t.buf ~off:(ip_exn t) v
let set_ip_ident t v = Ipv4.Header.Flat.set_ident t.buf ~off:(ip_exn t) v

let has_udp t = t.udp_off >= 0

let udp t =
  if t.udp_off < 0 then None
  else
    Some
      {
        Udp.src_port = Udp.Flat.src_port t.buf ~off:t.udp_off;
        dst_port = Udp.Flat.dst_port t.buf ~off:t.udp_off;
      }

let udp_src_port t =
  if t.udp_off < 0 then invalid_arg "Frame: no UDP header";
  Udp.Flat.src_port t.buf ~off:t.udp_off

let udp_dst_port t =
  if t.udp_off < 0 then invalid_arg "Frame: no UDP header";
  Udp.Flat.dst_port t.buf ~off:t.udp_off

let payload_len t = t.len - t.pay_off

let payload t = Bytes.sub t.buf t.pay_off (payload_len t)

let payload_u32 t off =
  if off < 0 || off + 4 > payload_len t then Buf.(raise (Out_of_bounds "Frame.payload_u32"));
  Buf.get_u32i t.buf (t.pay_off + off)

(* NDP-style packet trimming: cut the UDP payload down to its first
   [keep] bytes, in place. The payload is the tail of the wire image,
   so shrinking it leaves every parse-time offset valid; the IPv4 total
   length is patched under the incremental-checksum discipline and the
   UDP length directly (its checksum is transmitted as zero). The
   5-tuple is untouched, so [flow_hash_cache] stays valid. Zero
   allocation — this runs on the switch enqueue hot path. *)
let trim t ~keep =
  if t.udp_off < 0 then invalid_arg "Frame.trim: no UDP header";
  if keep < 0 then invalid_arg "Frame.trim: keep";
  let cut = payload_len t - keep in
  if cut > 0 then begin
    let total = Ipv4.Header.Flat.total_len t.buf ~off:t.ip_off in
    Ipv4.Header.Flat.set_total_len t.buf ~off:t.ip_off (total - cut);
    Udp.Flat.set_len t.buf ~off:t.udp_off (Udp.size + keep);
    t.len <- t.len - cut
  end

(* ---- Consistency checks (construction-time; same rules as the old
   record representation enforced) ---- *)

let check_consistent ~eth ~tpp ~ip ~udp =
  (match tpp with
  | Some t ->
    if eth.Ethernet.ethertype <> Ethernet.ethertype_tpp then
      invalid_arg "Frame.make: TPP section on non-TPP ethertype";
    let inner = t.Tpp.inner_ethertype in
    if Option.is_some ip && inner <> Ethernet.ethertype_ipv4 then
      invalid_arg "Frame.make: IPv4 under TPP needs inner_ethertype IPv4";
    if Option.is_none ip && inner = Ethernet.ethertype_ipv4 then
      invalid_arg "Frame.make: inner_ethertype IPv4 but no IPv4 header"
  | None ->
    if eth.Ethernet.ethertype = Ethernet.ethertype_tpp then
      invalid_arg "Frame.make: TPP ethertype without TPP section";
    if Option.is_some ip && eth.Ethernet.ethertype <> Ethernet.ethertype_ipv4 then
      invalid_arg "Frame.make: IPv4 header on non-IPv4 ethertype");
  if Option.is_some udp && Option.is_none ip then
    invalid_arg "Frame.make: UDP header without IPv4 header";
  match (ip, udp) with
  | Some h, Some _ when h.Ipv4.Header.proto <> Ipv4.proto_udp ->
    invalid_arg "Frame.make: UDP header but IPv4 proto is not UDP"
  | _ -> ()

(* ---- Construction: render the wire image into [t.buf] ---- *)

(* Writes [s]'s section after the Ethernet header of [b] and rebases
   [s] onto it, so the caller's handle keeps working and its stores hit
   the wire image. Hand-built programs with unencodable operands still
   get a frame (the TCPU executes the instruction array, not the
   bytes): their program area is zero-filled and {!serialize} raises,
   exactly as the record writer did. *)
let write_tpp_section b s =
  let prog = Instr.size * Array.length s.Tpp.program in
  Tpp.write_header_into b ~off:Ethernet.size s;
  (match Tpp.program_bytes s with
  | pb -> Bytes.blit pb 0 b (Ethernet.size + 16) prog
  | exception Invalid_argument _ -> Bytes.fill b (Ethernet.size + 16) prog '\000');
  Tpp.rebase s ~memory:b ~mem_off:(Ethernet.size + 16 + prog)

(* Writes the full stack and sets the offsets. [t.buf] is grown when the
   frame (pooled or reused) is too small for this packet. *)
let render t ?tpp ?ip ?udp ~payload ~eth () =
  let sec = match tpp with Some s -> Tpp.section_size s | None -> 0 in
  let pay = Bytes.length payload in
  let ip_len = match ip with Some _ -> Ipv4.Header.size | None -> 0 in
  let udp_len = match udp with Some _ -> Udp.size | None -> 0 in
  let len = Ethernet.size + sec + ip_len + udp_len + pay in
  if Bytes.length t.buf < len then t.buf <- Bytes.create len;
  let b = t.buf in
  Ethernet.Flat.write_into b ~off:0 eth;
  (match tpp with Some s -> write_tpp_section b s | None -> ());
  let l3 = Ethernet.size + sec in
  (match ip with
  | Some h -> Ipv4.Header.Flat.write_into b ~off:l3 h ~payload_len:(udp_len + pay)
  | None -> ());
  (match udp with
  | Some u -> Udp.Flat.write_into b ~off:(l3 + ip_len) u ~payload_len:pay
  | None -> ());
  let pay_off = l3 + ip_len + udp_len in
  Bytes.blit payload 0 b pay_off pay;
  t.len <- len;
  t.tpp <- tpp;
  t.ip_off <- (match ip with Some _ -> l3 | None -> -1);
  t.udp_off <- (match udp with Some _ -> l3 + ip_len | None -> -1);
  t.pay_off <- pay_off;
  t.flow_hash_cache <- min_int

let make ?tpp ?ip ?udp ?(payload = Bytes.empty) ~eth () =
  check_consistent ~eth ~tpp ~ip ~udp;
  let t =
    {
      id = fresh_id ();
      buf = Bytes.empty;
      len = 0;
      tpp = None;
      ip_off = -1;
      udp_off = -1;
      pay_off = 0;
      meta = Meta.create ();
      flow_hash_cache = min_int;
      tx_end = 0;
      home = no_pool;
      in_free_list = false;
    }
  in
  render t ?tpp ?ip ?udp ~payload ~eth ();
  t

(* Headers are written straight into the buffer from the arguments, so
   building a datagram materializes no header record: byte-identical to
   [render] ([write_into] delegates to the same [write_fields]). *)
let build_udp t ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ?(ttl = 64)
    ?(dscp = 0) ?tpp ~payload () =
  let pay = Bytes.length payload in
  let l3 =
    match tpp with Some s -> Ethernet.size + Tpp.section_size s | None -> Ethernet.size
  in
  let len = l3 + Ipv4.Header.size + Udp.size + pay in
  if Bytes.length t.buf < len then t.buf <- Bytes.create len;
  let b = t.buf in
  Ethernet.Flat.write_fields b ~off:0 ~dst:dst_mac ~src:src_mac
    ~ethertype:
      (match tpp with
      | Some _ -> Ethernet.ethertype_tpp
      | None -> Ethernet.ethertype_ipv4);
  (match tpp with
  | Some s ->
    (* A TPP wrapping an IPv4 datagram must declare it, or transit
       parsers could not find the routing header. *)
    s.Tpp.inner_ethertype <- Ethernet.ethertype_ipv4;
    write_tpp_section b s
  | None -> ());
  Ipv4.Header.Flat.write_fields b ~off:l3 ~src:src_ip ~dst:dst_ip
    ~proto:Ipv4.proto_udp ~ttl ~dscp ~ecn:0
    ~ident:(fresh_id () land 0xFFFF) ~payload_len:(Udp.size + pay);
  Udp.Flat.write_fields b ~off:(l3 + Ipv4.Header.size) ~src_port ~dst_port
    ~payload_len:pay;
  let pay_off = l3 + Ipv4.Header.size + Udp.size in
  Bytes.blit payload 0 b pay_off pay;
  t.len <- len;
  t.tpp <- tpp;
  t.ip_off <- l3;
  t.udp_off <- l3 + Ipv4.Header.size;
  t.pay_off <- pay_off;
  t.flow_hash_cache <- min_int

let udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ?ttl ?dscp
    ?tpp ~payload () =
  let t =
    {
      id = fresh_id ();
      buf = Bytes.empty;
      len = 0;
      tpp = None;
      ip_off = -1;
      udp_off = -1;
      pay_off = 0;
      meta = Meta.create ();
      flow_hash_cache = min_int;
      tx_end = 0;
      home = no_pool;
      in_free_list = false;
    }
  in
  build_udp t ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ?ttl ?dscp
    ?tpp ~payload ();
  t

(* A minimal inert frame (Ethernet header only), for use as the dummy
   slot filler of rings and slabs. Never transmitted. *)
let placeholder () =
  make ~eth:{ Ethernet.dst = Mac.of_int 0; src = Mac.of_int 0; ethertype = 0 } ()

(* ---- Flow hash ---- *)

(* splitmix64-style finalizer: equal tuples hash equal, and nearby
   tuples (consecutive ports) spread uniformly across ECMP groups. *)
let mix z =
  let z = Int64.of_int z in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int z land max_int

let flow_hash_values ~src ~dst ~proto ~src_port ~dst_port =
  mix (mix (mix (mix (mix src lxor dst) lxor proto) lxor src_port) lxor dst_port)

let compute_flow_hash t =
  if t.ip_off >= 0 then begin
    let src_port, dst_port =
      if t.udp_off >= 0 then (udp_src_port t, udp_dst_port t) else (0, 0)
    in
    flow_hash_values
      ~src:(Ipv4.Addr.to_int (ip_src t))
      ~dst:(Ipv4.Addr.to_int (ip_dst t))
      ~proto:(ip_proto t) ~src_port ~dst_port
  end
  else
    flow_hash_values ~src:(Mac.to_int (eth_src t)) ~dst:(Mac.to_int (eth_dst t))
      ~proto:0 ~src_port:0 ~dst_port:0

let flow_hash t =
  if t.flow_hash_cache <> min_int then t.flow_hash_cache
  else begin
    let h = compute_flow_hash t in
    t.flow_hash_cache <- h;
    h
  end

let wire_size t = Int.max 64 (t.len + 4)

(* ---- Byte export ---- *)

(* Flushes the TPP view's mutable header state (flags/sp/hop) into the
   serialized section header; memory words are already in place because
   the view aliases [buf]. *)
let[@inline] sync_tpp t =
  match t.tpp with
  | Some s -> Tpp.write_header_into t.buf ~off:Ethernet.size s
  | None -> ()

(* A [cache.code = None] TPP on a rendered frame means the program was
   unencodable at render time (its area in [buf] is zeros): forcing
   {!Tpp.program_bytes} re-raises the encoder's [Invalid_argument], so
   exporting such a frame fails exactly as the record writer did. *)
let[@inline] check_encodable t =
  match t.tpp with
  | Some s when Option.is_none s.Tpp.cache.Tpp.code ->
    ignore (Tpp.program_bytes s)
  | _ -> ()

let serialize_into w t =
  check_encodable t;
  sync_tpp t;
  Buf.Writer.bytes_sub w t.buf ~pos:0 ~len:t.len

let serialize t =
  check_encodable t;
  sync_tpp t;
  Bytes.sub t.buf 0 t.len

(* ---- Parse: wire bytes -> flat frame (one copy, offsets computed
   while the record codecs validate each header) ---- *)

let parse ?len b =
  try
    let r = Buf.Reader.of_bytes ?len b in
    let eth = Ethernet.read r in
    let tpp_res =
      if eth.Ethernet.ethertype = Ethernet.ethertype_tpp then
        match Tpp.read r with
        | Error e -> Error ("bad TPP section: " ^ e)
        | Ok tpp -> Ok (Some tpp)
      else Ok None
    in
    match tpp_res with
    | Error e -> Error e
    | Ok tpp ->
      let l3_ethertype =
        match tpp with
        | Some s -> s.Tpp.inner_ethertype
        | None -> eth.Ethernet.ethertype
      in
      let l3 = Buf.Reader.pos r in
      let ip_off = ref (-1) and udp_off = ref (-1) in
      if l3_ethertype = Ethernet.ethertype_ipv4 then begin
        let ip, ip_payload = Ipv4.Header.read r in
        if Buf.Reader.remaining r < ip_payload then
          invalid_arg "Frame.parse: truncated IPv4";
        ip_off := l3;
        if ip.Ipv4.Header.proto = Ipv4.proto_udp then begin
          let _udp, udp_payload = Udp.read r in
          if udp_payload + Udp.size <> ip_payload then
            invalid_arg "Frame.parse: IPv4/UDP length mismatch";
          udp_off := l3 + Ipv4.Header.size;
          Buf.Reader.skip r udp_payload
        end
        else Buf.Reader.skip r ip_payload
      end
      else Buf.Reader.skip r (Buf.Reader.remaining r);
      let wire_len = Buf.Reader.pos r in
      let buf = Bytes.sub b 0 wire_len in
      (match tpp with
      | Some s ->
        let prog = Instr.size * Array.length s.Tpp.program in
        Tpp.rebase s ~memory:buf ~mem_off:(Ethernet.size + 16 + prog)
      | None -> ());
      let pay_off =
        if !udp_off >= 0 then !udp_off + Udp.size
        else if !ip_off >= 0 then !ip_off + Ipv4.Header.size
        else l3
      in
      Ok
        {
          id = fresh_id ();
          buf;
          len = wire_len;
          tpp;
          ip_off = !ip_off;
          udp_off = !udp_off;
          pay_off;
          meta = Meta.create ();
          flow_hash_cache = min_int;
          tx_end = 0;
          home = no_pool;
          in_free_list = false;
        }
  with
  | Buf.Out_of_bounds what -> Error ("truncated frame: " ^ what)
  | Invalid_argument what -> Error what

(* ---- Cross-domain wire transfer (shard boundaries) ----

   A frame crossing a shard boundary travels as its bare wire image
   inside a flat chunk buffer: [blit_wire] copies the image out on the
   emitting shard, [materialize] rebuilds a frame from it on the owning
   shard — from that shard's *own* pool, so the rebuilt frame recycles
   normally (the emitter recycles its original into its local pool the
   moment the blit returns). *)

let blit_wire t dst ~pos =
  check_encodable t;
  sync_tpp t;
  Bytes.blit t.buf 0 dst pos t.len;
  t.len

(* Offsets from a trusted wire image: the emitter rendered it with the
   same layout rules [parse] validates, so they are recomputed by pure
   arithmetic (no codec round-trip on the boundary hot path). The
   QCheck boundary-codec property pins this against [parse]. *)
let set_l3_offsets t ~l3 ~ethertype =
  if ethertype = Ethernet.ethertype_ipv4 then begin
    t.ip_off <- l3;
    if Ipv4.Header.Flat.proto t.buf ~off:l3 = Ipv4.proto_udp then begin
      t.udp_off <- l3 + Ipv4.Header.size;
      t.pay_off <- t.udp_off + Udp.size
    end
    else begin
      t.udp_off <- -1;
      t.pay_off <- l3 + Ipv4.Header.size
    end
  end
  else begin
    t.ip_off <- -1;
    t.udp_off <- -1;
    t.pay_off <- l3
  end

(* ---- Structural surgery (cold paths) ---- *)

let with_tpp t tpp =
  let l3_start = if t.ip_off >= 0 then t.ip_off else t.pay_off in
  let l3_len = t.len - l3_start in
  let new_ethertype =
    match tpp with
    | Some _ -> Ethernet.ethertype_tpp
    | None ->
      if t.ip_off >= 0 then Ethernet.ethertype_ipv4 else ethertype t
  in
  let sec = match tpp with Some s -> Tpp.section_size s | None -> 0 in
  let buf = Bytes.create (Ethernet.size + sec + l3_len) in
  Bytes.blit t.buf 0 buf 0 12;
  Ethernet.Flat.set_ethertype buf ~off:0 new_ethertype;
  (match tpp with
  | Some s ->
    Tpp.write_header_into buf ~off:Ethernet.size s;
    let prog = Tpp.program_bytes s in
    let prog_len = Bytes.length prog in
    Bytes.blit prog 0 buf (Ethernet.size + 16) prog_len;
    Tpp.rebase s ~memory:buf ~mem_off:(Ethernet.size + 16 + prog_len)
  | None -> ());
  Bytes.blit t.buf l3_start buf (Ethernet.size + sec) l3_len;
  let shift = Ethernet.size + sec - l3_start in
  (* The flow hash never covers the TPP section, so its cache survives. *)
  {
    t with
    buf;
    len = Ethernet.size + sec + l3_len;
    tpp;
    ip_off = (if t.ip_off >= 0 then t.ip_off + shift else -1);
    udp_off = (if t.udp_off >= 0 then t.udp_off + shift else -1);
    pay_off = t.pay_off + shift;
    meta = Meta.copy t.meta;
    home = no_pool;
    in_free_list = false;
  }

let clone t =
  sync_tpp t;
  let buf = Bytes.sub t.buf 0 t.len in
  let tpp =
    Option.map (fun s -> Tpp.reseat s ~memory:buf ~mem_off:s.Tpp.mem_off) t.tpp
  in
  {
    t with
    id = fresh_id ();
    buf;
    tpp;
    meta = Meta.create ();
    home = no_pool;
    in_free_list = false;
  }

(* ---- Frame pool ---- *)

module Pool = struct
  type frame = t

  type t = pool

  (* 2048 comfortably holds an MTU-sized datagram plus the largest TPP
     section the end-host stack emits. *)
  let default_frame_bytes = 2048

  let create ?(frame_bytes = default_frame_bytes) () =
    if frame_bytes < Ethernet.size then invalid_arg "Frame.Pool.create: frame_bytes";
    {
      frame_bytes;
      pool_dom = (Domain.self () :> int);
      free = [||];
      free_len = 0;
      p_created = 0;
      p_reused = 0;
    }

  let take p =
    if p.free_len > 0 then begin
      p.free_len <- p.free_len - 1;
      let t = p.free.(p.free_len) in
      p.free.(p.free_len) <- Obj.magic 0;  (* never read: below free_len *)
      p.p_reused <- p.p_reused + 1;
      t.in_free_list <- false;
      t.id <- fresh_id ();
      Meta.clear t.meta;
      t
    end
    else begin
      p.p_created <- p.p_created + 1;
      {
        id = fresh_id ();
        buf = Bytes.create p.frame_bytes;
        len = 0;
        tpp = None;
        ip_off = -1;
        udp_off = -1;
        pay_off = 0;
        meta = Meta.create ();
        flow_hash_cache = min_int;
        tx_end = 0;
        home = p;
        in_free_list = false;
      }
    end

  let udp_frame p ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ?ttl
      ?dscp ?tpp ~payload () =
    let t = take p in
    build_udp t ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ?ttl ?dscp
      ?tpp ~payload ();
    t

  let outstanding p = p.p_created - p.free_len
  let created p = p.p_created
  let reused p = p.p_reused
end

let materialize ~pool ~id ~hop_count src ~pos ~len =
  let t = Pool.take pool in
  if Bytes.length t.buf < len then t.buf <- Bytes.create len;
  Bytes.blit src pos t.buf 0 len;
  t.id <- id;
  t.len <- len;
  t.flow_hash_cache <- min_int;
  t.meta.Meta.hop_count <- hop_count;
  let ety = Ethernet.Flat.ethertype t.buf ~off:0 in
  if ety = Ethernet.ethertype_tpp then begin
    (* The TPP view must be rebuilt (program array, compile cache,
       aliasing memory window); [Tpp.read] validates the section and
       the process-wide compile cache makes recompilation a lookup. *)
    let r =
      Buf.Reader.of_bytes ~pos:Ethernet.size ~len:(len - Ethernet.size) t.buf
    in
    match Tpp.read r with
    | Error e -> invalid_arg ("Frame.materialize: bad TPP section: " ^ e)
    | Ok s ->
      let prog = Instr.size * Array.length s.Tpp.program in
      Tpp.rebase s ~memory:t.buf ~mem_off:(Ethernet.size + 16 + prog);
      t.tpp <- Some s;
      set_l3_offsets t ~l3:(Ethernet.size + Buf.Reader.pos r)
        ~ethertype:s.Tpp.inner_ethertype
  end
  else begin
    t.tpp <- None;
    set_l3_offsets t ~l3:Ethernet.size ~ethertype:ety
  end;
  t

(* Returns a pooled frame to its free list. Safe to call on any frame:
   unpooled frames, frames already in their free list, and frames being
   recycled from a foreign domain are all left alone. After recycling,
   the caller must not touch the frame again — the pool will hand its
   buffer to a future packet — nor its TPP, if that was a [Tpp.copy]:
   the copy goes back to its family's spare stack. *)
let recycle t =
  let p = t.home in
  if
    p != no_pool
    && (not t.in_free_list)
    && (Domain.self () :> int) = p.pool_dom
  then begin
    t.in_free_list <- true;
    (match t.tpp with Some s -> Tpp.release s ~memory:t.buf | None -> ());
    t.tpp <- None;
    if p.free_len = Array.length p.free then begin
      let grown = Array.make (max 16 (2 * Array.length p.free)) t in
      Array.blit p.free 0 grown 0 p.free_len;
      p.free <- grown
    end;
    p.free.(p.free_len) <- t;
    p.free_len <- p.free_len + 1
  end

let pp fmt t =
  Format.fprintf fmt "@[<v>frame #%d %a%s%a@]" t.id Ethernet.pp (eth t)
    (match t.tpp with Some _ -> " +TPP" | None -> "")
    (Format.pp_print_option
       (fun fmt h -> Format.fprintf fmt " %a" Ipv4.Header.pp h))
    (ip t)
