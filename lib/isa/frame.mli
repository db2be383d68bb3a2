(** A simulated Ethernet frame, possibly carrying a TPP section.

    Zero-copy flat representation: a frame is one contiguous buffer
    holding its wire encoding (Ethernet at offset 0, then an optional
    TPP section, then IPv4/UDP/payload) plus integer offsets into it,
    computed once at construction or ingress {!parse}. Header reads are
    direct byte loads; in-flight rewrites (TTL, ECN, TPP memory words)
    patch the buffer in place — IPv4 via RFC 1624 incremental checksum
    update — so a switch hop allocates no header records, and
    {!serialize} is a single blit.

    The {!t.tpp} view aliases the frame's buffer: its packet memory
    window points at the memory bytes of the serialized section, so
    TCPU stores land directly in the wire image. The record codecs in
    [Tpp_packet] remain the validation and differential-testing oracle:
    {!parse} drives them to check every header, and the QCheck suite
    asserts flat and record serializations are byte-identical. *)

module Ethernet = Tpp_packet.Ethernet
module Ipv4 = Tpp_packet.Ipv4
module Udp = Tpp_packet.Udp

type t = {
  mutable id : int;  (** unique per simulation run, for tracing *)
  mutable buf : bytes;
      (** backing buffer; the wire image is [0, len) (pooled frames may
          have spare capacity beyond [len]) *)
  mutable len : int;
  mutable tpp : Tpp.t option;
      (** TPP view whose packet memory aliases [buf]; its mutable header
          state (flags/sp/hop) is flushed into [buf] on serialization *)
  mutable ip_off : int;   (** IPv4 header offset in [buf]; -1 = absent *)
  mutable udp_off : int;  (** UDP header offset in [buf]; -1 = absent *)
  mutable pay_off : int;  (** payload offset (= [len] when empty) *)
  meta : Meta.t;
  mutable flow_hash_cache : int;
      (** lazily memoized {!flow_hash} ([min_int] = not yet computed) *)
  mutable home : pool;
      (** free list this frame returns to on {!recycle} *)
  mutable in_free_list : bool;
  mutable tx_end : int;
      (** end of the frame's latest transmission onto a link, in ns,
          never negative: the network's transmitter bookkeeping,
          meaningless elsewhere *)
}

and pool

val make :
  ?tpp:Tpp.t ->
  ?ip:Ipv4.Header.t ->
  ?udp:Udp.t ->
  ?payload:bytes ->
  eth:Ethernet.t ->
  unit ->
  t
(** Builds a frame with a fresh id, rendering the wire image
    immediately. Raises [Invalid_argument] when the header stack is
    inconsistent (e.g. a TPP on a non-TPP ethertype, or a UDP header
    without an IPv4 header), or when [tpp]'s program is unencodable.
    The [tpp] handle is rebased onto the frame's buffer: the caller's
    subsequent [Tpp.mem_set]s patch the frame in place. *)

val udp_frame :
  src_mac:Tpp_packet.Mac.t ->
  dst_mac:Tpp_packet.Mac.t ->
  src_ip:Ipv4.Addr.t ->
  dst_ip:Ipv4.Addr.t ->
  src_port:int ->
  dst_port:int ->
  ?ttl:int ->
  ?dscp:int ->
  ?tpp:Tpp.t ->
  payload:bytes ->
  unit ->
  t
(** A UDP datagram; when [tpp] is given the frame becomes a TPP frame
    encapsulating the IPv4 packet (so it is routed like normal traffic,
    as the paper requires); [tpp.inner_ethertype] is set accordingly.
    [dscp] (default 0) sets the IPv4 DSCP codepoint, which switch queue
    classifiers map to a priority queue. *)

val placeholder : unit -> t
(** A minimal inert frame (Ethernet header only, zero MACs); rings and
    slabs use it as their dummy slot filler. Never transmitted. *)

(** {2 Field views}

    Reads decode straight out of the flat buffer. The [_exn] behaviour
    of layer-specific accessors on a frame lacking that layer is
    [Invalid_argument]; check {!has_ip}/{!has_udp} first on mixed
    traffic, or use the option-returning record getters. *)

val eth : t -> Ethernet.t
val ethertype : t -> int
val eth_src : t -> Tpp_packet.Mac.t
val eth_dst : t -> Tpp_packet.Mac.t

val has_ip : t -> bool

val ip : t -> Ipv4.Header.t option
(** Materializes the IPv4 header as a record (allocates); prefer the
    field accessors below on hot paths. *)

val ip_src : t -> Ipv4.Addr.t
val ip_dst : t -> Ipv4.Addr.t
val ip_proto : t -> int
val ip_ttl : t -> int
val ip_dscp : t -> int
val ip_ecn : t -> int
val ip_ident : t -> int

val set_ip_ttl : t -> int -> unit
(** In-place patch with incremental checksum update; the stored IPv4
    checksum remains equal to a full recompute. Likewise below. *)

val set_ip_ecn : t -> int -> unit
val set_ip_dscp : t -> int -> unit
val set_ip_ident : t -> int -> unit

val has_udp : t -> bool
val udp : t -> Udp.t option
val udp_src_port : t -> int
val udp_dst_port : t -> int

val payload_len : t -> int

val payload : t -> bytes
(** Copy of the payload bytes (allocates); hot paths should use
    {!payload_len}/{!payload_u32}. *)

val payload_u32 : t -> int -> int
(** Big-endian 32-bit word at a byte offset within the payload. Raises
    [Buf.Out_of_bounds]. *)

val trim : t -> keep:int -> unit
(** NDP-style packet trimming: cuts the UDP payload to its first [keep]
    bytes in place (no-op when already that short). Patches the IPv4
    total length under the incremental-checksum discipline and the UDP
    length field; offsets and the memoized flow hash stay valid. Zero
    allocation. Raises [Invalid_argument] when the frame has no UDP
    header or [keep < 0]. *)

val flow_hash_values :
  src:int -> dst:int -> proto:int -> src_port:int -> dst_port:int -> int
(** Deterministic 5-tuple hash (ECMP path selection). Exposed so the
    control plane can predict the dataplane's choice exactly. *)

val flow_hash : t -> int
(** {!flow_hash_values} over this frame's headers: the IPv4/UDP fields
    when present, else the MAC addresses. Symmetric headers hash the
    same on every switch, so a flow pins to one path. Memoized; sound
    because in-flight rewrites never touch the 5-tuple. *)

val wire_size : t -> int
(** Bytes this frame occupies on a link, including the 4-byte FCS and
    the 64-byte Ethernet minimum. Queueing and transmission delays use
    this value. *)

val serialize : t -> bytes
(** The frame's wire image as fresh bytes (one blit, after flushing the
    TPP header state). *)

val serialize_into : Tpp_util.Buf.Writer.t -> t -> unit
(** {!serialize}, but appending into a caller-provided writer. *)

val parse : ?len:int -> bytes -> (t, string) result
(** [parse ?len b] decodes the first [len] bytes of [b] (default: all of
    it) — [len] lets a caller parse straight out of a reused scratch
    buffer without copying. Every header is validated by the record
    codecs; the resulting frame owns a private copy of the wire image
    with offsets precomputed, and is never pooled. *)

val with_tpp : t -> Tpp.t option -> t
(** Same frame (same id, a copy of its metadata) with the TPP section
    replaced — the one layout-changing operation; builds a fresh,
    unpooled buffer, so the original may be recycled at once. [tpp] is
    rebased onto it. *)

val clone : t -> t
(** Independent copy with a fresh id, fresh metadata and a private
    buffer (the TPP view is reseated onto it, sharing the program and
    compiled-code cell); used when a switch floods a frame out of
    several ports. *)

(** {2 Frame pool}

    A per-flow free list of fixed-capacity frames: steady-state traffic
    reuses one buffer per in-flight packet instead of allocating per
    send. Ownership rule: a pool belongs to the domain that created it;
    {!recycle} from another domain is a no-op (the frame ages out to
    the GC), so pooling never breaks sharded determinism. *)

module Pool : sig
  type frame = t
  type t = pool

  val create : ?frame_bytes:int -> unit -> t
  (** [frame_bytes] (default 2048) is the buffer capacity preallocated
      per frame — MTU-sized datagram plus TPP section headroom. *)

  val take : t -> frame
  (** A frame from the free list (buffer retained, fresh id, cleared
      metadata) or a newly allocated one. Its contents are unspecified
      until rendered by {!udp_frame}. *)

  val udp_frame :
    t ->
    src_mac:Tpp_packet.Mac.t ->
    dst_mac:Tpp_packet.Mac.t ->
    src_ip:Ipv4.Addr.t ->
    dst_ip:Ipv4.Addr.t ->
    src_port:int ->
    dst_port:int ->
    ?ttl:int ->
    ?dscp:int ->
    ?tpp:Tpp.t ->
    payload:bytes ->
    unit ->
    frame
  (** {!Frame.udp_frame} rendered into a pooled frame; allocation-free
      when the free list is non-empty and the packet fits
      [frame_bytes]. *)

  val outstanding : t -> int
  (** Frames taken and not yet recycled. *)

  val created : t -> int
  val reused : t -> int
end

(** {2 Cross-domain wire transfer}

    A frame crossing a shard boundary travels as its bare wire image
    inside a flat chunk buffer ({!Tpp_parsim.Parsim.Boundary}):
    {!blit_wire} copies the image out on the emitting shard, and
    {!materialize} rebuilds an equivalent frame on the owning shard from
    that shard's {e own} pool — so boundary frames recycle normally on
    both sides instead of aging out to the GC. *)

val blit_wire : t -> bytes -> pos:int -> int
(** [blit_wire t dst ~pos] flushes the TPP header state and copies the
    wire image into [dst] at [pos]; returns the number of bytes written
    ([t.len] — the caller must have ensured that much room). Same
    encodability requirement as {!serialize}: a hand-built TPP whose
    program cannot be encoded raises [Invalid_argument], so such frames
    cannot cross a shard boundary, just as [Net.host_send]'s wire check
    refuses them whenever their header layout is new. *)

val materialize :
  pool:Pool.t -> id:int -> hop_count:int -> bytes -> pos:int -> len:int -> t
(** [materialize ~pool ~id ~hop_count src ~pos ~len] rebuilds a frame
    from the [len]-byte wire image at [src.(pos)] into a frame taken
    from [pool], preserving the original's [id] and [hop_count] (the
    only metadata that survives a hop). Offsets are recomputed by
    arithmetic on the trusted image (the emitter rendered it with the
    layout {!parse} validates); a TPP section is revalidated and its
    aliasing view rebuilt via the process-wide compile cache. *)

val recycle : t -> unit
(** Returns a pooled frame to its free list. Safe on any frame:
    unpooled frames, double recycles and foreign-domain recycles are
    no-ops. After a successful recycle the caller must not touch the
    frame again, nor a {!Tpp.copy} it carried: that record returns to
    its family's spare stack ({!Tpp.release}). *)

val pp : Format.formatter -> t -> unit
