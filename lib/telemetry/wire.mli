(** The binary postcard wire format.

    One postcard is a fixed {!bytes_per_card}-byte big-endian record,
    and the only postcard the library emits: E6's ndb baseline counts
    these hop cards too. Every field is an
    immediate int, written into a preallocated chunk with one
    word-wide big-endian store per field (read back likewise): the hot
    path allocates nothing. A u64 field holds the 63-bit int with bit
    63 clear, so any int, negative ones included, reads back as
    itself; narrower fields keep their low bits, except [wire_bytes]
    and [entry], which saturate.

    Layout (offsets in bytes):

    {v
    0   u8   kind
    1   u8   in_port
    2   u16  out_port
    4   u32  node        switch id (hop) / host node id (end-host)
    8   u32  value       queue depth in bytes (hop) / counter value
    12  u32  version     matched table version (hop) / 0
    16  u64  subject     frame id (hop) / probe seq or cause (end-host)
    24  u64  time_ns
    32  u32  flow_hash   5-tuple flow hash (hop) / 0
    36  u16  wire_bytes  frame wire size (hop) / 0
    38  u16  entry       matched entry id, saturated to 16 bits
    v}

    Decoding is in place: accessors read straight out of a chunk at a
    card offset; no record is ever materialized. *)

val bytes_per_card : int
(** 40. *)

(** What a postcard reports. End-host kinds carry counter evidence
    (satellite probes, fault injection) so the controller sees more
    than switch-side queue depths. *)
type kind =
  | Hop  (** a frame crossed a switch: the ndb postcard, in binary *)
  | Probe_retry  (** an end-host reliable probe retransmitted *)
  | Probe_failure  (** a probe abandoned after all retries *)
  | Fault_event  (** the fault layer dropped/corrupted/froze a frame *)

val kind_code : kind -> int

(** {2 Encoding} — writes one card at [off] in [buf]; the caller
    guarantees [off + bytes_per_card <= Bytes.length buf]. *)

val write :
  bytes ->
  off:int ->
  kind:int ->
  in_port:int ->
  out_port:int ->
  node:int ->
  value:int ->
  version:int ->
  subject:int ->
  time_ns:int ->
  flow_hash:int ->
  wire_bytes:int ->
  entry:int ->
  unit

(** {2 In-place decoding} — field reads at a card offset. *)

val kind : bytes -> off:int -> int
val in_port : bytes -> off:int -> int
val out_port : bytes -> off:int -> int
val node : bytes -> off:int -> int
val value : bytes -> off:int -> int
val version : bytes -> off:int -> int
val subject : bytes -> off:int -> int
val time_ns : bytes -> off:int -> int
val flow_hash : bytes -> off:int -> int
val wire_bytes : bytes -> off:int -> int
val entry : bytes -> off:int -> int
