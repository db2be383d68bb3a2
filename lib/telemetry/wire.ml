(* Fixed 40-byte big-endian postcard records, written and read in place.
   See wire.mli for the layout. Each field is one word-wide big-endian
   load or store; the Int32/Int64 conversions around them are unboxed
   by the compiler, so encoding a card from the switch hot path
   allocates nothing, and neither does decoding one in the collector. *)

let bytes_per_card = 40

type kind = Hop | Probe_retry | Probe_failure | Fault_event

let kind_code = function
  | Hop -> 0
  | Probe_retry -> 1
  | Probe_failure -> 2
  | Fault_event -> 3

let u16 = 0xFFFF
let u32 = 0xFFFF_FFFF

(* Int64.of_int sign-extends; clearing bit 63 stores the 63-bit int as
   the byte-at-a-time codec did, so a negative int reads back as itself
   and the top byte never exceeds 0x7F. *)
let u63 = Int64.max_int

let set_u8 buf off v = Bytes.set_uint8 buf off (v land 0xFF)
let set_u16 buf off v = Bytes.set_uint16_be buf off (v land u16)
let set_u32 buf off v = Bytes.set_int32_be buf off (Int32.of_int v)
let set_u64 buf off v = Bytes.set_int64_be buf off (Int64.logand (Int64.of_int v) u63)
let get_u8 buf off = Bytes.get_uint8 buf off
let get_u16 buf off = Bytes.get_uint16_be buf off
let get_u32 buf off = Int32.to_int (Bytes.get_int32_be buf off) land u32

(* Int64.to_int keeps the low 63 bits: bit 63 is dropped, bit 62 is
   the sign. *)
let get_u64 buf off = Int64.to_int (Bytes.get_int64_be buf off)

let write buf ~off ~kind ~in_port ~out_port ~node ~value ~version ~subject
    ~time_ns ~flow_hash ~wire_bytes ~entry =
  set_u8 buf off kind;
  set_u8 buf (off + 1) in_port;
  set_u16 buf (off + 2) out_port;
  set_u32 buf (off + 4) node;
  set_u32 buf (off + 8) value;
  set_u32 buf (off + 12) version;
  set_u64 buf (off + 16) subject;
  set_u64 buf (off + 24) time_ns;
  set_u32 buf (off + 32) flow_hash;
  set_u16 buf (off + 36) (Int.min wire_bytes u16);
  set_u16 buf (off + 38) (Int.min entry u16)

let kind buf ~off = get_u8 buf off
let in_port buf ~off = get_u8 buf (off + 1)
let out_port buf ~off = get_u16 buf (off + 2)
let node buf ~off = get_u32 buf (off + 4)
let value buf ~off = get_u32 buf (off + 8)
let version buf ~off = get_u32 buf (off + 12)
let subject buf ~off = get_u64 buf (off + 16)
let time_ns buf ~off = get_u64 buf (off + 24)
let flow_hash buf ~off = get_u32 buf (off + 32)
let wire_bytes buf ~off = get_u16 buf (off + 36)
let entry buf ~off = get_u16 buf (off + 38)
