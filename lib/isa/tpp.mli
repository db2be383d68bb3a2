(** A tiny packet program: header, instructions, packet memory
    (paper Figure 4).

    The TPP section sits directly after the Ethernet header of a frame
    whose ethertype is {!Tpp_packet.Ethernet.ethertype_tpp}, and
    encapsulates the rest of the frame. The section never grows or
    shrinks inside the network: end-hosts preallocate all packet memory.

    Packet memory layout convention: the assembler's constant pool (wide
    immediates of CSTORE/CEXEC) occupies the front of packet memory; the
    stack (in stack addressing mode) or the hop-indexed blocks (in hop
    mode) start at {!base}, right after the pool.

    Packet memory is a window of a backing buffer. A standalone TPP owns
    a private buffer, or shares it copy-on-write with its {!copy}s; a
    TPP embedded in a flat {!Frame} aliases the frame's wire buffer
    ({!rebase}), so every TCPU word store patches the wire image in
    place. *)

type addr_mode = Stack | Hop_addressed

type compiled = ..
(** Opaque slot for a lowered (compiled) form of the program. The ISA
    layer knows nothing about execution; the TCPU's compiler
    ({!Tpp_asic.Compile}) extends this type with its own constructor. *)

type compiled += Not_compiled

type state =
  | Private   (** standalone memory only this record writes *)
  | Shared
      (** standalone memory that {!copy}s may also read: the first
          {!mem_set} on this record copies it first *)
  | Embedded  (** a window of a frame's (or a caller's) buffer *)
  | Retired
      (** a {!copy} whose pooled frame was recycled; every use raises
          [Invalid_argument] until {!copy} hands the record out again *)
(** What a record may do with its packet memory. *)

type exec_cache = {
  mutable key : string option;  (** memoized {!program_key} *)
  handle : compiled Atomic.t;   (** compiled form, shared across copies *)
  mutable code : bytes option;  (** memoized {!program_bytes} *)
  owner : int;
      (** [Domain.id] of the domain that made the family; only it
          touches [spare] *)
  mutable spare : t array;
      (** retired copies in the first [spare_len] slots, reused by {!copy} *)
  mutable spare_len : int;
}
(** Shared by every {!copy} of a TPP, so one compilation serves the
    whole family. Domain-safe: the handle is atomic, the key is
    idempotent to recompute, and the spare stack is owner-only. *)

and t = {
  mutable faulted : bool;
      (** Set by a TCPU when execution faulted; the packet still forwards. *)
  addr_mode : addr_mode;
  perhop_len : int;
      (** Bytes of per-hop data (hop mode only); word multiple. *)
  base : int;
      (** First byte of stack/hop data, i.e. the constant pool length. *)
  mutable sp : int;
      (** Stack pointer (byte offset into memory); stack mode only. *)
  mutable hop : int;
      (** Hop counter, incremented by every TCPU that runs the program. *)
  program : Instr.t array;
  mutable memory : bytes;
      (** Backing buffer; packet memory is the {!mem_off} window. Write
          it only through {!mem_set}, or after {!unshare}. *)
  mutable mem_off : int;
      (** Start of packet memory within {!memory}. *)
  mem_len : int;
      (** Packet memory length in bytes. *)
  mutable inner_ethertype : int;
      (** Ethertype of the encapsulated payload; 0 when raw/none. *)
  cache : exec_cache;
      (** Program-identity and compiled-code cell; never serialized. *)
  mutable state : state;
  minted : bool;
      (** Made by {!copy}: the record is recycled with the pooled frame
          that carries it ({!release}). *)
}

val header_size : int
(** On-wire header bytes (16, keeping the section 4-byte aligned). *)

val mem_len : t -> int
(** Packet memory length in bytes (pool + stack/hop area). *)

val section_size : t -> int
(** Total on-wire bytes: header + instructions + memory. *)

val make :
  ?addr_mode:addr_mode ->
  ?perhop_len:int ->
  ?pool:bytes ->
  ?inner_ethertype:int ->
  program:Instr.t list ->
  mem_len:int ->
  unit ->
  t
(** [make ~program ~mem_len ()] builds a TPP whose packet memory is the
    [pool] (default empty) followed by [mem_len] zero bytes. [sp] starts
    at the pool length. Raises [Invalid_argument] if any size breaks the
    wire format's 16-bit fields or word alignment. *)

val copy : t -> t
(** A copy for a host to re-send a template. The (immutable)
    instruction array and the compiled-code cell are shared with the
    original, so a template's whole family compiles at most once.

    Standalone packet memory is shared too, copy on write: both records
    become {!Shared}, and the first {!mem_set} on either gives that side
    a private copy, so neither ever sees the other's stores. Embedding
    the copy in a frame ({!rebase}) is then its one blit, straight from
    the original into the wire image. A copy of memory embedded in a
    frame is a snapshot with private memory, since TCPUs store into a
    frame's window in place.

    The copy's lifetime ends when a pooled frame carrying it is
    recycled ([Frame.recycle]): the record goes back to its family's
    spare stack, where a later [copy] in the same domain reuses it, so a
    warm family's copies allocate nothing. Using it after that raises
    [Invalid_argument]. Records from {!make}, {!read} and {!reseat}, and
    any record a caller passes to a frame directly, are never recycled.
    Raises [Invalid_argument] on a retired record. *)

val reseat : t -> memory:bytes -> mem_off:int -> t
(** Fresh view over a different backing buffer that already holds this
    TPP's memory image at [mem_off] (frame cloning). Shares the program
    and cache; snapshots the mutable header state. The view is
    {!Embedded} and never recycled. *)

val rebase : t -> memory:bytes -> mem_off:int -> unit
(** Moves this TPP's packet memory into [memory] at [mem_off], copying
    the current contents along, so subsequent {!mem_set}s write there
    (frame embedding). A {!Shared} buffer is only read, and stays with
    the records still sharing it. Raises [Invalid_argument] if the
    window does not fit or the record is retired. *)

val unshare : t -> unit
(** Gives a {!Shared} record its private copy of packet memory, as the
    first {!mem_set} would; executors that store into {!memory}
    directly call it before binding the buffer. Raises
    [Invalid_argument] on a retired record. *)

val release : t -> memory:bytes -> unit
(** [Frame.recycle]'s half of a copy's lifetime: [memory] is the buffer
    of the pooled frame being recycled. A {!copy} embedded in it is
    retired onto its family's spare stack when the calling domain owns
    the family; any other record is left alone. *)

val program_key : t -> string
(** Canonical identity of the instruction array: its wire encoding
    (tagged ["E"]), or a structural fallback (tagged ["M"]) for
    hand-built programs with unencodable operands. Memoized in the
    shared {!exec_cache}; equal keys imply identical programs. *)

val program_bytes : t -> bytes
(** The program's wire encoding, memoized in the shared cache. Raises
    [Invalid_argument] for hand-built programs with unencodable
    operands (exactly when {!write} would). Callers must not mutate. *)

val compiled_handle : t -> compiled
(** The family's compiled form ({!Not_compiled} until a TCPU first
    executes — and thereby compiles — any member). *)

val set_compiled_handle : t -> compiled -> unit

val mem_get : t -> int -> int
(** Word read at a byte offset within packet memory. Raises
    [Buf.Out_of_bounds]. *)

val mem_set : t -> int -> int -> unit
(** Word write; a {!Shared} record first takes a private copy of its
    memory. Raises [Buf.Out_of_bounds], or [Invalid_argument] on a
    retired record (as do {!mem_get} and {!write}). *)

val words : t -> int list
(** All packet-memory words, front to back, for inspection in tests. *)

val stack_values : t -> int list
(** Words pushed so far (between [base] and [sp]), bottom first. *)

val hop_block : t -> hop:int -> int list
(** The words of hop [hop]'s block (hop mode). *)

val write_header_into : bytes -> off:int -> t -> unit
(** Writes the 16-byte section header at [off]; the frame layer uses it
    to flush the mutable header state (flags, sp, hop) into a wire
    image whose memory bytes are already in place. *)

val write : Tpp_util.Buf.Writer.t -> t -> unit

val read : Tpp_util.Buf.Reader.t -> (t, string) result
(** Parses a section; checks field sanity (lengths, alignment, opcode
    validity) so a malformed TPP is rejected before execution. The
    result owns standalone packet memory. *)

val pp : Format.formatter -> t -> unit
