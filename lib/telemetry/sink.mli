(** The postcard ingest buffer between the dataplane and the collector.

    Producers (switch taps, end-host emitters) append fixed-size
    {!Wire} cards into the current chunk, one word-wide store per
    field; full chunks rotate onto a {!Tpp_util.Ring} of pending
    chunks, and the collector drains them in place, recycling each
    chunk back to a free list. Steady state allocates nothing: the same [max_chunks] byte
    buffers circulate forever.

    Memory is bounded by construction: at most [max_chunks] chunks ever
    exist. When a producer outruns the collector and every chunk is
    full, the {e oldest} pending chunk is overwritten (its cards are
    counted in {!dropped}) — the newest telemetry wins, exactly what a
    reacting controller wants. *)

type t

val create : ?cards_per_chunk:int -> ?max_chunks:int -> unit -> t
(** [cards_per_chunk] (default 1024) cards per chunk; [max_chunks]
    (default 64) bounds total chunks alive, pending and free. At least
    2 chunks. *)

val emit :
  t ->
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
(** Appends one card. Allocation-free once the chunk pool has grown to
    its working set. *)

val emit_hop :
  t ->
  now:int ->
  switch_id:int ->
  in_port:int ->
  out_port:int ->
  queue_bytes:int ->
  version:int ->
  frame_id:int ->
  flow_hash:int ->
  wire_bytes:int ->
  entry:int ->
  unit
(** {!emit} specialised to the switch hot path (kind {!Wire.Hop}). *)

val drain : t -> (bytes -> off:int -> unit) -> unit
(** Calls the decoder once per pending card, the current partial chunk
    included, oldest chunk first, recycling each chunk as it is read.
    Every card pending at the call is read: none is dropped. The
    callback must not retain [bytes] (the buffer is reused) and must
    not emit into this sink. Allocation-free. *)

val pending : t -> int
(** Cards buffered and not yet drained. *)

val emitted : t -> int
(** Cards ever accepted (drops excluded). *)

val dropped : t -> int
(** Cards lost to chunk-pool exhaustion (collector too slow). *)

val chunks_alive : t -> int
(** Chunks currently allocated; never exceeds [max_chunks]. *)

val card_bytes_alive : t -> int
(** Total buffer bytes held — the bounded-memory witness. *)
