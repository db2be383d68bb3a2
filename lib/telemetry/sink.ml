module Ring = Tpp_util.Ring

type chunk = { buf : bytes; mutable len : int }
(* [len] is the fill level in bytes; always a multiple of
   [Wire.bytes_per_card]. *)

type t = {
  chunk_bytes : int;
  max_chunks : int;
  mutable cur : chunk;
  pending_q : chunk Ring.t;  (* full (or flushed) chunks, oldest first *)
  free : chunk Ring.t;       (* drained chunks awaiting reuse *)
  mutable chunks_alive : int;
  mutable emitted : int;
  mutable dropped : int;
}

let dummy_chunk = { buf = Bytes.empty; len = 0 }

let create ?(cards_per_chunk = 1024) ?(max_chunks = 64) () =
  if cards_per_chunk < 1 then invalid_arg "Sink.create: cards_per_chunk";
  let max_chunks = max 2 max_chunks in
  let chunk_bytes = cards_per_chunk * Wire.bytes_per_card in
  {
    chunk_bytes;
    max_chunks;
    cur = { buf = Bytes.create chunk_bytes; len = 0 };
    pending_q = Ring.create ~capacity:max_chunks ~dummy:dummy_chunk ();
    free = Ring.create ~capacity:max_chunks ~dummy:dummy_chunk ();
    chunks_alive = 1;
    emitted = 0;
    dropped = 0;
  }

(* The current chunk is full: park it on the pending ring and install an
   empty one. Reuse a drained chunk when one is free; allocate while
   under the bound; past the bound, cannibalise the oldest pending chunk
   — its cards are lost (counted), memory stays put. [dummy_chunk] is
   the empty-ring sentinel, so no option is boxed per rotation. *)
let rotate t =
  Ring.push t.pending_q t.cur;
  let next = Ring.take_or t.free ~default:dummy_chunk in
  let next =
    if next != dummy_chunk then next
    else if t.chunks_alive < t.max_chunks then begin
      t.chunks_alive <- t.chunks_alive + 1;
      { buf = Bytes.create t.chunk_bytes; len = 0 }
    end
    else begin
      (* never empty: we just pushed cur *)
      let oldest = Ring.take_or t.pending_q ~default:dummy_chunk in
      t.dropped <- t.dropped + (oldest.len / Wire.bytes_per_card);
      oldest
    end
  in
  next.len <- 0;
  t.cur <- next

let emit t ~kind ~in_port ~out_port ~node ~value ~version ~subject ~time_ns
    ~flow_hash ~wire_bytes ~entry =
  if t.cur.len + Wire.bytes_per_card > t.chunk_bytes then rotate t;
  let c = t.cur in
  Wire.write c.buf ~off:c.len ~kind ~in_port ~out_port ~node ~value ~version
    ~subject ~time_ns ~flow_hash ~wire_bytes ~entry;
  c.len <- c.len + Wire.bytes_per_card;
  t.emitted <- t.emitted + 1

let emit_hop t ~now ~switch_id ~in_port ~out_port ~queue_bytes ~version
    ~frame_id ~flow_hash ~wire_bytes ~entry =
  emit t ~kind:0 ~in_port ~out_port ~node:switch_id ~value:queue_bytes
    ~version ~subject:frame_id ~time_ns:now ~flow_hash ~wire_bytes ~entry

(* Top level rather than local to [drain]: a local loop would be a
   closure allocated per window. *)
let rec drain_pending t f =
  let c = Ring.take_or t.pending_q ~default:dummy_chunk in
  if c != dummy_chunk then begin
    let n = c.len in
    let off = ref 0 in
    while !off < n do
      f c.buf ~off:!off;
      off := !off + Wire.bytes_per_card
    done;
    c.len <- 0;
    Ring.push t.free c;
    drain_pending t f
  end

let drain t f =
  (* Park the partial chunk on the pending ring so a window sees
     everything emitted before it; chunk order on the ring is emission
     order. Its replacement comes from the chunks this drain frees, so
     an exhausted pool never cannibalises a chunk it is about to read,
     as a [rotate] here would. *)
  let parked = t.cur.len > 0 in
  if parked then Ring.push t.pending_q t.cur;
  drain_pending t f;
  if parked then t.cur <- Ring.take_or t.free ~default:dummy_chunk

let pending t =
  let cards = ref (t.cur.len / Wire.bytes_per_card) in
  Ring.iter (fun c -> cards := !cards + (c.len / Wire.bytes_per_card))
    t.pending_q;
  !cards

let emitted t = t.emitted
let dropped t = t.dropped
let chunks_alive t = t.chunks_alive
let card_bytes_alive t = t.chunks_alive * t.chunk_bytes
