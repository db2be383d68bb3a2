(* Structure-of-arrays binary min-heap.

   Keys live in four parallel int arrays — priority, emission stamp,
   canonical tie key, insertion sequence — so push/pop never allocate
   an entry record and comparisons touch unboxed ints only. Values are
   stored as [Obj.t] internally: that lets a vacated slot be
   overwritten with a unit sentinel, so popped values (event closures,
   and the frames they capture) become garbage the moment they leave
   the heap instead of being pinned by the backing array.

   Ordering is lexicographic (prio, emitted, tie, seq). [emitted] and
   [tie] default to 0, making the order plain (prio, insertion) — FIFO
   among equal priorities — for callers that never pass them. Callers
   that stamp every push (the simulation engine stamps its clock, and
   backdates entries adopted from another shard to their original
   emission time) get sub-priority ordering that is a pure function of
   the stamps, not of when the entry happened to be pushed. The [tie]
   key makes same-(prio, emitted) order content-addressed: the engine
   packs (event kind, node, port) into it, so two events that collide
   on both time and emission stamp still pop in an order independent
   of push order — the property the sharded simulator needs to
   reproduce the sequential schedule exactly. *)

type 'a t = {
  mutable prios : int array;
  mutable emits : int array;
  mutable ties : int array;
  mutable seqs : int array;
  mutable values : Obj.t array;
  mutable len : int;
  mutable next_seq : int;
}

let hole = Obj.repr ()

let create () =
  { prios = [||]; emits = [||]; ties = [||]; seqs = [||]; values = [||];
    len = 0; next_seq = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Entry [i] orders before the (prio, emit, tie, seq) key when its
   priority is smaller, then by earlier emission stamp, then smaller
   tie key, then insertion order. *)
let before t i prio emit tie seq =
  t.prios.(i) < prio
  || (t.prios.(i) = prio
      && (t.emits.(i) < emit
          || (t.emits.(i) = emit
              && (t.ties.(i) < tie
                  || (t.ties.(i) = tie && t.seqs.(i) < seq)))))

let ensure t =
  if t.len >= Array.length t.prios then begin
    let cap = max 8 (2 * Array.length t.prios) in
    let prios = Array.make cap 0 in
    let emits = Array.make cap 0 in
    let ties = Array.make cap 0 in
    let seqs = Array.make cap 0 in
    let values = Array.make cap hole in
    Array.blit t.prios 0 prios 0 t.len;
    Array.blit t.emits 0 emits 0 t.len;
    Array.blit t.ties 0 ties 0 t.len;
    Array.blit t.seqs 0 seqs 0 t.len;
    Array.blit t.values 0 values 0 t.len;
    t.prios <- prios;
    t.emits <- emits;
    t.ties <- ties;
    t.seqs <- seqs;
    t.values <- values
  end

(* The required-label variants exist because applying an optional
   argument as [~emitted:e] boxes it in [Some] at every call site —
   one minor allocation per push, which the engine's hot path cannot
   afford. *)
let push_keyed t ~prio ~emitted ~tie value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  ensure t;
  (* Sift the hole up from the end, then drop the new entry in. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t parent prio emitted tie seq then continue := false
    else begin
      t.prios.(!i) <- t.prios.(parent);
      t.emits.(!i) <- t.emits.(parent);
      t.ties.(!i) <- t.ties.(parent);
      t.seqs.(!i) <- t.seqs.(parent);
      t.values.(!i) <- t.values.(parent);
      i := parent
    end
  done;
  t.prios.(!i) <- prio;
  t.emits.(!i) <- emitted;
  t.ties.(!i) <- tie;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- Obj.repr value

let push_stamped t ~prio ~emitted value =
  push_keyed t ~prio ~emitted ~tie:0 value

let push ?(emitted = 0) t ~prio value = push_stamped t ~prio ~emitted value

(* Removes the root, re-heapifies, and clears the vacated slot. *)
let remove_top t =
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    (* Sift the former last entry down from the root. *)
    let prio = t.prios.(last) and emit = t.emits.(last) in
    let tie = t.ties.(last) and seq = t.seqs.(last) in
    let v = t.values.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      let sp = ref prio and se = ref emit in
      let st = ref tie and ss = ref seq in
      if l < last && before t l !sp !se !st !ss then begin
        smallest := l;
        sp := t.prios.(l);
        se := t.emits.(l);
        st := t.ties.(l);
        ss := t.seqs.(l)
      end;
      if r < last && before t r !sp !se !st !ss then smallest := r;
      if !smallest = !i then continue := false
      else begin
        t.prios.(!i) <- t.prios.(!smallest);
        t.emits.(!i) <- t.emits.(!smallest);
        t.ties.(!i) <- t.ties.(!smallest);
        t.seqs.(!i) <- t.seqs.(!smallest);
        t.values.(!i) <- t.values.(!smallest);
        i := !smallest
      end
    done;
    t.prios.(!i) <- prio;
    t.emits.(!i) <- emit;
    t.ties.(!i) <- tie;
    t.seqs.(!i) <- seq;
    t.values.(!i) <- v
  end;
  t.values.(last) <- hole

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) in
    let value : 'a = Obj.obj t.values.(0) in
    remove_top t;
    Some (prio, value)
  end

let pop_value t ~default =
  if t.len = 0 then default
  else begin
    let value : 'a = Obj.obj t.values.(0) in
    remove_top t;
    value
  end

let peek_prio t = if t.len = 0 then None else Some t.prios.(0)

let peek_prio_or t ~default = if t.len = 0 then default else t.prios.(0)

let clear t =
  (* Drop the backing arrays entirely: a cleared heap must not keep the
     previously queued values (or anything they capture) alive. *)
  t.prios <- [||];
  t.emits <- [||];
  t.ties <- [||];
  t.seqs <- [||];
  t.values <- [||];
  t.len <- 0;
  t.next_seq <- 0
