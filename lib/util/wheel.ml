(* Hierarchical timing wheel.

   Level 0 is an exact near window: 1024 one-nanosecond slots over
   bits 0..9 of the absolute timestamp. Above it sit ten levels of 32
   slots, each resolving one 5-bit digit: level L (L >= 1) spans bits
   [5L + 5, 5L + 10), so level 1 slots are 1024 ns wide and level 10
   slots ~36 simulated seconds. Together they cover bits 0..59.
   Entries at or beyond 2^60 ns (e.g. [max_int] sentinels) go to a
   heap-backed overflow and pop from there. The cursor only ever moves
   to a wheel entry's time, so it never leaves [0, 2^60): every
   overflow entry is later than every wheel entry, and the overflow
   pops only once the wheel is empty. The near window is what
   keeps the engine's common offsets cheap: a port dequeue (~85 ns) is
   usually filed once, straight into its exact slot, and a 1 us
   delivery twice.

   Placement is digit-based, not delta-based: an entry lives at the
   highest level where its digit of *absolute* time differs from the
   cursor's (level 0 when only bits 0..9 differ). That makes the slot a
   pure function of (timestamp, cursor prefix), so entries with equal
   timestamps always share one slot no matter when they were pushed
   relative to cursor movement. A delta-based wheel does not have this
   property (a later push of the same timestamp can land nearer the
   cursor and overtake an earlier one through a cascade), and losing it
   would break the engine's same-timestamp determinism.

   Everything is slab-allocated and intrusive: an entry is a stride-8
   window of one interleaved int array — (time, emit, tie, seq,
   payload, next) live in consecutive cells, so touching an entry costs
   one cache line instead of the six a parallel-arrays layout pays once
   the slab falls out of L2. The [f_next] cell threads both the free
   list and the per-slot lists. Occupancy is a bitmap per level: level
   0 keeps 32 words of 32 bits plus a 32-bit summary word (bit w set
   iff word w is nonzero), each coarse level one 32-bit word. Push,
   pop and cascade allocate nothing.

   Ordering contract (same as {!Heap}): pop in nondecreasing priority;
   among equal priorities, by emission stamp, then canonical tie key,
   then global insertion sequence — across wheel levels, cascades, and
   the overflow. The tie key makes same-(time, stamp) order
   content-addressed rather than push-order-dependent (the engine
   packs event kind, node and port into it), which is what lets a
   sharded run that adopts events from other shards reproduce the
   sequential pop order exactly.

   The minimum is found without walking any list. A level-0 slot holds
   exactly one timestamp, and its list is kept sorted by
   (emit, tie, seq) as entries arrive: the common case appends at the
   tail, and only a later push with a smaller key (a backdated stamp or
   a smaller tie) walks to its place. So the head of the first occupied
   level-0 slot is the near minimum. A coarse slot mixes timestamps and
   stays unsorted, but remembers its (time, emit, tie, seq)-minimal
   entry, updated on insert; the slot is only ever emptied whole, by a
   cascade, which clears it. *)

let near_bits = 10
let near_slots = 1 lsl near_bits
let near_mask = near_slots - 1
let bits = 5
let slots = 1 lsl bits
let slot_mask = slots - 1
let levels = 11
let horizon_bits = near_bits + (bits * (levels - 1))

(* Coarse level [l] (1..levels-1) resolves bits [shift l, shift l + 5). *)
let[@inline] shift l = (bits * l) + (near_bits - bits)

(* Interleaved-slab layout: an entry is identified by its base offset
   [s] (a multiple of [stride]); field [f] of entry [s] is
   [slab.(s + f)]. Stride 8 keeps one entry inside a 64-byte line and
   makes the base-offset arithmetic a shift. *)
let stride = 8
let f_time = 0
let f_emit = 1
let f_tie = 2
let f_seq = 3
let f_pay = 4
let f_next = 5

type t = {
  (* entry slab; the [f_next] cell threads both the free list and the
     slot lists *)
  mutable slab : int array;
  mutable free : int;  (* slab free-list head (base offset), -1 = full *)
  (* Slot lists: index [0, near_slots) is level 0's exact slots; coarse
     level l digit d is [near_slots + (l - 1) * slots + d]. *)
  heads : int array;
  tails : int array;
  cmin : int array;  (* per coarse slot: its minimal entry, -1 = empty *)
  near : int array;  (* level-0 occupancy, 32 words of 32 bits *)
  mutable summary : int;  (* bit w set iff [near.(w)] is nonzero *)
  occ : int array;  (* coarse-level occupancy bitmaps, index = level *)
  mutable cursor : int;  (* all wheel-resident entries have time >= cursor *)
  mutable wlen : int;    (* entries resident in the wheel levels *)
  overflow : int Heap.t; (* slab indices of beyond-horizon entries *)
  mutable next_seq : int;
  mutable placements : int;
  (* stamp and tie key of the entry the last pop removed *)
  mutable popped_stamp : int;
  mutable popped_tie : int;
}

let coarse_slots = (levels - 1) * slots

let create () =
  {
    slab = [||];
    free = -1;
    heads = Array.make (near_slots + coarse_slots) (-1);
    tails = Array.make (near_slots + coarse_slots) (-1);
    cmin = Array.make coarse_slots (-1);
    near = Array.make (near_slots / 32) 0;
    summary = 0;
    occ = Array.make levels 0;
    cursor = 0;
    wlen = 0;
    overflow = Heap.create ();
    next_seq = 0;
    placements = 0;
    popped_stamp = 0;
    popped_tie = 0;
  }

let length t = t.wlen + Heap.length t.overflow
let is_empty t = t.wlen = 0 && Heap.is_empty t.overflow
let cursor t = t.cursor
let placements t = t.placements
let popped_stamp t = t.popped_stamp
let popped_tie t = t.popped_tie

(* Lowest-set-bit index of a nonzero 32-bit mask, de Bruijn multiply. *)
let debruijn = 0x077CB531

let lsb_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * debruijn) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let[@inline] lowest_bit m =
  Array.unsafe_get lsb_table ((((m land -m) * debruijn) land 0xFFFFFFFF) lsr 27)

let grow t =
  let old = Array.length t.slab in
  let cap = if old = 0 then 64 * stride else 2 * old in
  let b = Array.make cap 0 in
  Array.blit t.slab 0 b 0 old;
  (* Chain the new entries (base offsets old, old+stride, ...) onto the
     free list in address order. *)
  let nxt = ref t.free in
  let s = ref (cap - stride) in
  while !s >= old do
    b.(!s + f_next) <- !nxt;
    nxt := !s;
    s := !s - stride
  done;
  t.slab <- b;
  t.free <- old

let alloc t =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- Array.unsafe_get t.slab (s + f_next);
  s

let[@inline] free_entry t s =
  t.slab.(s + f_next) <- t.free;
  t.free <- s

(* (emit, tie, seq) of entry [a] orders before entry [b]'s. Only
   consulted among equal timestamps. *)
let[@inline] key_before t a b =
  let sl = t.slab in
  let ea = Array.unsafe_get sl (a + f_emit)
  and eb = Array.unsafe_get sl (b + f_emit) in
  ea < eb
  || (ea = eb
      &&
      let ta = Array.unsafe_get sl (a + f_tie)
      and tb = Array.unsafe_get sl (b + f_tie) in
      ta < tb
      || (ta = tb
          && Array.unsafe_get sl (a + f_seq) < Array.unsafe_get sl (b + f_seq)))

(* The full (time, emit, tie, seq) order. *)
let[@inline] before t a b =
  let ta = Array.unsafe_get t.slab (a + f_time)
  and tb = Array.unsafe_get t.slab (b + f_time) in
  ta < tb || (ta = tb && key_before t a b)

(* Files entry [s] into level-0 slot [idx], keeping the slot's list
   sorted by (emit, tie, seq). *)
let near_insert t s idx =
  let sl = t.slab in
  let tl = t.tails.(idx) in
  if tl < 0 then begin
    sl.(s + f_next) <- -1;
    t.heads.(idx) <- s;
    t.tails.(idx) <- s;
    let w = idx lsr 5 in
    t.near.(w) <- t.near.(w) lor (1 lsl (idx land 31));
    t.summary <- t.summary lor (1 lsl w)
  end
  else if not (key_before t s tl) then begin
    sl.(s + f_next) <- -1;
    sl.(tl + f_next) <- s;
    t.tails.(idx) <- s
  end
  else begin
    (* [s] sorts before the tail, so the walk stops there at the
       latest. *)
    let prev = ref (-1) and cur = ref t.heads.(idx) in
    while not (key_before t s !cur) do
      prev := !cur;
      cur := sl.(!cur + f_next)
    done;
    sl.(s + f_next) <- !cur;
    if !prev < 0 then t.heads.(idx) <- s else sl.(!prev + f_next) <- s
  end

(* Files entry [s] at the highest level where its time digit differs
   from the cursor's (level 0 when only bits 0..9 differ), or into the
   overflow heap beyond the horizon. Pure in (time, cursor), which is
   the determinism argument: equal times always share a slot. *)
let place t s =
  t.placements <- t.placements + 1;
  let tm = Array.unsafe_get t.slab (s + f_time) in
  let d = tm lxor t.cursor in
  if tm lsr horizon_bits <> 0 then
    Heap.push_keyed t.overflow ~prio:tm ~emitted:t.slab.(s + f_emit)
      ~tie:t.slab.(s + f_tie) s
  else begin
    t.wlen <- t.wlen + 1;
    if d lsr near_bits = 0 then near_insert t s (tm land near_mask)
    else begin
      let lvl = ref 1 in
      let x = ref (d lsr shift 2) in
      while !x <> 0 do
        incr lvl;
        x := !x lsr bits
      done;
      let lvl = !lvl in
      let digit = (tm lsr shift lvl) land slot_mask in
      let c = ((lvl - 1) * slots) + digit in
      let idx = near_slots + c in
      t.slab.(s + f_next) <- -1;
      let tl = t.tails.(idx) in
      if tl < 0 then t.heads.(idx) <- s else t.slab.(tl + f_next) <- s;
      t.tails.(idx) <- s;
      let m = t.cmin.(c) in
      if m < 0 || before t s m then t.cmin.(c) <- s;
      t.occ.(lvl) <- t.occ.(lvl) lor (1 lsl digit)
    end
  end

(* Required-label variants: applying the optional [~emitted] would box
   the stamp in [Some] at every call site, costing the engine one minor
   allocation per event. *)
let push_keyed t ~prio ~emitted ~tie payload =
  if prio < t.cursor then
    invalid_arg "Wheel.push: priority below the cursor (scheduling in the past)";
  let s = alloc t in
  let sl = t.slab in
  sl.(s + f_time) <- prio;
  sl.(s + f_emit) <- emitted;
  sl.(s + f_tie) <- tie;
  sl.(s + f_seq) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  sl.(s + f_pay) <- payload;
  place t s

let push_stamped t ~prio ~emitted payload =
  push_keyed t ~prio ~emitted ~tie:0 payload

let push ?(emitted = 0) t ~prio payload = push_stamped t ~prio ~emitted payload

(* Slab index of the earliest wheel-resident entry; pre: the wheel
   levels are not empty. Non-mutating: the cursor moves only in [pop],
   because advancing it here would put later same-clock pushes "in the
   wheel's past". Level 0 holds no entry before the cursor's own slot,
   so the first occupied slot at or after it holds the minimum, at the
   head of its sorted list. Otherwise a coarse level's first occupied
   slot (strictly after the cursor's digit — placement never files into
   the cursor's own digit) bounds every later slot and level, and its
   recorded minimum is the answer. *)
let wheel_min t =
  let c0 = t.cursor land near_mask in
  let w = c0 lsr 5 in
  let m = t.near.(w) land (-1 lsl (c0 land 31)) in
  if m <> 0 then t.heads.((w lsl 5) lor lowest_bit m)
  else begin
    let sm = t.summary land (-1 lsl (w + 1)) in
    if sm <> 0 then begin
      let w = lowest_bit sm in
      t.heads.((w lsl 5) lor lowest_bit t.near.(w))
    end
    else begin
      let res = ref (-1) in
      let lvl = ref 1 in
      while !res < 0 do
        let l = !lvl in
        let dl = (t.cursor lsr shift l) land slot_mask in
        let ml = t.occ.(l) land (-1 lsl (dl + 1)) in
        if ml <> 0 then res := t.cmin.(((l - 1) * slots) + lowest_bit ml);
        incr lvl
      done;
      !res
    end
  end

let peek_prio_or t ~default =
  if t.wlen > 0 then t.slab.(wheel_min t + f_time)
  else Heap.peek_prio_or t.overflow ~default

let peek_prio t = if is_empty t then None else Some (peek_prio_or t ~default:0)

(* Moves the cursor to [tm] (the current minimum), cascading — top level
   first — the one coarse slot per changed digit that has rotated under
   the cursor. Re-placement happens against the new cursor, so cascaded
   entries land strictly below their old level. Slots between the old
   and new digits need no visit: they could only hold entries earlier
   than the minimum, so they are empty. A move inside the near window
   (the common case) changes no coarse digit and cascades nothing. *)
let advance t tm =
  let d = tm lxor t.cursor in
  t.cursor <- tm;
  if d lsr near_bits <> 0 then begin
    for lvl = levels - 1 downto 1 do
      if d lsr shift lvl <> 0 then begin
        let digit = (tm lsr shift lvl) land slot_mask in
        let c = ((lvl - 1) * slots) + digit in
        let idx = near_slots + c in
        let s = ref t.heads.(idx) in
        if !s >= 0 then begin
          t.heads.(idx) <- -1;
          t.tails.(idx) <- -1;
          t.cmin.(c) <- -1;
          t.occ.(lvl) <- t.occ.(lvl) land lnot (1 lsl digit);
          while !s >= 0 do
            let nxt = t.slab.(!s + f_next) in
            t.wlen <- t.wlen - 1;
            place t !s;
            s := nxt
          done
        end
      end
    done
  end

(* Unlinks the head of level-0 slot [idx]: the slot's minimum. *)
let unlink_head t idx =
  let s = t.heads.(idx) in
  let nxt = t.slab.(s + f_next) in
  t.heads.(idx) <- nxt;
  if nxt < 0 then begin
    t.tails.(idx) <- -1;
    let w = idx lsr 5 in
    let m = t.near.(w) land lnot (1 lsl (idx land 31)) in
    t.near.(w) <- m;
    if m = 0 then t.summary <- t.summary land lnot (1 lsl w)
  end;
  t.wlen <- t.wlen - 1;
  s

(* pre: not empty. Unlinks and returns the slab index of the minimum. *)
let pop_slab t =
  let s =
    if t.wlen > 0 then begin
      let tm = t.slab.(wheel_min t + f_time) in
      advance t tm;
      (* After the cascade every entry at time [tm] sits, sorted, in
         the level-0 slot of its low bits. *)
      unlink_head t (tm land near_mask)
    end
    else Heap.pop_value t.overflow ~default:(-1)
  in
  t.popped_stamp <- t.slab.(s + f_emit);
  t.popped_tie <- t.slab.(s + f_tie);
  s

let pop_value t ~default =
  if is_empty t then default
  else begin
    let s = pop_slab t in
    let v = t.slab.(s + f_pay) in
    free_entry t s;
    v
  end

let pop t =
  if is_empty t then None
  else begin
    let s = pop_slab t in
    let prio = t.slab.(s + f_time) and v = t.slab.(s + f_pay) in
    free_entry t s;
    Some (prio, v)
  end

let clear t =
  (* Release the slab like {!Heap.clear} releases its arrays. *)
  t.slab <- [||];
  t.free <- -1;
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  Array.fill t.tails 0 (Array.length t.tails) (-1);
  Array.fill t.cmin 0 coarse_slots (-1);
  Array.fill t.near 0 (Array.length t.near) 0;
  t.summary <- 0;
  Array.fill t.occ 0 levels 0;
  t.cursor <- 0;
  t.wlen <- 0;
  t.next_seq <- 0;
  Heap.clear t.overflow
