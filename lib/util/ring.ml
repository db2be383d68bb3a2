(* Growable circular FIFO over a plain array. Unlike [Queue.t] (a linked
   list that conses a block per [push]), steady-state enqueue/dequeue
   touches only the preallocated array: the dataplane's per-hop queue
   operations allocate nothing once a ring has grown to its working set.
   Vacated slots are overwritten with [dummy] so the ring never pins a
   dequeued element against the GC. The array appears on the first
   push: a switch materialises a ring for every port at once, and an
   idle port never needs its slots. *)

type 'a t = {
  mutable buf : 'a array;  (* [||] until the first push *)
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
  capacity : int;  (* slots allocated by the first push *)
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  { buf = [||]; head = 0; len = 0; capacity = Int.max capacity 1; dummy }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (if cap = 0 then t.capacity else 2 * cap) t.dummy in
  let tail_run = Int.min t.len (cap - t.head) in
  Array.blit t.buf t.head buf 0 tail_run;
  Array.blit t.buf 0 buf tail_run (t.len - tail_run);
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  let cap = Array.length t.buf in
  let slot = t.head + t.len in
  let slot = if slot >= cap then slot - cap else slot in
  Array.unsafe_set t.buf slot x;
  t.len <- t.len + 1

let take_opt t =
  if t.len = 0 then None
  else begin
    let x = Array.unsafe_get t.buf t.head in
    Array.unsafe_set t.buf t.head t.dummy;
    t.head <- (if t.head + 1 = Array.length t.buf then 0 else t.head + 1);
    t.len <- t.len - 1;
    Some x
  end

let take_or t ~default =
  if t.len = 0 then default
  else begin
    let x = Array.unsafe_get t.buf t.head in
    Array.unsafe_set t.buf t.head t.dummy;
    t.head <- (if t.head + 1 = Array.length t.buf then 0 else t.head + 1);
    t.len <- t.len - 1;
    x
  end

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) t.dummy;
  t.head <- 0;
  t.len <- 0

let iter f t =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    let slot = t.head + i in
    let slot = if slot >= cap then slot - cap else slot in
    f (Array.unsafe_get t.buf slot)
  done
