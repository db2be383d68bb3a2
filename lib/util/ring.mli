(** Growable circular FIFO: [Queue.t] semantics without the per-push
    cons. The backing array doubles when full and is never shrunk, so a
    queue that has reached its working set enqueues and dequeues with
    zero allocation. [dummy] fills vacated slots so dequeued elements
    are not pinned against the GC. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** An empty ring holding no array: the first push allocates
    [capacity] (default 16) slots. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail; amortized O(1), allocates only when growing. *)

val take_opt : 'a t -> 'a option
(** Remove and return the head, oldest first. *)

val take_or : 'a t -> default:'a -> 'a
(** [take_opt] without the option box: returns [default] when empty.
    Callers on per-frame hot paths pass a sentinel they compare
    physically, so a steady-state dequeue allocates nothing. *)

val clear : 'a t -> unit
(** Empties the ring and overwrites every slot with [dummy]. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] head-to-tail (FIFO order). *)
