module Time_ns = Tpp_util.Time_ns
module Wheel = Tpp_util.Wheel
module Frame = Tpp_isa.Frame

(* The dataplane's event vocabulary, dispatched by one match in [fire].
   Steady-state events are not closures: each is one timing-wheel entry
   whose tie key packs (kind, node, port) and whose payload packs what
   the tie cannot hold, so nothing about an event lives in a second
   per-event structure. A dataplane registers its {!handlers} record
   once and its small id rides in the payload; a port dequeue or fault
   restart is then two ints in the wheel, and only the two kinds that
   carry an object — a delivery's frame, a thunk's closure — take a
   pointer cell. Scheduling and firing any typed event allocates zero
   minor words; only the thunk kind (control-plane timers and {!Loop}
   firings) carries a closure. *)

type handlers = {
  on_deliver : node:int -> port:int -> Frame.t -> unit;
  on_dequeue : node:int -> port:int -> unit;
  on_restart : node:int -> unit;
}

type handle = int

let kind_thunk = 0
let kind_deliver = 1
let kind_dequeue = 2
let kind_restart = 3

(* Node and port each take 20 bits of the tie key. *)
let max_id_bits = 20
let id_mask = (1 lsl max_id_bits) - 1

(* A delivery's payload is [(cell lsl handle_bits) lor handle]. The
   top handle is never registered, so an event scheduled with
   [no_handle] fails the [registered] bounds check when it fires. *)
let handle_bits = 16
let handle_mask = (1 lsl handle_bits) - 1
let no_handle = handle_mask

type t = {
  wheel : Wheel.t;
  mutable registered : handlers array;  (* index = handle *)
  (* Pointer cells: a delivery's frame or a thunk's closure, indexed by
     the cell number in the event's payload. A free cell holds the next
     free cell's number as an immediate, so releasing a cell both
     threads the free list and drops the fired frame or closure. *)
  mutable cells : Obj.t array;
  mutable free : int;
  mutable clock : Time_ns.t;
  mutable processed : int;  (* events popped from the wheel *)
  mutable running : bool;   (* inside [run]: an event is firing *)
  mutable unqueued : (unit -> int) list;  (* see [count_unqueued] *)
}

let create () =
  {
    wheel = Wheel.create ();
    registered = [||];
    cells = [||];
    free = -1;
    clock = 0;
    processed = 0;
    running = false;
    unqueued = [];
  }

let now t = t.clock

let register t h =
  let n = Array.length t.registered in
  if n >= no_handle then invalid_arg "Engine.register: too many handlers";
  t.registered <- Array.append t.registered [| h |];
  n

let grow t =
  let old = Array.length t.cells in
  let cap = if old = 0 then 64 else 2 * old in
  let cells = Array.make cap (Obj.repr 0) in
  Array.blit t.cells 0 cells 0 old;
  for i = old to cap - 2 do
    cells.(i) <- Obj.repr (i + 1)
  done;
  cells.(cap - 1) <- Obj.repr t.free;
  t.cells <- cells;
  t.free <- old

let[@inline] take_cell t v =
  if t.free < 0 then grow t;
  let c = t.free in
  t.free <- (Obj.obj (Array.unsafe_get t.cells c) : int);
  Array.unsafe_set t.cells c v;
  c

let[@inline] release_cell t c =
  let v = Array.unsafe_get t.cells c in
  Array.unsafe_set t.cells c (Obj.repr t.free);
  t.free <- c;
  v

(* Every push is stamped with an emission time: the engine clock,
   which is monotone in push order, except that a delivery's stamp is
   the caller's. That lets the sharded simulator backdate a delivery
   adopted from another shard to the time it was emitted there instead
   of inheriting this shard's (arbitrary) inbox drain time. The stamp
   is a required label all the way down to [Wheel.push_keyed]: an
   optional one would box a [Some] per delivery.

   The stamp alone is not enough for seq-vs-sharded bit-identity:
   arrival-clocked protocols (ack/pull/probe clocking) quantise their
   emissions to shared serialization lattices, so distinct frames
   routinely collide on (time, emitted) — and then insertion order
   would decide, which sharding cannot reproduce. The canonical tie
   key below — (kind, node, port) packed into one int — breaks those
   collisions by event content instead. It is a total order wherever
   order can matter: two deliveries can never complete on the same
   (node, port) in the same nanosecond (one link serializes), a port
   schedules at most one dequeue at a time, and the events left tied
   (thunk vs thunk, which all pack to 0) are scheduled shard-locally
   in identical relative order, so their seq fallback agrees with the
   sequential run. A node or port beyond 20 bits would spill into the
   next field and fire as the wrong kind, so [check] refuses it. *)
let[@inline] tie_key ~kind ~node ~port =
  (kind lsl 40) lor (node lsl max_id_bits) lor port

let[@inline] check t time ~node ~port =
  if time < t.clock then invalid_arg "Engine.at: scheduling in the past";
  if (node lor port) lsr max_id_bits <> 0 then
    invalid_arg "Engine: node or port id outside 0 .. 2^20-1"

let[@inline] push t time ~emitted ~kind ~node ~port payload =
  Wheel.push_keyed t.wheel ~prio:time ~emitted
    ~tie:(tie_key ~kind ~node ~port) payload

let at t time callback =
  check t time ~node:0 ~port:0;
  push t time ~emitted:t.clock ~kind:kind_thunk ~node:0 ~port:0
    (take_cell t (Obj.repr callback))

let deliver_at t time ~emitted h ~node ~port (frame : Frame.t) =
  check t time ~node ~port;
  let c = take_cell t (Obj.repr frame) in
  push t time ~emitted ~kind:kind_deliver ~node ~port
    ((c lsl handle_bits) lor h)

let dequeue_at t time ~emitted h ~node ~port =
  check t time ~node ~port;
  push t time ~emitted ~kind:kind_dequeue ~node ~port h

(* The key of the event now firing is (clock, popped stamp, popped
   tie); outside [run] every event at or before the clock has fired. A
   dequeue key equal to the firing one is that very event. *)
let dequeue_fired t time ~emitted ~node ~port =
  time < t.clock
  || time = t.clock
     && ((not t.running)
        || emitted < Wheel.popped_stamp t.wheel
        || emitted = Wheel.popped_stamp t.wheel
           && tie_key ~kind:kind_dequeue ~node ~port <= Wheel.popped_tie t.wheel)

let restart_at t time h ~node =
  check t time ~node ~port:0;
  push t time ~emitted:t.clock ~kind:kind_restart ~node ~port:0 h

let after t span callback = at t (Time_ns.add t.clock span) callback

(* The one restartable timer. [start] allocates one closure, [fire],
   which is the running loop's identity: the wheel cannot cancel, so a
   firing still queued after [stop] (or after a stop and a later
   [start]) must find that it is no longer [live] and do nothing.
   Re-arming pushes the same closure again, so a warm firing allocates
   nothing. *)
module Loop = struct
  type engine = t
  type t = { eng : engine; mutable live : unit -> unit }

  let idle () = ()
  let create eng = { eng; live = idle }
  let running l = l.live != idle
  let stop l = l.live <- idle

  let start l ?at:time body =
    if l.live == idle then begin
      let eng = l.eng in
      let rec fire () =
        if l.live == fire then begin
          let delay = body () in
          if l.live == fire then
            if delay >= 0 then at eng (Time_ns.add eng.clock delay) fire
            else l.live <- idle
        end
      in
      l.live <- fire;
      at eng (match time with Some s -> Int.max s eng.clock | None -> eng.clock) fire
    end
end

let every t ?start ~period ~until callback =
  if period <= 0 then invalid_arg "Engine.every: period";
  let start =
    match start with
    | Some s ->
      (* Diagnose the caller's mistake here rather than letting [at]
         raise its generic message on the first tick. *)
      if s <= t.clock then invalid_arg "Engine.every: start in the past";
      s
    | None -> Time_ns.add t.clock period
  in
  if start <= until then
    Loop.start (Loop.create t) ~at:start (fun () ->
        callback ();
        if Time_ns.add t.clock period <= until then period else -1)

let next_event_time t = Wheel.peek_prio t.wheel
let next_event_time_or t ~default = Wheel.peek_prio_or t.wheel ~default

(* Decodes and dispatches the event just popped: kind, node and port
   from its tie key, the handle and cell from its payload. A cell is
   released before the handler runs, so fired frames and thunks become
   garbage the moment they leave the queue and a handler can reuse the
   cell at once. This is the single dispatch match of the engine. *)
let[@inline] fire t tie p =
  let node = (tie lsr max_id_bits) land id_mask in
  let port = tie land id_mask in
  match tie lsr 40 with
  | 0 (* kind_thunk *) -> (Obj.obj (release_cell t p) : unit -> unit) ()
  | 1 (* kind_deliver *) ->
    let fr = (Obj.obj (release_cell t (p lsr handle_bits)) : Frame.t) in
    t.registered.(p land handle_mask).on_deliver ~node ~port fr
  | 2 (* kind_dequeue *) -> t.registered.(p).on_dequeue ~node ~port
  | _ (* kind_restart *) -> t.registered.(p).on_restart ~node

let run t ~until =
  (* Emptiness is decided explicitly (is_empty), never by a sentinel
     priority: an event legitimately scheduled at [max_int] is
     distinguishable from an empty queue and still fires when [until]
     reaches it. *)
  let w = t.wheel in
  let continue = ref true in
  t.running <- true;
  while !continue do
    if Wheel.is_empty w then continue := false
    else begin
      let time = Wheel.peek_prio_or w ~default:0 in
      if time > until then continue := false
      else begin
        let p = Wheel.pop_value w ~default:(-1) in
        t.clock <- time;
        t.processed <- t.processed + 1;
        fire t (Wheel.popped_tie w) p
      end
    end
  done;
  t.running <- false;
  if until > t.clock then t.clock <- until

let wheel_placements t = Wheel.placements t.wheel

let count_unqueued t count = t.unqueued <- t.unqueued @ [ count ]

let events_processed t =
  List.fold_left (fun n count -> n + count ()) t.processed t.unqueued
