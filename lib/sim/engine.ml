module Time_ns = Tpp_util.Time_ns
module Wheel = Tpp_util.Wheel
module Frame = Tpp_isa.Frame

(* The dataplane's event vocabulary, dispatched by one match in [fire].
   Steady-state events are not closures: their ingredients live in the
   engine's own structure-of-arrays slab (kind / node / port as unboxed
   ints, the handlers record and frame as two Obj.t cells), and the
   timing wheel orders bare slab indices. Scheduling and firing a
   delivery, port dequeue or fault restart therefore allocates zero
   minor words; only the thunk kind (control-plane timers and
   {!Loop} firings) carries a closure. *)

type handlers = {
  on_deliver : node:int -> port:int -> Frame.t -> unit;
  on_dequeue : node:int -> port:int -> unit;
  on_restart : node:int -> unit;
}

let kind_thunk = 0
let kind_deliver = 1
let kind_dequeue = 2
let kind_restart = 3

type t = {
  wheel : Wheel.t;
  (* Event slab, indexed by the slot ints the wheel carries.
     (kind, node, port) are packed into one int per slot — the same
     (kind << 40) | (node << 20) | port encoding as the canonical tie
     key below, so the tie is read straight from the slab — and the two
     pointer cells of a slot sit adjacent in [e_obj] (slot s -> indices
     2s, 2s+1). Scheduling or firing an event therefore touches two
     cache lines of slab instead of the five a parallel-arrays layout
     costs once a large fabric's slab falls out of L2. [e_meta] doubles
     as the free-list link. *)
  mutable e_meta : int array;
  mutable e_obj : Obj.t array;  (* 2s: handlers/thunk; 2s+1: Frame.t *)
  mutable free : int;
  mutable clock : Time_ns.t;
  mutable processed : int;
}

let hole = Obj.repr ()

let create () =
  {
    wheel = Wheel.create ();
    e_meta = [||];
    e_obj = [||];
    free = -1;
    clock = 0;
    processed = 0;
  }

let now t = t.clock

let grow t =
  let old = Array.length t.e_meta in
  let cap = if old = 0 then 64 else 2 * old in
  let meta = Array.make cap 0 in
  Array.blit t.e_meta 0 meta 0 old;
  let obj = Array.make (2 * cap) hole in
  Array.blit t.e_obj 0 obj 0 (2 * old);
  t.e_meta <- meta;
  t.e_obj <- obj;
  for i = old to cap - 2 do
    t.e_meta.(i) <- i + 1
  done;
  t.e_meta.(cap - 1) <- t.free;
  t.free <- old

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
   sequential run. *)
let[@inline] tie_key ~kind ~node ~port =
  (kind lsl 40) lor (node lsl 20) lor port

let[@inline] schedule_slot t time ~emitted ~kind ~node ~port h frame =
  if time < t.clock then invalid_arg "Engine.at: scheduling in the past";
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- Array.unsafe_get t.e_meta s;
  let meta = tie_key ~kind ~node ~port in
  t.e_meta.(s) <- meta;
  t.e_obj.(2 * s) <- h;
  t.e_obj.((2 * s) + 1) <- frame;
  Wheel.push_keyed t.wheel ~prio:time ~emitted ~tie:meta s

let at t time callback =
  schedule_slot t time ~emitted:t.clock ~kind:kind_thunk ~node:0 ~port:0
    (Obj.repr callback) hole

let deliver_at t time ~emitted h ~node ~port frame =
  schedule_slot t time ~emitted ~kind:kind_deliver ~node ~port (Obj.repr h)
    (Obj.repr frame)

let dequeue_at t time h ~node ~port =
  schedule_slot t time ~emitted:t.clock ~kind:kind_dequeue ~node ~port
    (Obj.repr h) hole

let restart_at t time h ~node =
  schedule_slot t time ~emitted:t.clock ~kind:kind_restart ~node ~port:0
    (Obj.repr h) hole

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
      at eng (match time with Some s -> max s eng.clock | None -> eng.clock) fire
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

(* Decodes and dispatches one slab slot. The slot is freed before the
   handler runs, so a handler can schedule (and reuse the slot)
   immediately; the Obj cells are blanked first so fired frames and
   thunks become garbage the moment they leave the queue. This is the
   single dispatch match of the engine. *)
let[@inline] fire t s =
  let meta = Array.unsafe_get t.e_meta s in
  let kind = meta lsr 40 in
  let node = (meta lsr 20) land 0xFFFFF in
  let port = meta land 0xFFFFF in
  let h = Array.unsafe_get t.e_obj (2 * s) in
  let fr = Array.unsafe_get t.e_obj ((2 * s) + 1) in
  Array.unsafe_set t.e_obj (2 * s) hole;
  Array.unsafe_set t.e_obj ((2 * s) + 1) hole;
  t.e_meta.(s) <- t.free;
  t.free <- s;
  match kind with
  | 0 (* kind_thunk *) -> (Obj.obj h : unit -> unit) ()
  | 1 (* kind_deliver *) ->
    (Obj.obj h : handlers).on_deliver ~node ~port (Obj.obj fr : Frame.t)
  | 2 (* kind_dequeue *) -> (Obj.obj h : handlers).on_dequeue ~node ~port
  | _ (* kind_restart *) -> (Obj.obj h : handlers).on_restart ~node

let run t ~until =
  (* Emptiness is decided explicitly (is_empty), never by a sentinel
     priority: an event legitimately scheduled at [max_int] is
     distinguishable from an empty queue and still fires when [until]
     reaches it. *)
  let w = t.wheel in
  let continue = ref true in
  while !continue do
    if Wheel.is_empty w then continue := false
    else begin
      let time = Wheel.peek_prio_or w ~default:0 in
      if time > until then continue := false
      else begin
        let s = Wheel.pop_value w ~default:(-1) in
        t.clock <- time;
        t.processed <- t.processed + 1;
        fire t s
      end
    end
  done;
  if until > t.clock then t.clock <- until

let events_processed t = t.processed
