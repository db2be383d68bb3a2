module Time_ns = Tpp_util.Time_ns
module Spsc = Tpp_util.Spsc
module Partition = Tpp_util.Partition
module Engine = Tpp_sim.Engine
module Net = Tpp_sim.Net
module Frame = Tpp_isa.Frame
module Meta = Tpp_isa.Meta

(* Stands in for "no cross-shard links": large enough that every window
   reaches the horizon in one round, small enough that window arithmetic
   (saturating min + lookahead) cannot overflow for any plausible
   horizon. *)
let infinite_lookahead = max_int / 4

(* [sat_add t d] for window arithmetic: [t] can be [max_int] (idle
   shard), so a plain add would wrap. *)
let[@inline] sat_add t d = if t >= max_int - d then max_int else t + d

module Plan = struct
  type t = {
    shards : int;
    owner : int array;
    lookahead : Time_ns.span;
    shard_lookahead : Time_ns.span array;
    cut_links : int;
    shard_weight : int array;
  }

  let make net ~shards =
    if shards < 1 then invalid_arg "Parsim.Plan.make: shards must be >= 1";
    let n = Net.node_count net in
    let owner = Array.make n 0 in
    let switch_ids = List.map fst (Net.switches net) in
    (* Vertices are switches; a switchless net partitions hosts directly. *)
    let verts = match switch_ids with [] -> List.init n Fun.id | ids -> ids in
    let nv = List.length verts in
    let vidx = Array.make n (-1) in
    List.iteri (fun i id -> vidx.(id) <- i) verts;
    let weight = Array.make nv 1 in
    (* Pin each host to the switch behind its (single) access link; its
       traffic load lands on that vertex so the balance accounts for it. *)
    let anchor = Array.make n (-1) in
    List.iter
      (fun h ->
        let id = h.Net.node_id in
        if vidx.(id) < 0 then
          Net.iter_ports net id (fun ~port:_ ~peer ~peer_port:_ ->
              if anchor.(id) < 0 && vidx.(peer) >= 0 then begin
                anchor.(id) <- peer;
                weight.(vidx.(peer)) <- weight.(vidx.(peer)) + 2
              end))
      (Net.hosts net);
    let edges = ref [] in
    List.iter
      (fun v ->
        Net.iter_ports net v (fun ~port:_ ~peer ~peer_port:_ ->
            if vidx.(peer) >= 0 && peer > v then
              edges := (vidx.(v), vidx.(peer), 1) :: !edges))
      verts;
    let g = Partition.make_graph ~n:nv ~edges:!edges ~weight in
    let assign = Partition.partition g ~parts:shards in
    List.iter (fun v -> owner.(v) <- assign.(vidx.(v))) verts;
    for id = 0 to n - 1 do
      if vidx.(id) < 0 then
        owner.(id) <- (if anchor.(id) >= 0 then owner.(anchor.(id)) else 0)
    done;
    (* Lookahead over every directed cut link: [shard_lookahead.(s)] is
       the smallest propagation delay of a link leaving shard [s], i.e.
       the earliest any emission of [s] can land on another shard. The
       global [lookahead] (the min over shards) remains the static
       conservative bound; the adaptive window rule in [run] uses the
       per-shard values. Host links never cross: hosts inherit their
       switch's shard. *)
    let lookahead = ref infinite_lookahead in
    let shard_lookahead = Array.make shards infinite_lookahead in
    let cut = ref 0 in
    Net.iter_links net (fun ~node:id ~port:_ ~peer ~peer_port:_ ~bps:_ ~delay:d ->
        if owner.(id) <> owner.(peer) then begin
          if peer > id then incr cut;
          if d < !lookahead then lookahead := d;
          let s = owner.(id) in
          if d < shard_lookahead.(s) then shard_lookahead.(s) <- d
        end);
    if !lookahead <= 0 then
      invalid_arg "Parsim.Plan.make: zero-delay link crosses shards (no lookahead)";
    let shard_weight = Array.make shards 0 in
    List.iter
      (fun v ->
        let s = assign.(vidx.(v)) in
        shard_weight.(s) <- shard_weight.(s) + weight.(vidx.(v)))
      verts;
    {
      shards;
      owner;
      lookahead = !lookahead;
      shard_lookahead;
      cut_links = !cut;
      shard_weight;
    }
end

(* Reusable phase-counting barrier, hybrid spin-then-block. When every
   shard can hold a core, a short spin on the phase word catches the
   release without a condvar round-trip (microseconds matter: a window
   is two barriers and fine-grained topologies run thousands of
   windows). On an oversubscribed machine spinning only steals cycles
   from the shard still working, so waiters go straight to the
   condvar and yield.

   The spin-vs-block decision is taken once at [create], not per
   [await] cohort, and that is safe: it depends only on
   [Domain.recommended_domain_count ()] — a static property of the
   machine, constant for the process lifetime — and on [total], fixed
   at creation. No later [await] could ever decide differently, so
   re-evaluating per cohort would buy nothing and cost an extra load
   on every pass. [?spin] overrides the heuristic (tests use it to
   force the spin path on machines where the default would be 0). *)
module Barrier = struct
  exception Poisoned

  type t = {
    m : Mutex.t;
    c : Condition.t;
    total : int;
    mutable waiting : int;  (* guarded by [m] *)
    phase : int Atomic.t;
    poisoned : bool Atomic.t;
    spin : int;  (* iterations to spin before blocking; 0 when oversubscribed *)
  }

  let create ?spin total =
    {
      m = Mutex.create ();
      c = Condition.create ();
      total;
      waiting = 0;
      phase = Atomic.make 0;
      poisoned = Atomic.make false;
      spin =
        (match spin with
        | Some s -> s
        | None ->
          if Domain.recommended_domain_count () >= total then 2048 else 0);
    }

  let await b =
    if Atomic.get b.poisoned then raise Poisoned;
    let ph = Atomic.get b.phase in
    Mutex.lock b.m;
    b.waiting <- b.waiting + 1;
    if b.waiting = b.total then begin
      b.waiting <- 0;
      Atomic.incr b.phase;
      Condition.broadcast b.c;
      Mutex.unlock b.m
    end
    else begin
      Mutex.unlock b.m;
      let spins = ref 0 in
      while
        Atomic.get b.phase = ph
        && (not (Atomic.get b.poisoned))
        && !spins < b.spin
      do
        incr spins;
        Domain.cpu_relax ()
      done;
      if Atomic.get b.phase = ph && not (Atomic.get b.poisoned) then begin
        Mutex.lock b.m;
        (* Re-check under the lock: the releaser broadcasts while
           holding it, so a waiter can never miss the wakeup. *)
        while Atomic.get b.phase = ph && not (Atomic.get b.poisoned) do
          Condition.wait b.c b.m
        done;
        Mutex.unlock b.m
      end
    end;
    if Atomic.get b.poisoned then raise Poisoned

  (* Unblocks every current and future waiter — spinners observe the
     flag on their next iteration, blockers are broadcast awake; called
     when a shard dies so the others do not deadlock at the next
     barrier. *)
  let poison b =
    Mutex.lock b.m;
    Atomic.set b.poisoned true;
    Condition.broadcast b.c;
    Mutex.unlock b.m
end

(* The canonical merge order of cross-boundary messages: (arrival,
   emission stamp, producing shard, producer sequence number). The
   first two reproduce the sequential engine's primary tie-break
   (every delivery is backdated to its emission time); the last two
   give any remaining ties a total, run-independent order — (src, seq)
   pairs are unique. Messages still tied after (arrival, emitted) are
   deliveries to *distinct* (node, port) destinations — one link
   cannot complete two frames in the same nanosecond — so the engine's
   content-derived tie key orders them identically to the sequential
   run no matter which order this merge inserts them; the (src, seq)
   tail only pins the insertion sequence itself. *)
let compare_msg (a_arr, a_emit, a_src, a_seq) (b_arr, b_emit, b_src, b_seq) =
  let c = compare (a_arr : int) b_arr in
  if c <> 0 then c
  else
    let c = compare (a_emit : int) b_emit in
    if c <> 0 then c
    else
      let c = compare (a_src : int) b_src in
      if c <> 0 then c else compare (a_seq : int) b_seq

(* Flat boundary chunks: all the frames one shard emits toward another
   during one window, batched into a single reusable byte buffer. One
   record per message — fixed 48-byte header, then the frame's wire
   image:

     offset  field        size
        0    arrival      8  (absolute ns)
        8    emitted      8  (emitter clock at transmission end)
       16    seq          8  (producer emission counter)
       24    frame id     8  (tracing identity survives the boundary)
       32    dst node     4
       36    dst port     4
       40    hop count    4  (the one Meta field that crosses switches)
       44    wire length  4
       48    wire bytes   ...

   The producer appends with [Frame.blit_wire] (then recycles its
   frame locally); the consumer decodes in place and materializes each
   frame from its own pool. The chunk itself travels through a bounded
   {!Spsc} ring and is returned through a second ring for reuse, so a
   steady-state boundary crossing allocates nothing on either side. *)
module Boundary = struct
  let header_bytes = 48

  type chunk = {
    mutable cbuf : bytes;
    mutable clen : int;  (* bytes used *)
    mutable count : int;  (* messages encoded *)
  }

  let chunk ?(capacity = 4096) () =
    { cbuf = Bytes.create (max 64 capacity); clen = 0; count = 0 }

  let count c = c.count

  let reset c =
    c.clen <- 0;
    c.count <- 0

  let ensure c extra =
    let need = c.clen + extra in
    if Bytes.length c.cbuf < need then begin
      let cap = ref (Bytes.length c.cbuf) in
      while !cap < need do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit c.cbuf 0 b 0 c.clen;
      c.cbuf <- b
    end

  let append c ~arrival ~emitted ~seq ~dst_node ~dst_port frame =
    let wire = frame.Frame.len in
    ensure c (header_bytes + wire);
    let b = c.cbuf and o = c.clen in
    Bytes.set_int64_be b o (Int64.of_int arrival);
    Bytes.set_int64_be b (o + 8) (Int64.of_int emitted);
    Bytes.set_int64_be b (o + 16) (Int64.of_int seq);
    Bytes.set_int64_be b (o + 24) (Int64.of_int frame.Frame.id);
    Bytes.set_int32_be b (o + 32) (Int32.of_int dst_node);
    Bytes.set_int32_be b (o + 36) (Int32.of_int dst_port);
    Bytes.set_int32_be b (o + 40) (Int32.of_int frame.Frame.meta.Meta.hop_count);
    Bytes.set_int32_be b (o + 44) (Int32.of_int wire);
    let n = Frame.blit_wire frame b ~pos:(o + header_bytes) in
    c.clen <- o + header_bytes + n;
    c.count <- c.count + 1

  let decode c ~pool f =
    let b = c.cbuf in
    let o = ref 0 in
    for _ = 1 to c.count do
      let off = !o in
      let arrival = Int64.to_int (Bytes.get_int64_be b off) in
      let emitted = Int64.to_int (Bytes.get_int64_be b (off + 8)) in
      let seq = Int64.to_int (Bytes.get_int64_be b (off + 16)) in
      let id = Int64.to_int (Bytes.get_int64_be b (off + 24)) in
      let dst_node = Int32.to_int (Bytes.get_int32_be b (off + 32)) in
      let dst_port = Int32.to_int (Bytes.get_int32_be b (off + 36)) in
      let hop_count = Int32.to_int (Bytes.get_int32_be b (off + 40)) in
      let wire = Int32.to_int (Bytes.get_int32_be b (off + 44)) in
      let frame =
        Frame.materialize ~pool ~id ~hop_count b ~pos:(off + header_bytes)
          ~len:wire
      in
      f ~arrival ~emitted ~seq ~dst_node ~dst_port frame;
      o := off + header_bytes + wire
    done
end

(* Preallocated structure-of-arrays scratch for the per-round inbox
   merge: decoded messages land in parallel columns, a permutation
   array is sorted in place by {!compare_msg}'s key, and the messages
   are scheduled in that order. Replaces consing a list per round and
   [List.sort]ing it — the steady-state merge allocates nothing. *)
module Inbox = struct
  type t = {
    mutable arrival : int array;
    mutable emitted : int array;
    mutable src : int array;
    mutable seq : int array;
    mutable dst_node : int array;
    mutable dst_port : int array;
    mutable frames : Frame.t array;
    mutable order : int array;  (* sorted permutation of [0, n) *)
    mutable n : int;
    dummy : Frame.t;  (* slot filler so cleared frames are unpinned *)
  }

  let create () =
    let dummy = Frame.placeholder () in
    {
      arrival = [||];
      emitted = [||];
      src = [||];
      seq = [||];
      dst_node = [||];
      dst_port = [||];
      frames = [||];
      order = [||];
      n = 0;
      dummy;
    }

  let length t = t.n

  let grow t =
    let cap = max 16 (2 * Array.length t.arrival) in
    let gi a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.arrival <- gi t.arrival;
    t.emitted <- gi t.emitted;
    t.src <- gi t.src;
    t.seq <- gi t.seq;
    t.dst_node <- gi t.dst_node;
    t.dst_port <- gi t.dst_port;
    let fr = Array.make cap t.dummy in
    Array.blit t.frames 0 fr 0 t.n;
    t.frames <- fr;
    t.order <- Array.make cap 0

  let add t ~arrival ~emitted ~src_shard ~seq ~dst_node ~dst_port frame =
    if t.n = Array.length t.arrival then grow t;
    let i = t.n in
    t.arrival.(i) <- arrival;
    t.emitted.(i) <- emitted;
    t.src.(i) <- src_shard;
    t.seq.(i) <- seq;
    t.dst_node.(i) <- dst_node;
    t.dst_port.(i) <- dst_port;
    t.frames.(i) <- frame;
    t.n <- i + 1

  (* Strict (arrival, emitted, src, seq) order between row indices;
     total because (src, seq) pairs are unique. *)
  let[@inline] less t i j =
    let c = compare t.arrival.(i) t.arrival.(j) in
    if c <> 0 then c < 0
    else
      let c = compare t.emitted.(i) t.emitted.(j) in
      if c <> 0 then c < 0
      else
        let c = compare t.src.(i) t.src.(j) in
        if c <> 0 then c < 0 else t.seq.(i) < t.seq.(j)

  (* In-place quicksort of the permutation, insertion sort below a
     small threshold, middle-element pivot. The comparison is a total
     order, so the result is unique — determinism does not depend on
     the sort being stable. *)
  let sort t =
    let o = t.order in
    for i = 0 to t.n - 1 do
      o.(i) <- i
    done;
    let rec qsort lo hi =
      if hi - lo < 12 then
        for i = lo + 1 to hi do
          let v = o.(i) in
          let j = ref (i - 1) in
          while !j >= lo && less t v o.(!j) do
            o.(!j + 1) <- o.(!j);
            decr j
          done;
          o.(!j + 1) <- v
        done
      else begin
        let pivot = o.((lo + hi) / 2) in
        let i = ref lo and j = ref hi in
        while !i <= !j do
          while less t o.(!i) pivot do
            incr i
          done;
          while less t pivot o.(!j) do
            decr j
          done;
          if !i <= !j then begin
            let tmp = o.(!i) in
            o.(!i) <- o.(!j);
            o.(!j) <- tmp;
            incr i;
            decr j
          end
        done;
        qsort lo !j;
        qsort !i hi
      end
    in
    if t.n > 1 then qsort 0 (t.n - 1)

  let iter_sorted t f =
    for k = 0 to t.n - 1 do
      let i = t.order.(k) in
      f ~arrival:t.arrival.(i) ~emitted:t.emitted.(i) ~src_shard:t.src.(i)
        ~seq:t.seq.(i) ~dst_node:t.dst_node.(i) ~dst_port:t.dst_port.(i)
        t.frames.(i)
    done

  let clear t =
    for i = 0 to t.n - 1 do
      t.frames.(i) <- t.dummy
    done;
    t.n <- 0
end

type stats = {
  shards : int;
  events : int;
  delivered : int;
  rounds : int;
  messages : int;
  chunks : int;
  cut_links : int;
  lookahead : Time_ns.span;
  shard_events : int array;
  boundary_outstanding : int;
}

(* One directed inter-shard channel. [pending] carries published
   chunks producer -> consumer (at most one per window by protocol, so
   a [Spsc.Full] is a bug, not backpressure); [free] returns decoded
   chunks for reuse (best-effort: a chunk that finds the return ring
   full is simply dropped to the GC). [open_chunk] is producer-local
   state: the chunk accumulating this window's emissions. *)
type chan = {
  pending : Boundary.chunk Spsc.t;
  free : Boundary.chunk Spsc.t;
  mutable open_chunk : Boundary.chunk option;
}

let run ~shards ~until ~build ~setup ~collect () =
  if shards < 1 then invalid_arg "Parsim.run: shards must be >= 1";
  if until < 0 then invalid_arg "Parsim.run: until";
  let plan = Plan.make (build (Engine.create ())) ~shards in
  let owner = plan.Plan.owner in
  let shard_lookahead = plan.Plan.shard_lookahead in
  (* chans.(src).(dst): single producer (src domain), single consumer. *)
  let chans =
    Array.init shards (fun _ ->
        Array.init shards (fun _ ->
            {
              pending = Spsc.create ~capacity:4 ();
              free = Spsc.create ~capacity:4 ();
              open_chunk = None;
            }))
  in
  (* Earliest pending event per shard, republished every round. Written
     before and read after a barrier, so plain visibility would suffice;
     atomics keep the invariant obvious. *)
  let mins = Array.init shards (fun _ -> Atomic.make 0) in
  let barrier = Barrier.create shards in
  let shard_body my () =
    let eng = Engine.create () in
    let net = build eng in
    (* Frames arriving over a boundary are rebuilt from this shard's
       own pool, so they recycle on delivery/drop like local traffic —
       the receiver-side half of the cross-domain leak fix. *)
    let bpool = Frame.Pool.create () in
    let inbox = Inbox.create () in
    let out = chans.(my) in
    let seq = ref 0 in
    let emitted = ref 0 in
    let chunks_sent = ref 0 in
    Net.set_sharding net ~owner ~shard:my
      ~emit:(fun ~arrival ~emitted:stamp ~dst_node ~dst_port frame ->
        incr seq;
        incr emitted;
        let ch = out.(Array.unsafe_get owner dst_node) in
        let c =
          match ch.open_chunk with
          | Some c -> c
          | None ->
            let c =
              match Spsc.pop ch.free with
              | Some c ->
                Boundary.reset c;
                c
              | None -> Boundary.chunk ()
            in
            ch.open_chunk <- Some c;
            c
        in
        Boundary.append c ~arrival ~emitted:stamp ~seq:!seq ~dst_node ~dst_port
          frame);
    let publish_open_chunks () =
      for dst = 0 to shards - 1 do
        let ch = out.(dst) in
        match ch.open_chunk with
        | None -> ()
        | Some c ->
          ch.open_chunk <- None;
          incr chunks_sent;
          Spsc.push ch.pending c
      done
    in
    let owns id = Array.unsafe_get owner id = my in
    setup ~shard:my ~owns net;
    let rounds = ref 0 in
    let running = ref true in
    (* The round loop's callbacks are built once, here, not per round:
       [cur_src] names the channel being drained so one decode callback
       serves every chunk. *)
    let cur_src = ref 0 in
    let on_msg ~arrival ~emitted ~seq ~dst_node ~dst_port frame =
      Inbox.add inbox ~arrival ~emitted ~src_shard:!cur_src ~seq ~dst_node
        ~dst_port frame
    in
    let rec drain ch =
      match Spsc.pop ch.pending with
      | None -> ()
      | Some c ->
        Boundary.decode c ~pool:bpool on_msg;
        Boundary.reset c;
        ignore (Spsc.try_push ch.free c : bool);
        drain ch
    in
    let deliver ~arrival ~emitted ~src_shard:_ ~seq:_ ~dst_node ~dst_port frame =
      Net.schedule_delivery net ~arrival ~emitted ~dst_node ~dst_port frame
    in
    while !running do
      (* Inbox drain: every chunk published before the previous barrier
         is visible now. Decode in place, then merge simultaneous
         arrivals deterministically so heap insertion order (the
         tie-break) is run-independent. *)
      for src = 0 to shards - 1 do
        if src <> my then begin
          cur_src := src;
          drain chans.(src).(my)
        end
      done;
      Inbox.sort inbox;
      Inbox.iter_sorted inbox deliver;
      Inbox.clear inbox;
      Atomic.set mins.(my) (Engine.next_event_time_or eng ~default:max_int);
      Barrier.await barrier;
      (* Every shard folds the same published values: identical window. *)
      let gmin = ref max_int in
      for i = 0 to shards - 1 do
        gmin := min !gmin (Atomic.get mins.(i))
      done;
      let gmin = !gmin in
      if gmin > until then begin
        (* Nothing left inside the horizon anywhere (inboxes are empty:
           drained above, and the barrier made all emissions visible).
           Advance the clock to the horizon, as the sequential engine
           does, and stop — all shards take this branch together. *)
        Engine.run eng ~until;
        running := false
      end
      else begin
        incr rounds;
        (* Adaptive window: shard [i]'s earliest possible emission into
           another shard lands at [mins.(i) + shard_lookahead.(i)] or
           later (transmissions complete at >= its earliest pending
           event; fault hooks never shorten a propagation delay), so
           every event strictly before

             W = min_i (mins.(i) + shard_lookahead.(i))

           is safe to execute. Idle shards (min = max_int) and shards
           with no outgoing cut links drop out of the minimum via the
           saturating add — when all do, the window runs straight to
           the horizon. W >= gmin + global lookahead, so this is never
           narrower than the static rule; it strictly widens windows
           whenever the busiest shard is not also the one about to
           deliver a boundary frame. Timestamps are integer ns, so
           "events < W" is exactly "run ~until:(W - 1)". *)
        let w = ref max_int in
        for i = 0 to shards - 1 do
          let wi = sat_add (Atomic.get mins.(i)) shard_lookahead.(i) in
          if wi < !w then w := wi
        done;
        let win_end = if !w - 1 > until then until else !w - 1 in
        Engine.run eng ~until:win_end;
        (* Chunks of this round must be globally visible before any
           shard drains its inbox for the next one. *)
        publish_open_chunks ();
        Barrier.await barrier
      end
    done;
    let collected = collect ~shard:my ~owns net in
    ( Engine.events_processed eng,
      Net.frames_delivered net,
      !emitted,
      !rounds,
      !chunks_sent,
      Frame.Pool.outstanding bpool,
      collected )
  in
  (* A lone shard runs in the calling domain, so the caller's
     domain-local counters ([Gc.minor_words]) see all of its work. *)
  let outcomes =
    if shards = 1 then [| Ok (shard_body 0 ()) |]
    else
      let domains =
        Array.init shards (fun i ->
            Domain.spawn (fun () ->
                try shard_body i ()
                with e ->
                  Barrier.poison barrier;
                  raise e))
      in
      Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) domains
  in
  Array.iter
    (function
      | Error Barrier.Poisoned -> ()  (* secondary casualty; real error below *)
      | Error e -> raise e
      | Ok _ -> ())
    outcomes;
  let results =
    Array.map
      (function
        | Ok r -> r
        | Error _ -> raise Barrier.Poisoned)
      outcomes
  in
  let shard_events = Array.map (fun (e, _, _, _, _, _, _) -> e) results in
  let stats =
    {
      shards;
      events = Array.fold_left (fun a (e, _, _, _, _, _, _) -> a + e) 0 results;
      delivered =
        Array.fold_left (fun a (_, d, _, _, _, _, _) -> a + d) 0 results;
      rounds = (match results.(0) with _, _, _, r, _, _, _ -> r);
      messages =
        Array.fold_left (fun a (_, _, m, _, _, _, _) -> a + m) 0 results;
      chunks = Array.fold_left (fun a (_, _, _, _, c, _, _) -> a + c) 0 results;
      cut_links = plan.Plan.cut_links;
      lookahead = plan.Plan.lookahead;
      shard_events;
      boundary_outstanding =
        Array.fold_left (fun a (_, _, _, _, _, o, _) -> a + o) 0 results;
    }
  in
  (stats, Array.map (fun (_, _, _, _, _, _, c) -> c) results)
