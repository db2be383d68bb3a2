(* splitmix64-style finalizer over OCaml's native int: the canonical
   multipliers truncated to 62 bits (the originals don't fit a 63-bit
   int). Good avalanche, pure int arithmetic, no allocation; the
   result is always non-negative. *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  (z lxor (z lsr 31)) land max_int

module Cms = struct
  type t = {
    width : int;  (* power of two *)
    depth : int;
    mask : int;
    salts : int array;  (* per-row hash salt, fixed by row index *)
    cells : int array;  (* depth * width, row-major *)
    mutable total : int;
  }

  let rec pow2_above n acc = if acc >= n then acc else pow2_above n (acc * 2)

  let create ?(width = 2048) ?(depth = 4) () =
    if width < 2 then invalid_arg "Cms.create: width";
    if depth < 1 then invalid_arg "Cms.create: depth";
    let width = pow2_above width 2 in
    {
      width;
      depth;
      mask = width - 1;
      salts = Array.init depth (fun i -> mix ((i + 1) * 0x1e3779b97f4a7c15));
      cells = Array.make (depth * width) 0;
      total = 0;
    }

  let width t = t.width
  let depth t = t.depth
  let epsilon t = Float.exp 1.0 /. float_of_int t.width
  let slot t row key = (row * t.width) + (mix (key lxor t.salts.(row)) land t.mask)

  let add t ~key n =
    if n < 0 then invalid_arg "Cms.add: negative count";
    for row = 0 to t.depth - 1 do
      let i = slot t row key in
      Array.unsafe_set t.cells i (Array.unsafe_get t.cells i + n)
    done;
    t.total <- t.total + n

  let estimate t ~key =
    let est = ref max_int in
    for row = 0 to t.depth - 1 do
      let c = Array.unsafe_get t.cells (slot t row key) in
      if c < !est then est := c
    done;
    !est

  let total t = t.total

  let merge ~into src =
    if into.width <> src.width || into.depth <> src.depth then
      invalid_arg "Cms.merge: dimension mismatch";
    for i = 0 to Array.length into.cells - 1 do
      into.cells.(i) <- into.cells.(i) + src.cells.(i)
    done;
    into.total <- into.total + src.total

  let equal a b =
    a.width = b.width && a.depth = b.depth && a.total = b.total
    && a.cells = b.cells

  let fingerprint t =
    let h = ref (mix (t.width lxor (t.depth * 0x1000003))) in
    Array.iter (fun c -> h := mix (!h lxor c)) t.cells;
    mix (!h lxor t.total)

  let heavy_hitters t ~candidates ~threshold =
    List.filter_map
      (fun key ->
        let e = estimate t ~key in
        if e >= threshold then Some (key, e) else None)
      candidates
    |> List.sort (fun (ka, a) (kb, b) ->
           match Int.compare b a with 0 -> Int.compare ka kb | c -> c)
end

module Tdigest = struct
  (* The digest is on the collector's per-card path, so the whole
     add -> flush -> compress cycle runs without allocating once warm:
     the sort compares unboxed loads (a comparator closure would box two
     floats per comparison), and the compress accumulators live in a
     scratch float array (stores into float arrays are unboxed where a
     float ref would box on every assignment).

     A collector holds one digest per link, thousands on a fabric, and
     most of them never fill their buffer. So a fresh digest owns no
     arrays at all: the sample buffer arrives on demand ([make_room]),
     the centroid arrays on the first compress, and the merge scratch
     is one growable set per domain, shared by every digest that
     domain flushes or merges. [flush] and [merge] overwrite the
     scratch prefix they read, so no state passes between digests
     through it. *)
  type t = {
    delta : float;
    cap : int;  (* centroid slots: floor (2 delta) + 8 *)
    mutable means : float array;  (* [||] until the first compress; first [n] live, sorted *)
    mutable weights : float array;
    mutable n : int;  (* live centroids *)
    mutable buf : float array;
        (* unsorted incoming samples: [||], then 2 cap, then 4 cap slots *)
    mutable buf_len : int;
    mutable count : int;
        (* all samples ever added; once flushed, also the centroids'
           total weight (every weight is a sample count, so float sums
           of them are exact) *)
  }

  type scratch = {
    mutable sx : float array;  (* merged means *)
    mutable sw : float array;  (* merged weights *)
    st : float array;  (* compress accumulator cells *)
  }

  let scratch_key =
    Domain.DLS.new_key (fun () -> { sx = [||]; sw = [||]; st = Array.make 5 0.0 })

  (* This domain's scratch with at least [m] merge slots. *)
  let scratch m =
    let s = Domain.DLS.get scratch_key in
    if Array.length s.sx < m then begin
      s.sx <- Array.make m 0.0;
      s.sw <- Array.make m 0.0
    end;
    s

  let pi = 4.0 *. Float.atan 1.0

  (* The k1 scale function — k(q) = delta/(2 pi) * asin (2q - 1) —
     gives each cluster a k-size budget of 1, concentrating resolution
     at the tails. [compress] inlines it rather than calling a helper:
     a float-argument call boxes per point. *)

  let create ?(delta = 100.0) () =
    if delta < 10.0 then invalid_arg "Tdigest.create: delta";
    let cap = int_of_float (2.0 *. delta) + 8 in
    { delta; cap; means = [||]; weights = [||]; n = 0; buf = [||]; buf_len = 0; count = 0 }

  let swap (a : float array) i j =
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp

  (* In-place ascending sort of a.(lo..hi): median-of-three quicksort
     with an insertion-sort tail, all comparisons on unboxed loads. No
     local closure: one would be allocated per partition. *)
  let rec sort_range (a : float array) lo hi =
    if hi - lo < 16 then
      for i = lo + 1 to hi do
        let x = a.(i) in
        let j = ref i in
        while !j > lo && a.(!j - 1) > x do
          a.(!j) <- a.(!j - 1);
          decr j
        done;
        a.(!j) <- x
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if a.(mid) < a.(lo) then swap a mid lo;
      if a.(hi) < a.(lo) then swap a hi lo;
      if a.(hi) < a.(mid) then swap a hi mid;
      (* a.(lo) <= pivot <= a.(hi): both ends are scan sentinels. *)
      swap a mid (hi - 1);
      let pivot = a.(hi - 1) in
      let i = ref lo and j = ref (hi - 1) in
      let partitioning = ref true in
      while !partitioning do
        incr i;
        while a.(!i) < pivot do incr i done;
        decr j;
        while a.(!j) > pivot do decr j done;
        if !i >= !j then partitioning := false else swap a !i !j
      done;
      swap a !i (hi - 1);
      sort_range a lo (!i - 1);
      sort_range a (!i + 1) hi
    end

  (* One merging pass under the k1 budget over sx/sw.(0..m-1) (sorted,
     weighted points), writing the new centroids back into t. *)
  let compress t s m =
    if m > 0 then begin
      if Array.length t.means = 0 then begin
        t.means <- Array.make t.cap 0.0;
        t.weights <- Array.make t.cap 0.0
      end;
      let sx = s.sx and sw = s.sw and st = s.st in
      (* st.(0) cur_mean, st.(1) cur_w, st.(2) w_before, st.(3) k_lo,
         st.(4) weight total (a float ref would box per iteration) *)
      st.(0) <- sx.(0);
      st.(1) <- sw.(0);
      st.(2) <- 0.0;
      st.(3) <- -.t.delta /. 4.0 (* k_scale delta 0 *);
      st.(4) <- 0.0;
      for p = 0 to m - 1 do
        st.(4) <- st.(4) +. sw.(p)
      done;
      let total = st.(4) in
      let kf = t.delta /. (2.0 *. pi) in
      (* k_scale inlined: calling it would box two floats per point *)
      let out = ref 0 in
      for p = 1 to m - 1 do
        let q = (st.(2) +. st.(1) +. sw.(p)) /. total in
        let q = if q > 1.0 then 1.0 else if q < 0.0 then 0.0 else q in
        if (kf *. Float.asin ((2.0 *. q) -. 1.0)) -. st.(3) <= 1.0 then begin
          (* fold point p into the current centroid *)
          let w' = st.(1) +. sw.(p) in
          st.(0) <- st.(0) +. ((sx.(p) -. st.(0)) *. sw.(p) /. w');
          st.(1) <- w'
        end
        else begin
          t.means.(!out) <- st.(0);
          t.weights.(!out) <- st.(1);
          incr out;
          st.(2) <- st.(2) +. st.(1);
          let qb = st.(2) /. total in
          let qb = if qb > 1.0 then 1.0 else if qb < 0.0 then 0.0 else qb in
          st.(3) <- kf *. Float.asin ((2.0 *. qb) -. 1.0);
          st.(0) <- sx.(p);
          st.(1) <- sw.(p)
        end
      done;
      t.means.(!out) <- st.(0);
      t.weights.(!out) <- st.(1);
      t.n <- !out + 1
    end

  let flush t =
    if t.buf_len > 0 then begin
      let bn = t.buf_len in
      sort_range t.buf 0 (bn - 1);
      (* merge the sorted centroid run with the sorted buffer (unit
         weights) into the scratch runs *)
      let s = scratch (t.n + bn) in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < t.n || !j < bn do
        if !j >= bn || (!i < t.n && t.means.(!i) <= t.buf.(!j)) then begin
          s.sx.(!k) <- t.means.(!i);
          s.sw.(!k) <- t.weights.(!i);
          incr i
        end
        else begin
          s.sx.(!k) <- t.buf.(!j);
          s.sw.(!k) <- 1.0;
          incr j
        end;
        incr k
      done;
      t.buf_len <- 0;
      compress t s !k
    end

  (* Called when the buffer is full. A buffer several times the
     centroid cap amortises each compress over more samples, but most
     digests never see that many, so it arrives in two steps: 2 cap
     slots on the first sample, grown once by blit to 4 cap. Only a
     full 4 cap buffer flushes, so every compress sees the same samples
     as with a 4 cap buffer from the start. Two steps and no more: at
     the default delta both blocks (417 and 833 words) exceed the
     minor heap's 256-word limit and go straight to the major heap,
     while a ladder from small sizes would put its lower rungs in the
     minor heap. *)
  let[@inline never] make_room t =
    let slots = Array.length t.buf and full = 4 * t.cap in
    if slots = full then flush t
    else if slots = 0 then t.buf <- Array.make (2 * t.cap) 0.0
    else begin
      let buf = Array.make full 0.0 in
      Array.blit t.buf 0 buf 0 slots;
      t.buf <- buf
    end

  (* Inlined into both entry points, so [add_int]'s conversion is stored
     straight into the buffer instead of boxed for a call. *)
  let[@inline] push t x =
    if t.buf_len = Array.length t.buf then make_room t;
    t.buf.(t.buf_len) <- x;
    t.buf_len <- t.buf_len + 1;
    t.count <- t.count + 1

  let add t x = push t x
  let add_int t x = push t (float_of_int x)

  let count t = t.count

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Tdigest.quantile";
    flush t;
    if t.n = 0 then Float.nan
    else if t.n = 1 then t.means.(0)
    else begin
      let target = q *. float_of_int t.count in
      (* centroid i's mass is centered at cum(i-1) + w_i/2; walk the
         midpoints and interpolate between neighbours. *)
      let rec walk i cum prev_mid prev_mean =
        if i >= t.n then t.means.(t.n - 1)
        else
          let mid = cum +. (t.weights.(i) /. 2.0) in
          if target <= mid then
            if i = 0 || mid = prev_mid then t.means.(i)
            else
              prev_mean
              +. ((t.means.(i) -. prev_mean) *. (target -. prev_mid)
                  /. (mid -. prev_mid))
          else walk (i + 1) (cum +. t.weights.(i)) mid t.means.(i)
      in
      walk 0 0.0 0.0 t.means.(0)
    end

  let merge ~into src =
    flush src;
    if src.n > 0 then begin
      flush into;
      (* merge the two sorted centroid runs into scratch, recompress *)
      let s = scratch (into.n + src.n) in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < into.n || !j < src.n do
        if
          !j >= src.n
          || (!i < into.n && into.means.(!i) <= src.means.(!j))
        then begin
          s.sx.(!k) <- into.means.(!i);
          s.sw.(!k) <- into.weights.(!i);
          incr i
        end
        else begin
          s.sx.(!k) <- src.means.(!j);
          s.sw.(!k) <- src.weights.(!j);
          incr j
        end;
        incr k
      done;
      compress into s !k;
      into.count <- into.count + src.count
    end

  let centroids t =
    flush t;
    t.n
end

module Ewma = struct
  (* All-float record: OCaml stores it flat, so [observe]'s writes are
     unboxed stores — a mixed int/float record would box a fresh float
     on every observation. The count is exact as a float far beyond
     any observation volume here (2^53). *)
  type t = { alpha : float; mutable v : float; mutable n : float }

  let create ?(alpha = 0.2) () =
    if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha";
    { alpha; v = 0.0; n = 0.0 }

  let[@inline] observe t x =
    if t.n = 0.0 then t.v <- x
    else t.v <- (t.alpha *. x) +. ((1.0 -. t.alpha) *. t.v);
    t.n <- t.n +. 1.0

  let observe_int t x = observe t (float_of_int x)

  let value t = t.v
  let count t = int_of_float t.n
end
