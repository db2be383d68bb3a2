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

  let value t = t.v
  let count t = int_of_float t.n
end
