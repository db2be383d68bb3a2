(* Unit and property tests for the tpp_util substrate. *)

open Tpp

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Time ----------------------------------------------------------- *)

let test_time_units () =
  check Alcotest.int "us" 1_000 (Time_ns.us 1);
  check Alcotest.int "ms" 1_000_000 (Time_ns.ms 1);
  check Alcotest.int "sec" 1_000_000_000 (Time_ns.sec 1);
  check (Alcotest.float 1e-9) "to_sec" 1.5 (Time_ns.to_sec_f (Time_ns.ms 1500));
  check Alcotest.int "of_sec_f" (Time_ns.ms 250) (Time_ns.of_sec_f 0.25);
  check Alcotest.int "add" 3 (Time_ns.add 1 2);
  check Alcotest.int "diff" 5 (Time_ns.diff 8 3)

let test_time_pp () =
  let render t = Format.asprintf "%a" Time_ns.pp t in
  check Alcotest.string "ns" "42ns" (render 42);
  check Alcotest.string "us" "1.500us" (render 1500);
  check Alcotest.string "ms" "2.000ms" (render (Time_ns.ms 2));
  check Alcotest.string "s" "3.000s" (render (Time_ns.sec 3))

(* --- Buf ------------------------------------------------------------ *)

let test_buf_roundtrip () =
  let w = Buf.Writer.create () in
  Buf.Writer.u8 w 0xAB;
  Buf.Writer.u16 w 0xCDEF;
  Buf.Writer.u32i w 0xDEADBEEF;
  Buf.Writer.string w "hello";
  Buf.Writer.zeros w 3;
  let b = Buf.Writer.contents w in
  check Alcotest.int "length" (1 + 2 + 4 + 5 + 3) (Bytes.length b);
  let r = Buf.Reader.of_bytes b in
  check Alcotest.int "u8" 0xAB (Buf.Reader.u8 r);
  check Alcotest.int "u16" 0xCDEF (Buf.Reader.u16 r);
  check Alcotest.int "u32i" 0xDEADBEEF (Buf.Reader.u32i r);
  check Alcotest.string "string" "hello" (Bytes.to_string (Buf.Reader.bytes r 5));
  Buf.Reader.skip r 3;
  check Alcotest.int "remaining" 0 (Buf.Reader.remaining r)

let test_buf_growth () =
  let w = Buf.Writer.create ~capacity:1 () in
  for i = 0 to 999 do
    Buf.Writer.u32i w i
  done;
  check Alcotest.int "grew" 4000 (Buf.Writer.length w);
  let b = Buf.Writer.contents w in
  check Alcotest.int "word 999" 999 (Buf.get_u32i b (999 * 4))

let test_buf_oob () =
  let r = Buf.Reader.of_string "ab" in
  Alcotest.check_raises "u32 oob" (Buf.Out_of_bounds "Reader.u32") (fun () ->
      ignore (Buf.Reader.u32 r));
  let b = Bytes.create 4 in
  Alcotest.check_raises "set oob" (Buf.Out_of_bounds "set_u32i") (fun () ->
      Buf.set_u32i b 1 0);
  Alcotest.check_raises "get negative" (Buf.Out_of_bounds "get_u32i") (fun () ->
      ignore (Buf.get_u32i b (-1)))

let test_buf_window () =
  let b = Bytes.of_string "0123456789" in
  let r = Buf.Reader.of_bytes ~pos:2 ~len:4 b in
  check Alcotest.int "windowed remaining" 4 (Buf.Reader.remaining r);
  check Alcotest.int "first byte" (Char.code '2') (Buf.Reader.u8 r);
  check Alcotest.int "pos relative" 1 (Buf.Reader.pos r)

let prop_buf_u32_roundtrip =
  QCheck.Test.make ~name:"buf u32 write/read roundtrip" ~count:200
    QCheck.(list (int_bound 0xFFFFFF))
    (fun values ->
      let w = Buf.Writer.create () in
      List.iter (fun v -> Buf.Writer.u32i w v) values;
      let r = Buf.Reader.of_bytes (Buf.Writer.contents w) in
      List.for_all (fun v -> Buf.Reader.u32i r = v) values)

(* --- Heap ----------------------------------------------------------- *)

let drain heap =
  let rec go acc =
    match Tpp_util.Heap.pop heap with
    | Some (p, v) -> go ((p, v) :: acc)
    | None -> List.rev acc
  in
  go []

let test_heap_order () =
  let h = Tpp_util.Heap.create () in
  List.iter (fun p -> Tpp_util.Heap.push h ~prio:p p) [ 5; 1; 4; 1; 3 ];
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sorted" [ (1, 1); (1, 1); (3, 3); (4, 4); (5, 5) ] (drain h)

let test_heap_fifo_ties () =
  let h = Tpp_util.Heap.create () in
  List.iteri (fun i name -> Tpp_util.Heap.push h ~prio:7 (i, name))
    [ "a"; "b"; "c" ];
  let popped = List.map snd (drain h) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "insertion order on equal priority" [ (0, "a"); (1, "b"); (2, "c") ] popped

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority" ~count:200
    QCheck.(list small_int)
    (fun prios ->
      let h = Tpp_util.Heap.create () in
      List.iter (fun p -> Tpp_util.Heap.push h ~prio:p p) prios;
      let out = List.map fst (drain h) in
      out = List.sort Int.compare prios)

(* Reference model: the heap must agree with a sorted association list
   under arbitrary interleavings of push, pop and clear, including the
   FIFO-on-equal-priority tie-break. Op encoding: -2 = clear, -1 = pop,
   n >= 0 = push with priority [n mod 8] (small range forces ties). *)
let prop_heap_model =
  QCheck.Test.make ~name:"heap matches reference model under push/pop/clear"
    ~count:300
    QCheck.(list (int_range (-2) 40))
    (fun ops ->
      let h = Tpp_util.Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let by_key (p, s, _) (p', s', _) =
        if p <> p' then Int.compare p p' else Int.compare s s'
      in
      List.for_all
        (fun op ->
          if op = -2 then begin
            Tpp_util.Heap.clear h;
            model := [];
            seq := 0;
            Tpp_util.Heap.is_empty h
          end
          else if op = -1 then begin
            match (Tpp_util.Heap.pop h, List.sort by_key !model) with
            | None, [] -> true
            | Some (p, v), (mp, _, mv) :: rest ->
              model := rest;
              p = mp && v = mv
            | _ -> false
          end
          else begin
            let prio = op mod 8 in
            Tpp_util.Heap.push h ~prio !seq;
            model := (prio, !seq, !seq) :: !model;
            incr seq;
            Tpp_util.Heap.length h = List.length !model
          end)
        ops)

(* The heap must not pin values it no longer holds: a popped value (an
   event callback and whatever frames it captured, in the engine's case)
   has to be collectable immediately. *)
let test_heap_pop_releases () =
  let h = Tpp_util.Heap.create () in
  let w = Weak.create 1 in
  Weak.set w 0 (Some (Bytes.create 64));
  (match Weak.get w 0 with
  | Some v -> Tpp_util.Heap.push h ~prio:1 v
  | None -> Alcotest.fail "weak target vanished early");
  ignore (Tpp_util.Heap.pop h);
  Gc.full_major ();
  check Alcotest.bool "popped value collected" true (Weak.get w 0 = None)

let test_heap_clear_releases () =
  let h = Tpp_util.Heap.create () in
  let w = Weak.create 1 in
  Weak.set w 0 (Some (Bytes.create 64));
  (match Weak.get w 0 with
  | Some v -> Tpp_util.Heap.push h ~prio:1 v
  | None -> Alcotest.fail "weak target vanished early");
  Tpp_util.Heap.clear h;
  Gc.full_major ();
  check Alcotest.bool "cleared value collected" true (Weak.get w 0 = None)

let test_heap_alloc_free_accessors () =
  let h = Tpp_util.Heap.create () in
  check Alcotest.int "peek_prio_or empty" max_int
    (Tpp_util.Heap.peek_prio_or h ~default:max_int);
  check Alcotest.int "pop_value empty" (-1) (Tpp_util.Heap.pop_value h ~default:(-1));
  Tpp_util.Heap.push h ~prio:5 50;
  Tpp_util.Heap.push h ~prio:3 30;
  check Alcotest.int "peek_prio_or" 3 (Tpp_util.Heap.peek_prio_or h ~default:max_int);
  check Alcotest.int "pop_value" 30 (Tpp_util.Heap.pop_value h ~default:(-1));
  check Alcotest.int "then next" 50 (Tpp_util.Heap.pop_value h ~default:(-1));
  check Alcotest.bool "drained" true (Tpp_util.Heap.is_empty h)

(* --- Wheel ----------------------------------------------------------- *)

module Wheel = Tpp_util.Wheel

let drain_wheel w =
  let rec go acc =
    match Wheel.pop w with
    | Some (p, v) -> go ((p, v) :: acc)
    | None -> List.rev acc
  in
  go []

let test_wheel_order () =
  let w = Wheel.create () in
  List.iter (fun p -> Wheel.push w ~prio:p p) [ 5; 1; 4; 1; 3 ];
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sorted" [ (1, 1); (1, 1); (3, 3); (4, 4); (5, 5) ] (drain_wheel w)

let test_wheel_fifo_ties () =
  let w = Wheel.create () in
  (* Same timestamp pushed around cursor movement: FIFO must hold both
     within one batch and across the interleaved pop. *)
  Wheel.push w ~prio:7 0;
  Wheel.push w ~prio:7 1;
  Wheel.push w ~prio:3 99;
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "earlier time first" (Some (3, 99)) (Wheel.pop w);
  Wheel.push w ~prio:7 2;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "push order on equal priority"
    [ (7, 0); (7, 1); (7, 2) ]
    (drain_wheel w)

let test_wheel_overflow_horizon () =
  let w = Wheel.create () in
  (* Beyond-horizon entries (bit >= 60 differs from the cursor) live in
     the overflow heap; max_int is the engine's "idle sentinel" case. *)
  Wheel.push w ~prio:max_int 1;
  Wheel.push w ~prio:(1 lsl 60) 2;
  Wheel.push w ~prio:((1 lsl 59) + 5) 3;  (* top wheel level *)
  Wheel.push w ~prio:5 4;
  check Alcotest.int "length counts both sides" 4 (Wheel.length w);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "wheel and overflow interleave by time"
    [ (5, 4); ((1 lsl 59) + 5, 3); (1 lsl 60, 2); (max_int, 1) ]
    (drain_wheel w)

let test_wheel_level_rollover () =
  let w = Wheel.create () in
  (* Times straddling level boundaries (32, 1024, 2^15) force cascades
     as the cursor crosses digit edges; order must survive them. *)
  let times = [ 31; 32; 33; 1023; 1024; 1025; (1 lsl 15) + 1; 40_000 ] in
  List.iteri (fun i tm -> Wheel.push w ~prio:tm i) (List.rev times);
  let expect = List.sort compare (List.mapi (fun i tm -> (tm, i)) (List.rev times)) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "cascades preserve time order" expect (drain_wheel w);
  (* After draining, the cursor sits at the last popped time; pushing at
     that exact time is still legal (ties are future events). *)
  Wheel.push w ~prio:40_000 7;
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "push at cursor" (Some (40_000, 7)) (Wheel.pop w)

let test_wheel_rejects_past () =
  let w = Wheel.create () in
  Wheel.push w ~prio:100 0;
  ignore (Wheel.pop w);
  Alcotest.check_raises "below cursor"
    (Invalid_argument "Wheel.push: priority below the cursor (scheduling in the past)")
    (fun () -> Wheel.push w ~prio:99 1)

let test_wheel_clear () =
  let w = Wheel.create () in
  Wheel.push w ~prio:50 1;
  Wheel.push w ~prio:max_int 2;
  ignore (Wheel.pop w);
  Wheel.clear w;
  check Alcotest.bool "empty after clear" true (Wheel.is_empty w);
  check Alcotest.int "cursor reset" 0 (Wheel.cursor w);
  (* The old cursor (50) no longer constrains pushes. *)
  Wheel.push w ~prio:1 3;
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "usable after clear" (Some (1, 3)) (Wheel.pop w)

(* Differential oracle: under any monotonic schedule — clustered equal
   timestamps, far-future overflow times, pops interleaved with pushes —
   the wheel must pop the exact (prio, payload) sequence the stable heap
   does. This is the property the engine's scheduler swap rests on.
   Op encoding: -1 = pop (from both), n >= 0 = push at now + offset,
   where the offset class cycles through zero / clustered / mid-range /
   beyond-horizon. *)
let prop_wheel_matches_heap =
  QCheck.Test.make ~name:"wheel pops identically to the stable heap" ~count:300
    QCheck.(list (int_range (-1) 60))
    (fun ops ->
      let w = Wheel.create () in
      let h = Tpp_util.Heap.create () in
      let now = ref 0 in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          if op < 0 then begin
            let a = Wheel.pop w and b = Tpp_util.Heap.pop h in
            (match a with Some (p, _) -> now := max !now p | None -> ());
            a = b
          end
          else begin
            let offset =
              match op mod 4 with
              | 0 -> 0
              | 1 -> op mod 8
              | 2 -> op * 104_729
              | _ -> (1 lsl 61) + op
            in
            (* Saturating: chained far-future offsets must not wrap
               negative (the wheel rejects priorities below the cursor). *)
            let prio =
              if offset > max_int - !now then max_int else !now + offset
            in
            incr seq;
            Wheel.push w ~prio !seq;
            Tpp_util.Heap.push h ~prio !seq;
            Wheel.length w = Tpp_util.Heap.length h
          end)
        ops
      && drain_wheel w = drain h)

(* --- Backdated emission stamps --------------------------------------- *)

(* Among equal priorities both queues order by the [emitted] stamp
   before insertion sequence — the mechanism the sharded simulator uses
   to make an adopted cross-shard delivery (pushed at inbox-drain time)
   sort as if it had been pushed at its original emission time. *)

let test_heap_backdated_ties () =
  let h = Tpp_util.Heap.create () in
  Tpp_util.Heap.push h ~emitted:10 ~prio:7 0;
  Tpp_util.Heap.push h ~emitted:5 ~prio:7 1;   (* backdated: pops first *)
  Tpp_util.Heap.push h ~emitted:10 ~prio:7 2;  (* equal stamp: after 0 *)
  Tpp_util.Heap.push h ~emitted:99 ~prio:3 3;  (* earlier prio still wins *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "(prio, emitted, seq) order"
    [ (3, 3); (7, 1); (7, 0); (7, 2) ]
    (drain h)

let test_wheel_backdated_ties () =
  let w = Wheel.create () in
  Wheel.push w ~emitted:10 ~prio:7 0;
  Wheel.push w ~emitted:5 ~prio:7 1;
  Wheel.push w ~emitted:10 ~prio:7 2;
  Wheel.push w ~emitted:99 ~prio:3 3;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "(prio, emitted, seq) order"
    [ (3, 3); (7, 1); (7, 0); (7, 2) ]
    (drain_wheel w);
  (* Backdating must also order across the wheel/overflow split and
     survive peeks between pushes. *)
  Wheel.push w ~emitted:20 ~prio:max_int 4;
  check Alcotest.int "peek before backdated push" max_int
    (Wheel.peek_prio_or w ~default:0);
  Wheel.push w ~emitted:15 ~prio:max_int 5;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "overflow ties by stamp"
    [ (max_int, 5); (max_int, 4) ]
    (drain_wheel w)

(* Same differential property as above, with the pushes stamped — some
   backdated — exercising the wheel's sorted-insert tie-break path against
   the stable heap's. *)
let prop_wheel_matches_heap_backdated =
  QCheck.Test.make
    ~name:"wheel pops identically to the heap under backdated stamps"
    ~count:300
    QCheck.(list (pair (int_range (-1) 60) (int_range 0 15)))
    (fun ops ->
      let w = Wheel.create () in
      let h = Tpp_util.Heap.create () in
      let now = ref 0 in
      let seq = ref 0 in
      List.for_all
        (fun (op, emitted) ->
          if op < 0 then begin
            let a = Wheel.pop w and b = Tpp_util.Heap.pop h in
            (match a with Some (p, _) -> now := max !now p | None -> ());
            a = b
          end
          else begin
            let offset =
              match op mod 4 with
              | 0 -> 0
              | 1 -> op mod 8
              | 2 -> op * 104_729
              | _ -> (1 lsl 61) + op
            in
            let prio =
              if offset > max_int - !now then max_int else !now + offset
            in
            incr seq;
            Wheel.push w ~emitted ~prio !seq;
            Tpp_util.Heap.push h ~emitted ~prio !seq;
            Wheel.length w = Tpp_util.Heap.length h
          end)
        ops
      && drain_wheel w = drain h)

(* The same differential property on the wheel's full key: pushes carry
   random stamps and tie keys (few distinct values, so sorted inserts
   land at the head, in the middle and at the tail of a nanosecond's
   list, and equal keys fall back to sequence). Offsets cluster where
   the wheel's geometry has edges: the near window's 1024 ns (1000 to
   1100 ns ahead), exact powers of two and their neighbours, mid-range
   and beyond the horizon. Peeks between pushes and pops check the
   wheel's minimum against the heap's as earlier entries arrive and
   leave.
   Op encoding: -2 = peek, -1 = pop, n >= 0 = push with offset class
   [n mod 6]. *)
let prop_wheel_matches_heap_keyed =
  QCheck.Test.make
    ~name:"wheel pops identically to the heap under keyed pushes and peeks"
    ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 400)
        (triple (int_range (-2) 90) (int_range 0 3) (int_range 0 3)))
    (fun ops ->
      let w = Wheel.create () in
      let h = Tpp_util.Heap.create () in
      let now = ref 0 in
      let seq = ref 0 in
      List.for_all
        (fun (op, emitted, tie) ->
          if op = -2 then Wheel.peek_prio w = Tpp_util.Heap.peek_prio h
          else if op = -1 then begin
            let a = Wheel.pop w and b = Tpp_util.Heap.pop h in
            (match a with Some (p, _) -> now := max !now p | None -> ());
            a = b
          end
          else begin
            let offset =
              match op mod 6 with
              | 0 -> 0
              | 1 -> op mod 4
              | 2 -> 1000 + (op * 37 mod 101)
              | 3 -> (1 lsl (op mod 24)) + ((op / 6) mod 3) - 1
              | 4 -> op * 104_729
              | _ -> (1 lsl 61) + op
            in
            let prio =
              if offset > max_int - !now then max_int else !now + offset
            in
            incr seq;
            Wheel.push_keyed w ~prio ~emitted ~tie !seq;
            Tpp_util.Heap.push_keyed h ~prio ~emitted ~tie !seq;
            Wheel.length w = Tpp_util.Heap.length h
          end)
        ops
      && drain_wheel w = drain h)

(* Placements count one filing per push plus one per cascade move: a
   push inside the near window is filed once, one a window ahead twice
   (level 1, then its exact slot). *)
let test_wheel_placements () =
  let w = Wheel.create () in
  Wheel.push w ~prio:1023 0;
  check Alcotest.int "near push filed once" 1 (Wheel.placements w);
  ignore (Wheel.pop w);
  Wheel.push w ~prio:(1023 + 1000) 1;
  ignore (Wheel.pop w);
  check Alcotest.int "a window ahead: filed twice" 3 (Wheel.placements w)

(* --- Rng ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int c 1_000_000) in
  check Alcotest.bool "streams differ" true (xs <> ys)

let test_rng_split_full_state () =
  (* The child is seeded with the parent's full 64-bit output — the
     pre-fix version dropped the sign bit through Int64.to_int — and
     the split consumes exactly one parent draw. *)
  let a = Rng.create ~seed:7 in
  let probe = Rng.create ~seed:7 in
  let parent_out = Rng.bits64 probe in
  let child = Rng.split a in
  let expect = Rng.of_state parent_out in
  for _ = 1 to 10 do
    check Alcotest.int64 "child stream = of_state (parent output)"
      (Rng.bits64 expect) (Rng.bits64 child)
  done;
  for _ = 1 to 10 do
    check Alcotest.int64 "parent advanced exactly one draw" (Rng.bits64 probe)
      (Rng.bits64 a)
  done

(* A bound of 3*2^60 leaves remainder 2^60 against the raw 62-bit draw:
   plain [mod] reduction would land twice as often in the lowest 2^60
   values (expected buckets ~[1500; 750; 750] of 3000). Rejection
   sampling must be flat. *)
let test_rng_int_no_modulo_bias () =
  let bound = 3 * (1 lsl 60) in
  let rng = Rng.create ~seed:13 in
  let counts = Array.make 3 0 in
  let n = 3000 in
  for _ = 1 to n do
    let v = Rng.int rng bound in
    counts.(v / (1 lsl 60)) <- counts.(v / (1 lsl 60)) + 1
  done;
  Array.iteri
    (fun i c ->
      check Alcotest.bool
        (Printf.sprintf "bucket %d: %d within 15%% of n/3" i c)
        true
        (c > 850 && c < 1150))
    counts

let prop_rng_int_uniform_chi2 =
  QCheck.Test.make ~name:"Rng.int chi-square uniformity over 10 buckets"
    ~count:20 QCheck.small_int (fun seed ->
      let rng = Rng.create ~seed in
      let buckets = Array.make 10 0 in
      let n = 10_000 in
      for _ = 1 to n do
        let v = Rng.int rng 10 in
        buckets.(v) <- buckets.(v) + 1
      done;
      let expected = float_of_int n /. 10.0 in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expected in
            acc +. (d *. d /. expected))
          0.0 buckets
      in
      (* 9 degrees of freedom: p=0.999 critical value is 27.9; 40 keeps
         the deterministic seeds comfortably clear of flakiness while
         still damning any systematic bias. *)
      chi2 < 40.0)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean within 5%" true (mean > 4.75 && mean < 5.25)

(* --- Stats / Series ------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 4.0; 2.0; 8.0; 6.0 ];
  check Alcotest.int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 8.0 (Stats.max s);
  check (Alcotest.float 1e-6) "stddev" 2.581989 (Stats.stddev s);
  check (Alcotest.float 1e-9) "p50" 4.0 (Stats.percentile s 50.0);
  check (Alcotest.float 1e-9) "p100" 8.0 (Stats.percentile s 100.0)

let prop_stats_percentile_bounds =
  QCheck.Test.make ~name:"percentile lies within [min,max]" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
              (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let v = Stats.percentile s p in
      v >= Stats.min s && v <= Stats.max s)

let test_series () =
  let s = Series.create ~name:"q" in
  Series.add s ~time:0 1.0;
  Series.add s ~time:(Time_ns.ms 5) 2.0;
  Series.add s ~time:(Time_ns.ms 15) 4.0;
  check Alcotest.int "length" 3 (Series.length s);
  check (Alcotest.option (Alcotest.float 1e-9)) "value_at step" (Some 2.0)
    (Series.value_at s (Time_ns.ms 10));
  check (Alcotest.option (Alcotest.float 1e-9)) "before first" None
    (Series.value_at s (-1));
  let rows = Series.downsample s ~bucket:(Time_ns.ms 10) in
  check Alcotest.int "two buckets" 2 (Array.length rows);
  check (Alcotest.float 1e-9) "bucket mean" 1.5 (snd rows.(0));
  check (Alcotest.float 1e-9) "second bucket" 4.0 (snd rows.(1))

let test_rng_pareto_properties () =
  let rng = Rng.create ~seed:5 in
  let shape = 1.5 and scale = 20_000.0 in
  let n = 20_000 in
  let sum = ref 0.0 and below_scale = ref 0 in
  for _ = 1 to n do
    let x = Rng.pareto rng ~shape ~scale in
    sum := !sum +. x;
    if x < scale then incr below_scale
  done;
  check Alcotest.int "scale is the minimum" 0 !below_scale;
  (* Mean = scale * shape / (shape - 1) = 60k; heavy tail -> generous box. *)
  let mean = !sum /. float_of_int n in
  check Alcotest.bool (Printf.sprintf "mean %.0f in [50k, 75k]" mean) true
    (mean > 50_000.0 && mean < 75_000.0)

let test_series_print_table () =
  let s1 = Series.create ~name:"a" and s2 = Series.create ~name:"b" in
  Series.add s1 ~time:0 1.0;
  Series.add s1 ~time:(Time_ns.sec 1) 2.0;
  Series.add s2 ~time:(Time_ns.sec 1) 5.0;
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  Series.print_table ~out [ s1; s2 ] ~bucket:(Time_ns.sec 1);
  Format.pp_print_flush out ();
  let rendered = Buffer.contents buf in
  let lines = String.split_on_char '\n' rendered in
  check Alcotest.int "header + two rows (+ trailing)" 4 (List.length lines);
  check Alcotest.bool "step-hold fills missing buckets" true
    (match lines with
    | [ _; first; _; _ ] ->
      (* b has no sample in bucket 0: prints 0. *)
      String.length first > 0
    | _ -> false)

let test_series_downsample_validation () =
  let s = Series.create ~name:"x" in
  Alcotest.check_raises "bucket must be positive"
    (Invalid_argument "Series.downsample: bucket") (fun () ->
      ignore (Series.downsample s ~bucket:0))

let test_heap_clear () =
  let h = Tpp_util.Heap.create () in
  Tpp_util.Heap.push h ~prio:1 1;
  Tpp_util.Heap.clear h;
  check Alcotest.bool "empty" true (Tpp_util.Heap.is_empty h);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)) "pop none" None
    (Tpp_util.Heap.pop h)

let test_stats_empty_safe () =
  let s = Stats.create () in
  (* Sums over nothing are well-defined (0.0); extrema and percentiles
     are not — they answer nan rather than fabricating a sample. *)
  check (Alcotest.float 0.0) "mean" 0.0 (Stats.mean s);
  check (Alcotest.float 0.0) "stddev" 0.0 (Stats.stddev s);
  check Alcotest.bool "p99 is nan" true (Float.is_nan (Stats.percentile s 99.0));
  check Alcotest.bool "min is nan" true (Float.is_nan (Stats.min s));
  check Alcotest.bool "max is nan" true (Float.is_nan (Stats.max s))

(* --- Spsc ----------------------------------------------------------- *)

module Spsc = Tpp_util.Spsc

let test_spsc_fifo () =
  let q = Spsc.create () in
  check (Alcotest.option Alcotest.int) "empty" None (Spsc.pop q);
  List.iter (Spsc.push q) [ 1; 2; 3 ];
  check (Alcotest.option Alcotest.int) "first" (Some 1) (Spsc.pop q);
  Spsc.push q 4;
  check (Alcotest.list Alcotest.int) "drain keeps order" [ 2; 3; 4 ]
    (Spsc.drain q);
  check (Alcotest.option Alcotest.int) "drained" None (Spsc.pop q)

let test_spsc_bounded () =
  (* Capacity rounds up to a power of two; a full ring refuses pushes
     until a pop frees a slot, and [push] raises rather than dropping. *)
  let q = Spsc.create ~capacity:3 () in
  check Alcotest.int "rounded capacity" 4 (Spsc.capacity q);
  for i = 1 to 4 do
    check Alcotest.bool "accepts while room" true (Spsc.try_push q i)
  done;
  check Alcotest.bool "refuses when full" false (Spsc.try_push q 5);
  check Alcotest.bool "push raises when full" true
    (match Spsc.push q 5 with exception Spsc.Full -> true | () -> false);
  check Alcotest.int "length" 4 (Spsc.length q);
  check (Alcotest.option Alcotest.int) "fifo head" (Some 1) (Spsc.pop q);
  check Alcotest.bool "room again" true (Spsc.try_push q 5);
  check (Alcotest.list Alcotest.int) "wraps in order" [ 2; 3; 4; 5 ]
    (Spsc.drain q)

let test_spsc_cross_domain () =
  (* Producer on its own domain, consumer here: everything pushed must
     come out exactly once, in order. The ring is much smaller than the
     stream, so the producer exercises the full/retry path and every
     index wraps the ring many times. *)
  let q = Spsc.create ~capacity:16 () in
  let n = 20_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          while not (Spsc.try_push q i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let got = ref 0 in
  let expect = ref 1 in
  while !got < n do
    match Spsc.pop q with
    | Some v ->
      check Alcotest.int "in order" !expect v;
      incr expect;
      incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check (Alcotest.option Alcotest.int) "nothing extra" None (Spsc.pop q)

(* --- Partition ------------------------------------------------------ *)

module Partition = Tpp_util.Partition

(* An even ring: optimal bisection is two arcs with a cut of 2. *)
let ring n = List.init n (fun i -> (i, (i + 1) mod n, 1))

let test_partition_ring () =
  let g = Partition.make_graph ~n:8 ~edges:(ring 8) ~weight:(Array.make 8 1) in
  let assign = Partition.partition g ~parts:2 in
  let size p = Array.fold_left (fun a x -> if x = p then a + 1 else a) 0 assign in
  check Alcotest.int "balanced" 4 (size 0);
  check Alcotest.int "balanced" 4 (size 1);
  check Alcotest.int "minimal cut" 2 (Partition.cut_weight g assign)

let test_partition_determinism_and_bounds () =
  let edges = ring 9 @ [ (0, 4, 3); (2, 7, 2) ] in
  let weight = Array.init 9 (fun i -> 1 + (i mod 3)) in
  let g = Partition.make_graph ~n:9 ~edges ~weight in
  let a1 = Partition.partition g ~parts:3 in
  let a2 = Partition.partition g ~parts:3 in
  check (Alcotest.array Alcotest.int) "deterministic" a1 a2;
  Array.iter (fun p -> check Alcotest.bool "in range" true (p >= 0 && p < 3)) a1;
  for p = 0 to 2 do
    check Alcotest.bool "no empty part" true (Array.exists (( = ) p) a1)
  done

let test_partition_degenerate () =
  let g = Partition.make_graph ~n:3 ~edges:[ (0, 1, 1) ] ~weight:(Array.make 3 1) in
  check (Alcotest.array Alcotest.int) "one part" [| 0; 0; 0 |]
    (Partition.partition g ~parts:1);
  check (Alcotest.array Alcotest.int) "parts >= n: one vertex each"
    [| 0; 1; 2 |]
    (Partition.partition g ~parts:5);
  Alcotest.check_raises "parts < 1"
    (Invalid_argument "Partition.partition: parts must be >= 1") (fun () ->
      ignore (Partition.partition g ~parts:0))

let suite =
  [
    Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "time pp" `Quick test_time_pp;
    Alcotest.test_case "buf roundtrip" `Quick test_buf_roundtrip;
    Alcotest.test_case "buf growth" `Quick test_buf_growth;
    Alcotest.test_case "buf out-of-bounds" `Quick test_buf_oob;
    Alcotest.test_case "buf window" `Quick test_buf_window;
    qtest prop_buf_u32_roundtrip;
    Alcotest.test_case "heap order" `Quick test_heap_order;
    Alcotest.test_case "heap FIFO ties" `Quick test_heap_fifo_ties;
    qtest prop_heap_sorts;
    qtest prop_heap_model;
    Alcotest.test_case "heap pop releases value" `Quick test_heap_pop_releases;
    Alcotest.test_case "heap clear releases values" `Quick test_heap_clear_releases;
    Alcotest.test_case "heap allocation-free accessors" `Quick
      test_heap_alloc_free_accessors;
    Alcotest.test_case "wheel order" `Quick test_wheel_order;
    Alcotest.test_case "wheel FIFO ties" `Quick test_wheel_fifo_ties;
    Alcotest.test_case "wheel overflow horizon" `Quick test_wheel_overflow_horizon;
    Alcotest.test_case "wheel level rollover" `Quick test_wheel_level_rollover;
    Alcotest.test_case "wheel rejects the past" `Quick test_wheel_rejects_past;
    Alcotest.test_case "wheel clear" `Quick test_wheel_clear;
    qtest prop_wheel_matches_heap;
    Alcotest.test_case "heap backdated ties" `Quick test_heap_backdated_ties;
    Alcotest.test_case "wheel backdated ties" `Quick test_wheel_backdated_ties;
    qtest prop_wheel_matches_heap_backdated;
    qtest prop_wheel_matches_heap_keyed;
    Alcotest.test_case "wheel placements" `Quick test_wheel_placements;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng split uses full state" `Quick test_rng_split_full_state;
    Alcotest.test_case "rng int has no modulo bias" `Quick
      test_rng_int_no_modulo_bias;
    qtest prop_rng_int_uniform_chi2;
    qtest prop_rng_int_bounds;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    qtest prop_stats_percentile_bounds;
    Alcotest.test_case "series" `Quick test_series;
    Alcotest.test_case "rng pareto" `Quick test_rng_pareto_properties;
    Alcotest.test_case "series print table" `Quick test_series_print_table;
    Alcotest.test_case "series downsample validation" `Quick
      test_series_downsample_validation;
    Alcotest.test_case "heap clear" `Quick test_heap_clear;
    Alcotest.test_case "stats empty" `Quick test_stats_empty_safe;
    Alcotest.test_case "spsc fifo" `Quick test_spsc_fifo;
    Alcotest.test_case "spsc bounded" `Quick test_spsc_bounded;
    Alcotest.test_case "spsc cross-domain" `Quick test_spsc_cross_domain;
    Alcotest.test_case "partition ring" `Quick test_partition_ring;
    Alcotest.test_case "partition deterministic" `Quick
      test_partition_determinism_and_bounds;
    Alcotest.test_case "partition degenerate" `Quick test_partition_degenerate;
  ]
