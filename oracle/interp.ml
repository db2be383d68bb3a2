module Tpp = Tpp_isa.Tpp
module Instr = Tpp_isa.Instr
module Frame = Tpp_isa.Frame
module State = Tpp_asic.State
module Mmu = Tpp_asic.Mmu
module Tcpu = Tpp_asic.Tcpu
module Switch = Tpp_asic.Switch

type fault = Tcpu.fault =
  | Mmu_fault of Mmu.fault
  | Packet_oob of int
  | Misaligned of int
  | Immediate_write
  | Stack_overflow
  | Stack_underflow
  | Bad_operand of string

let mask32 v = v land 0xFFFF_FFFF

type exec_ctx = {
  state : State.t;
  now : int;
  tpp : Tpp.t;
  meta : Tpp_isa.Meta.t;
  mem_len : int;   (* hoisted: constant across the whole execution *)
  hop_base : int;  (* base + hop * perhop_len, fixed until the hop bump *)
}

let check_pkt ctx off =
  if off < 0 || off + 4 > ctx.mem_len then Error (Packet_oob off)
  else if off mod 4 <> 0 then Error (Misaligned off)
  else Ok off

let hop_offset ctx idx = ctx.hop_base + (4 * idx)

let read_pkt ctx off =
  match check_pkt ctx off with
  | Ok off -> Ok (Tpp.mem_get ctx.tpp off)
  | Error e -> Error e

let write_pkt ctx off v =
  match check_pkt ctx off with
  | Ok off ->
    Tpp.mem_set ctx.tpp off v;
    Ok ()
  | Error e -> Error e

let read_operand ctx = function
  | Instr.Sw a -> (
    match Mmu.read ctx.state ~meta:ctx.meta ~now:ctx.now a with
    | Ok v -> Ok v
    | Error f -> Error (Mmu_fault f))
  | Instr.Pkt off -> read_pkt ctx off
  | Instr.Imm v -> Ok v
  | Instr.Hop idx -> read_pkt ctx (hop_offset ctx idx)

let write_operand ctx op v =
  match op with
  | Instr.Sw a -> (
    match Mmu.write ctx.state ~meta:ctx.meta a v with
    | Ok () -> Ok ()
    | Error f -> Error (Mmu_fault f))
  | Instr.Pkt off -> write_pkt ctx off v
  | Instr.Hop idx -> write_pkt ctx (hop_offset ctx idx) v
  | Instr.Imm _ -> Error Immediate_write

(* CSTORE/CEXEC take their wide immediates from a two-word block in
   packet memory; the operand must therefore name packet memory. *)
let pool_offset ctx = function
  | Instr.Pkt off -> Ok off
  | Instr.Hop idx -> Ok (hop_offset ctx idx)
  | Instr.Sw _ | Instr.Imm _ -> Error (Bad_operand "pool operand must be packet memory")

let apply_binop op a b =
  match op with
  | Instr.Add -> mask32 (a + b)
  | Instr.Sub -> mask32 (a - b)
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Min -> Int.min a b
  | Instr.Max -> Int.max a b

let ( let* ) = Result.bind

(* One instruction. [Ok true] = continue, [Ok false] = stop cleanly. *)
let step ctx instr =
  match instr with
  | Instr.Nop -> Ok true
  | Instr.Halt -> Ok false
  | Instr.Push src ->
    let* v = read_operand ctx src in
    let sp = ctx.tpp.Tpp.sp in
    if sp + 4 > ctx.mem_len then Error Stack_overflow
    else begin
      let* () = write_pkt ctx sp v in
      ctx.tpp.Tpp.sp <- sp + 4;
      Ok true
    end
  | Instr.Pop dst ->
    let sp = ctx.tpp.Tpp.sp - 4 in
    if sp < ctx.tpp.Tpp.base then Error Stack_underflow
    else begin
      let* v = read_pkt ctx sp in
      let* () = write_operand ctx dst v in
      ctx.tpp.Tpp.sp <- sp;
      Ok true
    end
  | Instr.Load (src, dst) ->
    let* v = read_operand ctx src in
    let* () = write_operand ctx dst v in
    Ok true
  | Instr.Store (dst, src) | Instr.Mov (dst, src) ->
    let* v = read_operand ctx src in
    let* () = write_operand ctx dst v in
    Ok true
  | Instr.Binop (op, dst, src) ->
    let* a = read_operand ctx dst in
    let* b = read_operand ctx src in
    let* () = write_operand ctx dst (apply_binop op a b) in
    Ok true
  | Instr.Cstore (dst, pool) ->
    let* pool = pool_offset ctx pool in
    let* cond = read_pkt ctx pool in
    let* replacement = read_pkt ctx (pool + 4) in
    let* old = read_operand ctx dst in
    let* () = if old = cond then write_operand ctx dst replacement else Ok () in
    let* () = write_pkt ctx pool old in
    Ok true
  | Instr.Cexec (reg, pool) ->
    let* pool = pool_offset ctx pool in
    let* mask = read_pkt ctx pool in
    let* expected = read_pkt ctx (pool + 4) in
    let* v = read_operand ctx reg in
    Ok (v land mask = expected)

let run_interpreter state ~now ~tpp ~meta =
  let ctx =
    { state; now; tpp; meta;
      mem_len = tpp.Tpp.mem_len;
      hop_base = tpp.Tpp.base + (tpp.Tpp.hop * tpp.Tpp.perhop_len) }
  in
  let program = tpp.Tpp.program in
  let len = Array.length program in
  let rec run i cexec_stop =
    if i >= len then (i, cexec_stop, None)
    else
      match step ctx program.(i) with
      | Ok true -> run (i + 1) false
      | Ok false ->
        let stopped_by_cexec =
          match program.(i) with Instr.Cexec _ -> true | _ -> false
        in
        (i + 1, stopped_by_cexec, None)
      | Error fault -> (i + 1, false, Some fault)
  in
  run 0 false

(* The hop bookkeeping of [Tcpu.run], kept apart from it so the tests
   hold the two equal rather than share one copy. *)
let hop state ~now ~(frame : Frame.t) tpp =
  let ((executed, _, fault) as stop) =
    run_interpreter state ~now ~tpp ~meta:frame.Frame.meta
  in
  tpp.Tpp.hop <- (tpp.Tpp.hop + 1) land 0xFFFF;
  if Option.is_some fault then begin
    tpp.Tpp.faulted <- true;
    state.State.tpp_faults <- state.State.tpp_faults + 1
  end;
  state.State.tpp_execs <- state.State.tpp_execs + 1;
  state.State.tpp_cycles <- state.State.tpp_cycles + Tcpu.cycles_for executed;
  stop

let run state ~now ~(frame : Frame.t) =
  match frame.Frame.tpp with
  | Some tpp when not tpp.Tpp.faulted ->
    let executed, _, _ = hop state ~now ~frame tpp in
    executed
  | Some _ | None -> -1

let execute state ~now ~(frame : Frame.t) =
  match frame.Frame.tpp with
  | None -> None
  | Some tpp when tpp.Tpp.faulted ->
    Some { Tcpu.executed = 0; cycles = 0; stopped_by_cexec = false; fault = None }
  | Some tpp ->
    let executed, stopped_by_cexec, fault = hop state ~now ~frame tpp in
    Some { Tcpu.executed; cycles = Tcpu.cycles_for executed; stopped_by_cexec; fault }

let install sw = Switch.set_tcpu sw (fun _ state ~now ~frame -> run state ~now ~frame)
