module Tpp = Tpp_isa.Tpp
module Instr = Tpp_isa.Instr
module Frame = Tpp_isa.Frame

type fault = Compile.fault =
  | Mmu_fault of Mmu.fault
  | Packet_oob of int
  | Misaligned of int
  | Immediate_write
  | Stack_overflow
  | Stack_underflow
  | Bad_operand of string

let fault_message = Compile.fault_message

type result = {
  executed : int;
  cycles : int;
  stopped_by_cexec : bool;
  fault : fault option;
}

type backend = Compiled | Interpreter

let default = Atomic.make Compiled
let set_default_backend b = Atomic.set default b
let default_backend () = Atomic.get default

let pipeline_fill = 4
let cycles_for n = pipeline_fill + n
let cycle_budget = 300

let mask32 v = v land 0xFFFF_FFFF

(* ---- Reference backend: the original AST interpreter. Kept verbatim
   as the semantic oracle for the compiled path (QCheck differential
   test) and selectable via [~backend:Interpreter]. ---- *)

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

(* ---- Compiled backend: link the TPP's shared handle to the cached
   compiled program, compiling on first sight of the bytes. ---- *)

let compiled_for state tpp =
  match Tpp.compiled_handle tpp with
  | Compile.Compiled c ->
    (* The template family is already linked: zero lookups. *)
    state.State.tpp_compile_hits <- state.State.tpp_compile_hits + 1;
    c
  | _ ->
    state.State.tpp_compile_misses <- state.State.tpp_compile_misses + 1;
    let c = Compile.lookup tpp in
    Tpp.set_compiled_handle tpp (Compile.Compiled c);
    c

(* The one execution core: run the program on either backend, then do
   the post-processing both share. Allocation-free on the compiled
   backend; why execution stopped stays in [ctx]. *)
let run ?backend ctx state ~now ~(frame : Frame.t) =
  match frame.Frame.tpp with
  | None -> -1
  | Some tpp when tpp.Tpp.faulted ->
    (* A faulted TPP is inert for the rest of its journey. *)
    -1
  | Some tpp ->
    let meta = frame.Frame.meta in
    let backend = match backend with Some b -> b | None -> Atomic.get default in
    let executed =
      match backend with
      | Compiled -> Compile.run (compiled_for state tpp) ctx state ~now ~tpp ~meta
      | Interpreter ->
        let executed, cexec, fault = run_interpreter state ~now ~tpp ~meta in
        Compile.record_stop ctx ~cexec ~fault;
        executed
    in
    tpp.Tpp.hop <- (tpp.Tpp.hop + 1) land 0xFFFF;
    if Compile.faulted ctx then begin
      tpp.Tpp.faulted <- true;
      state.State.tpp_faults <- state.State.tpp_faults + 1
    end;
    state.State.tpp_execs <- state.State.tpp_execs + 1;
    state.State.tpp_cycles <- state.State.tpp_cycles + cycles_for executed;
    executed

(* [execute] runs outside any switch, so it borrows its domain's
   context. *)
let domain_ctx = Domain.DLS.new_key Compile.context

let execute ?backend state ~now ~frame =
  match frame.Frame.tpp with
  | None -> None
  | Some tpp when tpp.Tpp.faulted ->
    Some { executed = 0; cycles = 0; stopped_by_cexec = false; fault = None }
  | Some _ ->
    let ctx = Domain.DLS.get domain_ctx in
    let executed = run ?backend ctx state ~now ~frame in
    Some
      {
        executed;
        cycles = cycles_for executed;
        stopped_by_cexec = Compile.stopped_by_cexec ctx;
        fault = Compile.fault ctx;
      }
