module Tpp = Tpp_isa.Tpp
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

let pipeline_fill = 4
let cycles_for n = pipeline_fill + n
let cycle_budget = 300

(* Link the TPP's shared handle to the cached compiled program,
   compiling on first sight of the bytes. *)
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

(* The one execution core: run the compiled program, then bump the hop,
   the fault flag and the counters. Allocation-free; why execution
   stopped stays in [ctx]. *)
let run ctx state ~now ~(frame : Frame.t) =
  match frame.Frame.tpp with
  | None -> -1
  | Some tpp when tpp.Tpp.faulted ->
    (* A faulted TPP is inert for the rest of its journey. *)
    -1
  | Some tpp ->
    let executed =
      Compile.run (compiled_for state tpp) ctx state ~now ~tpp ~meta:frame.Frame.meta
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

let execute state ~now ~frame =
  match frame.Frame.tpp with
  | None -> None
  | Some tpp when tpp.Tpp.faulted ->
    Some { executed = 0; cycles = 0; stopped_by_cexec = false; fault = None }
  | Some _ ->
    let ctx = Domain.DLS.get domain_ctx in
    let executed = run ctx state ~now ~frame in
    Some
      {
        executed;
        cycles = cycles_for executed;
        stopped_by_cexec = Compile.stopped_by_cexec ctx;
        fault = Compile.fault ctx;
      }
