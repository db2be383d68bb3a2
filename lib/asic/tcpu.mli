(** The tiny CPU (paper §3.3): executes a packet's TPP against the
    switch's memory-mapped state, in the dataplane, between the
    forwarding lookup and the egress queue.

    The execution model mirrors the paper's 5-stage RISC pipeline:
    instructions complete at one per clock cycle after a 4-cycle fill,
    so an n-instruction program costs [4 + n] cycles — the number
    {!result.cycles} reports and experiment E7 compares against the
    300-cycle cut-through budget of a 1 GHz ASIC.

    Faults (bad address, write to read-only state, packet-memory
    overrun) stop execution and set the TPP's fault flag; the packet is
    still forwarded, so end-hosts observe the fault instead of losing
    the packet. A failed [CEXEC] check is not a fault: it merely skips
    the rest of the program (paper §3.2.3).

    A program runs in its cached micro-op form ({!Compile}), compiled on
    first sight of its instruction bytes. The original AST interpreter
    is not part of the dataplane: it lives in the [tpp_oracle] library,
    which only the tests and the bench link, as the reference that a
    differential test holds this module equal to. *)

type fault = Compile.fault =
  | Mmu_fault of Mmu.fault
  | Packet_oob of int        (** packet-memory access out of bounds *)
  | Misaligned of int
  | Immediate_write          (** an immediate used as a destination *)
  | Stack_overflow
  | Stack_underflow
  | Bad_operand of string   (** e.g. a CSTORE/CEXEC pool operand that is
                                not packet memory *)

val fault_message : fault -> string

type result = {
  executed : int;            (** instructions that ran (incl. a failed CEXEC) *)
  cycles : int;              (** pipeline cycles: 4 + executed *)
  stopped_by_cexec : bool;
  fault : fault option;
}

val run :
  Compile.ctx -> State.t -> now:int -> frame:Tpp_isa.Frame.t -> int
(** The execution core behind {!execute}, for the per-hop path: runs the
    frame's TPP, bumps the hop counter, the fault flag and the switch's
    TPP counters exactly as {!execute} does, and returns the number of
    instructions executed, or [-1] when nothing ran (no TPP, or one that
    already faulted). It allocates nothing.
    Why execution stopped stays in the context ({!Compile.fault}). *)

val execute : State.t -> now:int -> frame:Tpp_isa.Frame.t -> result option
(** Runs the frame's TPP through {!run}, mutating its packet memory /
    stack pointer / hop counter and any SRAM it stores to, and bumps the
    switch's TPP counters. [None] when the frame carries no TPP (the TCPU
    ignores non-TPP packets). The frame's metadata must already be
    filled in by the forwarding lookup.

    Every run also counts a per-switch compile-cache hit
    (TPP already linked to compiled code) or miss in
    {!State.t.tpp_compile_hits} / [tpp_compile_misses]. *)

val cycle_budget : int
(** Cycles available to a minimum-size packet under 300 ns cut-through
    latency at 1 GHz (paper §3.3 "Overheads"): 300. *)

val cycles_for : int -> int
(** [cycles_for n] is the cycle cost of an [n]-instruction program. *)
