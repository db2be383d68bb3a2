(** TCPU program compilation (the "Packet Transactions" move): lower an
    instruction array once into a flat array of monomorphic micro-op
    closures, then run those for every packet carrying the same program.

    The paper's workloads stamp one tiny program into millions of
    packets; interpreting the AST per hop re-pays operand decoding,
    region dispatch and a [Result] allocation per instruction every
    time. Compilation pays those costs once per distinct program:

    - addressing modes and the switch-address region dispatch
      ({!Tpp_isa.Vaddr.classify}) are resolved at compile time;
    - per-program constants (static offsets, alignment of literal
      packet offsets, binop selection) are hoisted into the closures;
    - faults are signalled by sentinel ints in a mutable execution
      context, so the hot loop allocates nothing.

    Compiled programs are architecturally indistinguishable from the
    AST interpreter (the [tpp_oracle] library's reference, linked only
    by the tests and the bench): same register writes, same fault kinds
    at the same instruction, same CEXEC/CSTORE and stack semantics. A
    QCheck differential test holds the two equal on random programs and
    states.

    Everything that varies per execution — switch state, packet
    metadata, packet memory and its length, the hop base — reaches the
    micro-ops at run time, never at compile time, so TPPs that share
    instruction bytes share compiled code even when their memory
    layouts differ. The TPP (whose record holds the packet memory) and
    its metadata are the micro-ops' arguments; the execution context
    holds only ints and the switch state, so a run stores no pointer
    to the packet into a long-lived block (no write barrier per hop). *)

(** Execution faults (also re-exported as {!Tcpu.fault}). *)
type fault =
  | Mmu_fault of Mmu.fault
  | Packet_oob of int        (** packet-memory access out of bounds *)
  | Misaligned of int
  | Immediate_write          (** an immediate used as a destination *)
  | Stack_overflow
  | Stack_underflow
  | Bad_operand of string    (** e.g. a CSTORE/CEXEC pool operand that is
                                 not packet memory *)

val fault_message : fault -> string

type t
(** A compiled program: one closure per instruction. *)

val length : t -> int
(** Number of micro-ops (= source instructions). *)

val compile : Tpp_isa.Instr.t array -> t
(** Lowers a program, bypassing the cache (tests use this directly). *)

type ctx
(** A mutable execution context. Its owner reuses it for every
    execution, so running a program allocates nothing; a context must
    not be shared by two executions at once (one per switch, or one per
    domain). It keeps the last switch state it ran against and stores
    a new one only when it changes. *)

val context : unit -> ctx

val run :
  t -> ctx -> State.t -> now:int -> tpp:Tpp_isa.Tpp.t -> meta:Tpp_isa.Meta.t -> int
(** [run c ctx state ~now ~tpp ~meta] executes the compiled program
    against [tpp]'s packet memory and the switch state with the
    interpreter's exact semantics, returning the number of instructions
    executed. Why execution stopped stays in [ctx] until the next run
    ({!faulted}, {!stopped_by_cexec}, {!fault}). Post-processing (hop
    bump, fault flag, exec/cycle accounting) is the caller's job —
    {!Tcpu.run} does it. *)

val faulted : ctx -> bool
val stopped_by_cexec : ctx -> bool

val fault : ctx -> fault option
(** The last run's fault, built on demand. *)

type Tpp_isa.Tpp.compiled += Compiled of t
(** The constructor {!Tcpu} stores in a TPP's shared compiled-handle
    cell, so every copy of a template hits compiled code directly. *)

val lookup : Tpp_isa.Tpp.t -> t
(** The process-wide cache: returns the compiled form of the TPP's
    program, compiling it if this is the first time any domain has seen
    these instruction bytes ({!Tpp_isa.Tpp.program_key}). Lock-free and
    domain-safe: the cache is an immutable map behind an [Atomic.t]
    with CAS insertion, so concurrent shards may race to compile but a
    key permanently maps to one compiled program. *)

type cache_stats = { programs : int; hits : int; misses : int }
(** Process-wide totals: distinct programs compiled, and {!lookup}
    outcomes. (Per-switch counters live in {!State}; both are
    observability only — the hit/miss split depends on shard layout.) *)

val cache_stats : unit -> cache_stats

val clear_cache : unit -> unit
(** Empties the cache and zeroes its counters (test/bench isolation).
    Already-linked TPP handles keep working; new lookups recompile. *)
