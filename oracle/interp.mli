(** The TCPU's reference semantics: the AST interpreter the switch ran
    before {!Tpp_asic.Compile}, one [Result]-returning step per
    instruction. It is the oracle of the compiled TCPU, as the random
    programs of "Testing Compilers for Programmable Switches" check a
    compiler against an interpreter: [test_compile]'s differential,
    [test_tcpu]'s parity cases and the [tpp-heavy] gate row's
    whole-fabric identity all compare the two.

    It keeps its own hop, fault-flag and counter bookkeeping, written
    apart from {!Tpp_asic.Tcpu.run}'s, so those tests check that too. *)

val run : Tpp_asic.State.t -> now:int -> frame:Tpp_isa.Frame.t -> int
(** {!Tpp_asic.Tcpu.run}'s contract without the compiled context: runs
    the frame's TPP, bumps its hop counter, fault flag and the switch's
    TPP counters, and returns the instructions executed, or [-1] when
    nothing ran. It leaves the compile-cache counters alone. *)

val execute :
  Tpp_asic.State.t -> now:int -> frame:Tpp_isa.Frame.t -> Tpp_asic.Tcpu.result option
(** {!Tpp_asic.Tcpu.execute}'s contract, on the interpreter. *)

val install : Tpp_asic.Switch.t -> unit
(** Makes {!run} the switch's TCPU ({!Tpp_asic.Switch.set_tcpu}). *)
