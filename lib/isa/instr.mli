(** The TPP instruction set (paper Table 1) and its 4-byte encoding.

    Each instruction packs into one 32-bit word:
    [opcode:4 | operand1:14 | operand2:14], an operand being
    [space:2 | value:12]. Three-operand forms from the paper
    ([CSTORE dst,cond,src] and [CEXEC reg,mask,value]) are encoded with
    their wide immediates placed in a constant pool inside packet memory
    (see {!Asm}); the encoded instruction carries the pool offset. *)

(** Where an operand's value lives. *)
type operand =
  | Sw of int   (** switch virtual address, see {!Vaddr} *)
  | Pkt of int  (** packet-memory byte offset (word aligned) *)
  | Imm of int  (** 12-bit unsigned immediate *)
  | Hop of int  (** hop-relative packet word index (paper §3.2.2) *)

type binop = Add | Sub | And | Or | Min | Max

type t =
  | Nop
  | Push of operand          (** [PUSH src]: pkt\[sp\] <- src; sp += 4 *)
  | Pop of operand           (** [POP dst]: sp -= 4; dst <- pkt\[sp\] *)
  | Load of operand * operand   (** [LOAD src, dst]: dst(packet) <- src *)
  | Store of operand * operand  (** [STORE dst, src]: dst(switch) <- src *)
  | Mov of operand * operand    (** [MOV dst, src] *)
  | Binop of binop * operand * operand  (** [OP dst, src]: dst <- dst op src *)
  | Cstore of operand * operand
      (** [CSTORE dst, pool]: let cond = pkt\[pool\], new = pkt\[pool+4\];
          if dst = cond then dst <- new; pkt\[pool\] <- old value of dst.
          Linearizable conditional store (paper §2.2). *)
  | Cexec of operand * operand
      (** [CEXEC reg, pool]: let mask = pkt\[pool\], v = pkt\[pool+4\];
          unless (reg land mask) = v, stop executing this TPP here
          (paper §3.2.3: all following instructions are skipped). *)
  | Halt

val size : int
(** Encoded size of one instruction: 4 bytes. *)

val encode : t -> int32
val decode : int32 -> (t, string) result

val write : Tpp_util.Buf.Writer.t -> t -> unit
val read : Tpp_util.Buf.Reader.t -> (t, string) result

val pp_operand : Format.formatter -> operand -> unit
val pp : Format.formatter -> t -> unit
(** Symbolic rendering, e.g. [PUSH [Queue:QueueSize]]. *)

val equal : t -> t -> bool
