module Tpp = Tpp_isa.Tpp
module Instr = Tpp_isa.Instr
module Vaddr = Tpp_isa.Vaddr
module Meta = Tpp_isa.Meta

type fault =
  | Mmu_fault of Mmu.fault
  | Packet_oob of int
  | Misaligned of int
  | Immediate_write
  | Stack_overflow
  | Stack_underflow
  | Bad_operand of string

let fault_message = function
  | Mmu_fault f -> Mmu.fault_message f
  | Packet_oob off -> Printf.sprintf "packet memory access at %d out of bounds" off
  | Misaligned off -> Printf.sprintf "misaligned packet memory access at %d" off
  | Immediate_write -> "immediate operand used as destination"
  | Stack_overflow -> "stack overflow (packet memory exhausted)"
  | Stack_underflow -> "stack underflow"
  | Bad_operand what -> "bad operand: " ^ what

(* Execution context. Everything that varies between executions of the
   same program — the switch, the packet, its memory layout — flows
   through here or through the micro-ops' arguments, which is what lets
   one compiled program serve every TPP with the same instruction
   bytes. The context is owned by its caller and refilled by every
   {!run}, so an execution allocates nothing.

   It binds no per-packet pointer: the TPP (whose record holds the
   packet memory) and its metadata are the micro-ops' arguments. A
   pointer stored into a long-lived context on every run is a write
   barrier per run, and during marking it darkens the previous packet's
   block; the ints here cost a plain store, and [state] is stored only
   when it changes (never, on a switch's own context).

   Faults are signalled without allocating: a micro-op that faults
   records the fault as two ints ([f_kind]/[f_detail]) and the [fault]
   value is only constructed when a caller asks for it ({!fault}).
   [f_kind] is -1 while no fault has occurred; since execution stops at
   the first fault, the field transitions at most once per run. [stop]
   is the status code that ended the last run. *)
type ctx = {
  mutable state : State.t;
  mutable now : int;
  mutable mem_len : int;
  mutable hop_base : int;  (* base + hop * perhop_len, fixed for the whole run *)
  mutable f_kind : int;
  mutable f_detail : int;
  mutable stop : int;
}

(* Encoded fault kinds (values of [f_kind]). *)
let k_packet_oob = 0
let k_misaligned = 1
let k_immediate_write = 2
let k_stack_overflow = 3
let k_stack_underflow = 4
let k_bad_operand = 5
let k_bad_address = 6
let k_read_only = 7
let k_port_oor = 8

let decode_fault c =
  match c.f_kind with
  | 0 -> Packet_oob c.f_detail
  | 1 -> Misaligned c.f_detail
  | 2 -> Immediate_write
  | 3 -> Stack_overflow
  | 4 -> Stack_underflow
  | 5 -> Bad_operand "pool operand must be packet memory"
  | 6 -> Mmu_fault (Mmu.Bad_address c.f_detail)
  | 7 -> Mmu_fault (Mmu.Read_only c.f_detail)
  | _ -> Mmu_fault (Mmu.Port_out_of_range c.f_detail)

(* Micro-op status codes. *)
let st_continue = 0
let st_halt = 1
let st_cexec = 2
let st_fault = 3

type uop = ctx -> Tpp.t -> Meta.t -> int

type t = { uops : uop array }

let length t = Array.length t.uops

(* Raw word access; bounds/alignment are checked by the callers, so
   these compile to a plain load/store (same big-endian layout as
   [Buf.get_u32i]/[set_u32i]). *)
let get32 m off = Int32.to_int (Bytes.get_int32_be m off) land 0xFFFF_FFFF
let set32 m off v = Bytes.set_int32_be m off (Int32.of_int v)

(* Packet-memory word access relative to the TPP's window. When the
   TPP is embedded in a flat frame this writes the wire image in place. *)
let[@inline] mget (tpp : Tpp.t) off = get32 tpp.Tpp.memory (tpp.Tpp.mem_off + off)
let[@inline] mset (tpp : Tpp.t) off v = set32 tpp.Tpp.memory (tpp.Tpp.mem_off + off) v

(* Runtime-checked packet-memory word read: bounds before alignment,
   exactly like the interpreter's [check_pkt]. Negative offsets fall to
   the bounds check, so [land 3] and [mod 4] agree on the rest. *)
let read_mem c tpp off =
  if off < 0 || off + 4 > c.mem_len then begin
    c.f_kind <- k_packet_oob;
    c.f_detail <- off;
    0
  end
  else if off land 3 <> 0 then begin
    c.f_kind <- k_misaligned;
    c.f_detail <- off;
    0
  end
  else mget tpp off

let write_mem c tpp off v =
  if off < 0 || off + 4 > c.mem_len then begin
    c.f_kind <- k_packet_oob;
    c.f_detail <- off;
    false
  end
  else if off land 3 <> 0 then begin
    c.f_kind <- k_misaligned;
    c.f_detail <- off;
    false
  end
  else begin
    mset tpp off v;
    true
  end

(* Operand lowering: the addressing mode — and for switch addresses the
   whole region dispatch — is resolved here, once per program, so the
   returned closure is monomorphic straight-line code. Readers return
   the value and leave [f_kind] untouched, or record a fault; callers
   test [c.f_kind >= 0] after each read. *)

let bad_addr c a =
  c.f_kind <- k_bad_address;
  c.f_detail <- a;
  0

let bad_address a : uop = fun c _ _ -> bad_addr c a

let compile_read (op : Instr.operand) : uop =
  match op with
  | Instr.Imm v -> fun _ _ _ -> v
  | Instr.Pkt off ->
    if off >= 0 && off land 3 = 0 then fun c tpp _ ->
      (* only the bounds depend on the packet; alignment is static *)
      if off + 4 > c.mem_len then begin
        c.f_kind <- k_packet_oob;
        c.f_detail <- off;
        0
      end
      else mget tpp off
    else fun c tpp _ ->
      (* statically a fault, but which fault depends on [mem_len] *)
      read_mem c tpp off
  | Instr.Hop idx -> fun c tpp _ -> read_mem c tpp (c.hop_base + (4 * idx))
  | Instr.Sw a -> (
    match Vaddr.classify a with
    | Error _ -> bad_address a
    | Ok (Vaddr.Switch s) -> fun c _ _ -> State.switch_stat c.state ~now:c.now s
    | Ok (Vaddr.Link s) ->
      fun c _ meta ->
        let port = meta.Meta.out_port in
        if port < 0 || port >= c.state.State.num_ports then begin
          c.f_kind <- k_port_oor;
          c.f_detail <- port;
          0
        end
        else State.port_stat c.state ~port s
    | Ok (Vaddr.Queue s) ->
      fun c _ meta ->
        let port = meta.Meta.out_port in
        if port < 0 || port >= c.state.State.num_ports then begin
          c.f_kind <- k_port_oor;
          c.f_detail <- port;
          0
        end
        else begin
          match State.queue_stat c.state ~port ~queue:meta.Meta.queue_id s with
          | -1 -> bad_addr c a
          | v -> v
        end
    | Ok (Vaddr.Link_sram slot) ->
      fun c _ meta -> (
        match State.link_sram_index c.state ~slot ~port:meta.Meta.out_port with
        | -1 -> bad_addr c a
        | idx -> (State.sram_array c.state).(idx))
    | Ok (Vaddr.Port (port, s)) ->
      fun c _ _ ->
        if port >= c.state.State.num_ports then begin
          c.f_kind <- k_port_oor;
          c.f_detail <- port;
          0
        end
        else State.port_stat c.state ~port s
    | Ok (Vaddr.Meta m) -> fun _ _ meta -> Meta.get meta m
    | Ok (Vaddr.Sram w) ->
      fun c _ _ -> (
        match State.sram_get c.state w with -1 -> bad_addr c a | v -> v))

let compile_write (op : Instr.operand) : ctx -> Tpp.t -> Meta.t -> int -> bool =
  match op with
  | Instr.Imm _ ->
    fun c _ _ _ ->
      c.f_kind <- k_immediate_write;
      false
  | Instr.Pkt off ->
    if off >= 0 && off land 3 = 0 then fun c tpp _ v ->
      if off + 4 > c.mem_len then begin
        c.f_kind <- k_packet_oob;
        c.f_detail <- off;
        false
      end
      else begin
        mset tpp off v;
        true
      end
    else fun c tpp _ v -> write_mem c tpp off v
  | Instr.Hop idx -> fun c tpp _ v -> write_mem c tpp (c.hop_base + (4 * idx)) v
  | Instr.Sw a -> (
    match Vaddr.classify a with
    | Error _ ->
      fun c _ _ _ ->
        c.f_kind <- k_bad_address;
        c.f_detail <- a;
        false
    | Ok (Vaddr.Link_sram slot) ->
      fun c _ meta v -> (
        match State.link_sram_index c.state ~slot ~port:meta.Meta.out_port with
        | -1 ->
          c.f_kind <- k_bad_address;
          c.f_detail <- a;
          false
        | idx ->
          (State.sram_array c.state).(idx) <- v land 0xFFFF_FFFF;
          true)
    | Ok (Vaddr.Sram w) ->
      fun c _ _ v ->
        if State.sram_set c.state w v then true
        else begin
          c.f_kind <- k_bad_address;
          c.f_detail <- a;
          false
        end
    | Ok (Vaddr.Switch _ | Vaddr.Link _ | Vaddr.Queue _ | Vaddr.Port _ | Vaddr.Meta _)
      ->
      fun c _ _ _ ->
        c.f_kind <- k_read_only;
        c.f_detail <- a;
        false)

(* Reads whose lowered form can never set [f_kind]: immediates, switch
   registers, packet metadata and statically-ranged SRAM words. Their
   callers skip the post-read fault check entirely. *)
let read_never_faults = function
  | Instr.Imm _ -> true
  | Instr.Sw a -> (
    match Vaddr.classify a with
    | Ok (Vaddr.Switch _ | Vaddr.Meta _ | Vaddr.Sram _) -> true
    | Ok (Vaddr.Link _ | Vaddr.Queue _ | Vaddr.Link_sram _ | Vaddr.Port _)
    | Error _ ->
      false)
  | Instr.Pkt _ | Instr.Hop _ -> false

(* A statically known, in-principle-valid packet offset: non-negative
   and word aligned, so only the (per-packet) bounds check remains. *)
let static_pkt = function
  | Instr.Pkt off when off >= 0 && off land 3 = 0 -> Some off
  | _ -> None

let oob c off =
  c.f_kind <- k_packet_oob;
  c.f_detail <- off;
  st_fault

(* CSTORE/CEXEC pool operands must name packet memory; that property is
   static, so a switch/immediate pool compiles to a constant fault. The
   offset itself never faults — [read_mem] validates it. *)
let compile_pool_offset (op : Instr.operand) : (ctx -> int) option =
  match op with
  | Instr.Pkt off -> Some (fun _ -> off)
  | Instr.Hop idx -> Some (fun c -> c.hop_base + (4 * idx))
  | Instr.Sw _ | Instr.Imm _ -> None

let bad_pool : uop =
 fun c _ _ ->
  c.f_kind <- k_bad_operand;
  st_fault

let compile_instr (instr : Instr.t) : uop =
  match instr with
  | Instr.Nop -> fun _ _ _ -> st_continue
  | Instr.Halt -> fun _ _ _ -> st_halt
  | Instr.Push src ->
    let read = compile_read src in
    fun c tpp meta ->
      let v = read c tpp meta in
      if c.f_kind >= 0 then st_fault
      else begin
        let sp = tpp.Tpp.sp in
        if sp + 4 > c.mem_len then begin
          c.f_kind <- k_stack_overflow;
          st_fault
        end
        else if write_mem c tpp sp v then begin
          tpp.Tpp.sp <- sp + 4;
          st_continue
        end
        else st_fault
      end
  | Instr.Pop dst ->
    let write = compile_write dst in
    fun c tpp meta ->
      let sp = tpp.Tpp.sp - 4 in
      if sp < tpp.Tpp.base then begin
        c.f_kind <- k_stack_underflow;
        st_fault
      end
      else begin
        let v = read_mem c tpp sp in
        if c.f_kind >= 0 then st_fault
        else if write c tpp meta v then begin
          tpp.Tpp.sp <- sp;
          st_continue
        end
        else st_fault
      end
  | Instr.Load (src, dst) | Instr.Store (dst, src) | Instr.Mov (dst, src) -> (
    (* The dominant data-movement shape writes a static packet slot:
       fuse the source read and the destination store into one closure
       (one bounds test, no indirect calls beyond a non-trivial read).
       The interpreter reads the source before touching the
       destination, so fault order is source first. *)
    match static_pkt dst with
    | Some doff -> (
      match src with
      | Instr.Imm v ->
        fun c tpp _ ->
          if doff + 4 > c.mem_len then oob c doff
          else begin
            mset tpp doff v;
            st_continue
          end
      | _ -> (
        match static_pkt src with
        | Some soff ->
          fun c tpp _ ->
            if soff + 4 > c.mem_len then oob c soff
            else if doff + 4 > c.mem_len then oob c doff
            else begin
              mset tpp doff (mget tpp soff);
              st_continue
            end
        | None ->
          let read = compile_read src in
          if read_never_faults src then fun c tpp meta ->
            let v = read c tpp meta in
            if doff + 4 > c.mem_len then oob c doff
            else begin
              mset tpp doff v;
              st_continue
            end
          else fun c tpp meta ->
            let v = read c tpp meta in
            if c.f_kind >= 0 then st_fault
            else if doff + 4 > c.mem_len then oob c doff
            else begin
              mset tpp doff v;
              st_continue
            end))
    | None ->
      let read = compile_read src in
      let write = compile_write dst in
      if read_never_faults src then fun c tpp meta ->
        if write c tpp meta (read c tpp meta) then st_continue else st_fault
      else fun c tpp meta ->
        let v = read c tpp meta in
        if c.f_kind >= 0 then st_fault
        else if write c tpp meta v then st_continue
        else st_fault)
  | Instr.Binop (op, dst, src) -> (
    let apply =
      match op with
      | Instr.Add -> fun a b -> (a + b) land 0xFFFF_FFFF
      | Instr.Sub -> fun a b -> (a - b) land 0xFFFF_FFFF
      | Instr.And -> ( land )
      | Instr.Or -> ( lor )
      | Instr.Min -> Int.min
      | Instr.Max -> Int.max
    in
    (* A static packet destination needs a single bounds test covering
       both its read and its write (same word), and the read-modify-
       write inlines completely for immediate / static-packet sources.
       The interpreter's order is dst read, src read, dst write. *)
    match static_pkt dst with
    | Some doff -> (
      match src with
      | Instr.Imm b ->
        fun c tpp _ ->
          if doff + 4 > c.mem_len then oob c doff
          else begin
            mset tpp doff (apply (mget tpp doff) b);
            st_continue
          end
      | _ -> (
        match static_pkt src with
        | Some soff ->
          fun c tpp _ ->
            if doff + 4 > c.mem_len then oob c doff
            else if soff + 4 > c.mem_len then oob c soff
            else begin
              mset tpp doff (apply (mget tpp doff) (mget tpp soff));
              st_continue
            end
        | None ->
          let read_b = compile_read src in
          if read_never_faults src then fun c tpp meta ->
            if doff + 4 > c.mem_len then oob c doff
            else begin
              let a = mget tpp doff in
              mset tpp doff (apply a (read_b c tpp meta));
              st_continue
            end
          else fun c tpp meta ->
            if doff + 4 > c.mem_len then oob c doff
            else begin
              let a = mget tpp doff in
              let b = read_b c tpp meta in
              if c.f_kind >= 0 then st_fault
              else begin
                mset tpp doff (apply a b);
                st_continue
              end
            end))
    | None ->
      let read_a = compile_read dst in
      let read_b = compile_read src in
      let write = compile_write dst in
      fun c tpp meta ->
        let a = read_a c tpp meta in
        if c.f_kind >= 0 then st_fault
        else begin
          let b = read_b c tpp meta in
          if c.f_kind >= 0 then st_fault
          else if write c tpp meta (apply a b) then st_continue
          else st_fault
        end)
  | Instr.Cstore (dst, pool) -> (
    match compile_pool_offset pool with
    | None -> bad_pool
    | Some pool_off ->
      let read_dst = compile_read dst in
      let write_dst = compile_write dst in
      fun c tpp meta ->
        let p = pool_off c in
        let cond = read_mem c tpp p in
        if c.f_kind >= 0 then st_fault
        else begin
          let replacement = read_mem c tpp (p + 4) in
          if c.f_kind >= 0 then st_fault
          else begin
            let old = read_dst c tpp meta in
            if c.f_kind >= 0 then st_fault
            else if old = cond && not (write_dst c tpp meta replacement) then st_fault
            else begin
              (* [p] was validated by the [cond] read, so the pool
                 write-back cannot fault. *)
              mset tpp p old;
              st_continue
            end
          end
        end)
  | Instr.Cexec (reg, pool) -> (
    match compile_pool_offset pool with
    | None -> bad_pool
    | Some pool_off -> (
      let read_reg = compile_read reg in
      match pool with
      | Instr.Pkt p when p >= 0 && p land 3 = 0 && read_never_faults reg ->
        (* The assembler's sugar always produces this shape: a static
           aligned pool and a register guard. Both pool words check with
           two compares (alignment of [p + 4] follows from [p]'s). *)
        fun c tpp meta ->
          if p + 4 > c.mem_len then oob c p
          else if p + 8 > c.mem_len then oob c (p + 4)
          else begin
            let mask = mget tpp p in
            let expected = mget tpp (p + 4) in
            if read_reg c tpp meta land mask = expected then st_continue else st_cexec
          end
      | _ ->
        fun c tpp meta ->
          let p = pool_off c in
          let mask = read_mem c tpp p in
          if c.f_kind >= 0 then st_fault
          else begin
            let expected = read_mem c tpp (p + 4) in
            if c.f_kind >= 0 then st_fault
            else begin
              let v = read_reg c tpp meta in
              if c.f_kind >= 0 then st_fault
              else if v land mask = expected then st_continue
              else st_cexec
            end
          end))

let compile (program : Instr.t array) : t =
  { uops = Array.map compile_instr program }

(* The placeholder a fresh context points at until its first [run]; no
   micro-op ever runs against it, so domains may share it. *)
let idle_state = State.create ~switch_id:0 ~num_ports:1 ()

let context () =
  {
    state = idle_state;
    now = 0;
    mem_len = 0;
    hop_base = 0;
    f_kind = -1;
    f_detail = 0;
    stop = st_continue;
  }

(* Top level, not a closure inside [run]: the loop is one of the
   per-hop costs that must not allocate. *)
let rec exec_from uops len c tpp meta i =
  if i >= len then begin
    c.stop <- st_continue;
    i
  end
  else begin
    let st = (Array.unsafe_get uops i) c tpp meta in
    if st = st_continue then exec_from uops len c tpp meta (i + 1)
    else begin
      c.stop <- st;
      i + 1
    end
  end

let run t c state ~now ~(tpp : Tpp.t) ~(meta : Meta.t) =
  if c.state != state then c.state <- state;
  (* Micro-ops store into the TPP's buffer directly, past
     [Tpp.mem_set]'s copy on write, so a copy still sharing its
     template's memory takes its private copy first. *)
  Tpp.unshare tpp;
  c.now <- now;
  c.mem_len <- tpp.Tpp.mem_len;
  c.hop_base <- tpp.Tpp.base + (tpp.Tpp.hop * tpp.Tpp.perhop_len);
  c.f_kind <- -1;
  c.f_detail <- 0;
  exec_from t.uops (Array.length t.uops) c tpp meta 0

let faulted c = c.stop = st_fault
let stopped_by_cexec c = c.stop = st_cexec
let fault c = if c.stop = st_fault then Some (decode_fault c) else None

(* ---- Process-wide program cache ---------------------------------- *)

type Tpp.compiled += Compiled of t

module Smap = Map.Make (String)

(* Lock-free: the map is immutable, the [Atomic.t] holds the current
   version, inserts CAS-loop. Two domains racing to compile the same
   program both succeed; the loser adopts the winner's entry, so a key
   maps to exactly one compiled program for the life of the process. *)
let cache : t Smap.t Atomic.t = Atomic.make Smap.empty
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0

type cache_stats = { programs : int; hits : int; misses : int }

let cache_stats () =
  {
    programs = Smap.cardinal (Atomic.get cache);
    hits = Atomic.get cache_hits;
    misses = Atomic.get cache_misses;
  }

let clear_cache () =
  Atomic.set cache Smap.empty;
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0

let lookup (tpp : Tpp.t) : t =
  let key = Tpp.program_key tpp in
  match Smap.find_opt key (Atomic.get cache) with
  | Some c ->
    Atomic.incr cache_hits;
    c
  | None ->
    Atomic.incr cache_misses;
    let compiled = compile tpp.Tpp.program in
    let rec insert () =
      let m = Atomic.get cache in
      match Smap.find_opt key m with
      | Some existing -> existing
      | None ->
        if Atomic.compare_and_set cache m (Smap.add key compiled m) then compiled
        else insert ()
    in
    insert ()
