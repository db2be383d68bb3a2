module Buf = Tpp_util.Buf

type addr_mode = Stack | Hop_addressed

type compiled = ..
type compiled += Not_compiled

(* What a record may do with its packet memory. [Private]: a standalone
   buffer only this record writes. [Shared]: a standalone buffer that
   copies may also read, so the first store copies it (copy on write).
   [Embedded]: a window of a frame's (or a caller's) buffer, written in
   place. [Retired]: a copy whose pooled frame was recycled; it waits in
   its family's spare stack and every use raises. *)
type state = Private | Shared | Embedded | Retired

(* One cell per program "family": every [copy] shares it, so compiling
   any member (or even just computing the identity key) pays for all of
   them. The handle is atomic because frames — and therefore their TPPs
   — migrate between the domains of a sharded run; a stale read only
   costs a cache lookup, never correctness. The spare stack holds
   retired copies for [copy] to reuse; only the [owner] domain touches
   it, under the same rule as [Frame.Pool]. *)
type exec_cache = {
  mutable key : string option;
  handle : compiled Atomic.t;
  mutable code : bytes option;  (* wire encoding of the program *)
  owner : int;                  (* Domain.id that made the family *)
  mutable spare : t array;      (* retired copies in [0, spare_len) *)
  mutable spare_len : int;
}

(* Packet memory is a window [mem_off, mem_off + mem_len) of [memory]:
   a standalone TPP owns a private buffer at offset 0, while a TPP
   embedded in a flat frame aliases the frame's backing buffer, so a
   TCPU word store patches the wire image in place. [sp], [hop] and
   [faulted] stay authoritative in the record between hops; the frame
   layer flushes them into the serialized section header on export. *)
and t = {
  mutable faulted : bool;
  addr_mode : addr_mode;
  perhop_len : int;
  base : int;
  mutable sp : int;
  mutable hop : int;
  program : Instr.t array;
  mutable memory : bytes;
  mutable mem_off : int;
  mem_len : int;
  mutable inner_ethertype : int;
  cache : exec_cache;
  mutable state : state;
  minted : bool;  (* made by [copy]: recycled with its pooled frame *)
}

let fresh_cache () =
  { key = None; handle = Atomic.make Not_compiled; code = None;
    owner = (Domain.self () :> int); spare = [||]; spare_len = 0 }

let header_size = 16

let mem_len t = t.mem_len

let section_size t = header_size + (Instr.size * Array.length t.program) + t.mem_len

let check_u16 what v =
  if v < 0 || v > 0xFFFF then invalid_arg (Printf.sprintf "Tpp.make: %s exceeds 16 bits" what)

let make ?(addr_mode = Stack) ?(perhop_len = 0) ?(pool = Bytes.empty)
    ?(inner_ethertype = 0) ~program ~mem_len () =
  let base = Bytes.length pool in
  if base mod 4 <> 0 then invalid_arg "Tpp.make: pool must be word aligned";
  if mem_len mod 4 <> 0 then invalid_arg "Tpp.make: mem_len must be word aligned";
  if perhop_len mod 4 <> 0 then invalid_arg "Tpp.make: perhop_len must be word aligned";
  if addr_mode = Hop_addressed && perhop_len = 0 then
    invalid_arg "Tpp.make: hop addressing needs perhop_len > 0";
  let total_mem = base + mem_len in
  check_u16 "memory length" total_mem;
  check_u16 "program length" (Instr.size * List.length program);
  check_u16 "perhop_len" perhop_len;
  let memory = Bytes.make total_mem '\000' in
  Bytes.blit pool 0 memory 0 base;
  {
    faulted = false;
    addr_mode;
    perhop_len;
    base;
    sp = base;
    hop = 0;
    program = Array.of_list program;
    memory;
    mem_off = 0;
    mem_len = total_mem;
    inner_ethertype;
    cache = fresh_cache ();
    state = Private;
    minted = false;
  }

let[@inline never] retired () =
  invalid_arg "Tpp: a copy used after its frame was recycled"

(* A standalone buffer holding the current memory contents. *)
let snapshot t =
  let m = Bytes.create t.mem_len in
  Bytes.blit t.memory t.mem_off m 0 t.mem_len;
  m

let unshare t =
  match t.state with
  | Private | Embedded -> ()
  | Shared ->
    t.memory <- snapshot t;
    t.mem_off <- 0;
    t.state <- Private
  | Retired -> retired ()

(* A copy record over [memory]: a retired one from the family's spare
   stack when this domain owns the family, else a fresh one. Records of
   one family differ only in their mutable fields, so reusing one means
   refilling exactly those. *)
let mint t ~memory ~mem_off ~state =
  let c = t.cache in
  if c.spare_len > 0 && c.owner = (Domain.self () :> int) then begin
    c.spare_len <- c.spare_len - 1;
    let v = c.spare.(c.spare_len) in
    v.faulted <- t.faulted;
    v.sp <- t.sp;
    v.hop <- t.hop;
    v.memory <- memory;
    v.mem_off <- mem_off;
    v.inner_ethertype <- t.inner_ethertype;
    v.state <- state;
    v
  end
  else { t with memory; mem_off; state; minted = true }

(* Programs are immutable after construction, so copies share the
   instruction array and the compiled-code cell. Packet memory is shared
   too while it is standalone: both sides become [Shared] and the first
   store on either side copies it, so a template re-sent unchanged is
   blitted once, by [rebase], straight into the frame. Memory embedded
   in a frame changes under the TCPU without going through [mem_set],
   so a copy of it is a snapshot. *)
let copy t =
  match t.state with
  | Retired -> retired ()
  | Embedded -> mint t ~memory:(snapshot t) ~mem_off:0 ~state:Private
  | Private | Shared ->
    t.state <- Shared;
    mint t ~memory:t.memory ~mem_off:t.mem_off ~state:Shared

(* Fresh view over a different backing buffer whose bytes already hold
   this TPP's memory image at [mem_off] (frame cloning). Shares the
   program and compiled-code cell, snapshots sp/hop/faulted. *)
let reseat t ~memory ~mem_off =
  if t.state = Retired then retired ();
  { t with memory; mem_off; state = Embedded; minted = false }

(* Moves this TPP's packet memory into [memory] at [mem_off], carrying
   the current contents along (frame embedding: subsequent mem stores
   land in the frame's backing buffer). A shared buffer is only read,
   so this is the one blit a copy of a template costs. *)
let rebase t ~memory ~mem_off =
  if t.state = Retired then retired ();
  if mem_off < 0 || mem_off + t.mem_len > Bytes.length memory then
    invalid_arg "Tpp.rebase: window out of range";
  Bytes.blit t.memory t.mem_off memory mem_off t.mem_len;
  t.memory <- memory;
  t.mem_off <- mem_off;
  t.state <- Embedded

(* A copy embedded in [memory] — the buffer of a pooled frame being
   recycled — ends its life there: it is retired onto its family's
   spare stack for the next [copy]. Anything else keeps its lifetime:
   records the caller made or passed in directly, a copy since moved to
   another buffer, and families another domain owns. *)
let release t ~memory =
  let c = t.cache in
  if
    t.minted && t.state = Embedded && t.memory == memory
    && c.owner = (Domain.self () :> int)
  then begin
    t.state <- Retired;
    t.memory <- Bytes.empty;
    t.mem_off <- 0;
    if c.spare_len = Array.length c.spare then begin
      let grown = Array.make (max 16 (2 * c.spare_len)) t in
      Array.blit c.spare 0 grown 0 c.spare_len;
      c.spare <- grown
    end;
    c.spare.(c.spare_len) <- t;
    c.spare_len <- c.spare_len + 1
  end

let program_key t =
  match t.cache.key with
  | Some k -> k
  | None ->
    let k =
      (* The canonical identity is the wire encoding of the program.
         Hand-built programs whose operands exceed the encodable 12-bit
         range cannot be encoded; fall back to a structural key. The
         leading tag keeps the two namespaces disjoint. *)
      try
        let w = Buf.Writer.create ~capacity:(4 + (Instr.size * Array.length t.program)) () in
        Array.iter (Instr.write w) t.program;
        "E" ^ Bytes.to_string (Buf.Writer.contents w)
      with Invalid_argument _ -> "M" ^ Marshal.to_string t.program []
    in
    t.cache.key <- Some k;
    k

(* Wire encoding of the instruction array, shared across the family.
   Raises [Invalid_argument] for unencodable hand-built programs, like
   {!write} always has. *)
let program_bytes t =
  match t.cache.code with
  | Some b -> b
  | None ->
    let w = Buf.Writer.create ~capacity:(max 8 (Instr.size * Array.length t.program)) () in
    Array.iter (Instr.write w) t.program;
    let b = Buf.Writer.contents w in
    t.cache.code <- Some b;
    b

let compiled_handle t = Atomic.get t.cache.handle
let set_compiled_handle t c = Atomic.set t.cache.handle c

let oob what = raise (Buf.Out_of_bounds what)

let mem_get t off =
  if t.state = Retired then retired ();
  if off < 0 || off + 4 > t.mem_len then oob "Tpp.mem_get";
  Int32.to_int (Bytes.get_int32_be t.memory (t.mem_off + off)) land 0xFFFF_FFFF

let mem_set t off v =
  if off < 0 || off + 4 > t.mem_len then oob "Tpp.mem_set";
  unshare t;
  Bytes.set_int32_be t.memory (t.mem_off + off) (Int32.of_int (v land 0xFFFF_FFFF))

let words t =
  let n = t.mem_len / 4 in
  List.init n (fun i -> mem_get t (4 * i))

let stack_values t =
  let n = (t.sp - t.base) / 4 in
  List.init (max 0 n) (fun i -> mem_get t (t.base + (4 * i)))

let hop_block t ~hop =
  let start = t.base + (hop * t.perhop_len) in
  let n = t.perhop_len / 4 in
  List.init n (fun i -> mem_get t (start + (4 * i)))

let flags_of t =
  (match t.addr_mode with Stack -> 0 | Hop_addressed -> 1)
  lor (if t.faulted then 2 else 0)

(* The 16-byte section header, written straight into a buffer. The
   frame layer uses this both to build sections and to flush the
   mutable header state (flags/sp/hop) before exporting wire bytes. *)
let write_header_into b ~off t =
  Bytes.set_uint8 b off 1;
  Bytes.set_uint8 b (off + 1) (flags_of t);
  Bytes.set_uint16_be b (off + 2) (Instr.size * Array.length t.program);
  Bytes.set_uint16_be b (off + 4) t.mem_len;
  Bytes.set_uint16_be b (off + 6) t.sp;
  Bytes.set_uint16_be b (off + 8) t.hop;
  Bytes.set_uint16_be b (off + 10) t.perhop_len;
  Bytes.set_uint16_be b (off + 12) t.inner_ethertype;
  Bytes.set_uint16_be b (off + 14) t.base

let write w t =
  if t.state = Retired then retired ();
  Buf.Writer.u8 w 1;
  Buf.Writer.u8 w (flags_of t);
  Buf.Writer.u16 w (Instr.size * Array.length t.program);
  Buf.Writer.u16 w t.mem_len;
  Buf.Writer.u16 w t.sp;
  Buf.Writer.u16 w t.hop;
  Buf.Writer.u16 w t.perhop_len;
  Buf.Writer.u16 w t.inner_ethertype;
  Buf.Writer.u16 w t.base;
  Array.iter (Instr.write w) t.program;
  Buf.Writer.bytes_sub w t.memory ~pos:t.mem_off ~len:t.mem_len

let read r =
  try
    let version = Buf.Reader.u8 r in
    if version <> 1 then Error (Printf.sprintf "unsupported TPP version %d" version)
    else begin
      let flags = Buf.Reader.u8 r in
      let tpp_len = Buf.Reader.u16 r in
      let mem_len = Buf.Reader.u16 r in
      let sp = Buf.Reader.u16 r in
      let hop = Buf.Reader.u16 r in
      let perhop_len = Buf.Reader.u16 r in
      let inner_ethertype = Buf.Reader.u16 r in
      let base = Buf.Reader.u16 r in
      if tpp_len mod Instr.size <> 0 then Error "instruction bytes not word aligned"
      else if mem_len mod 4 <> 0 then Error "memory length not word aligned"
      else if base > mem_len then Error "pool base beyond memory"
      else if sp > mem_len then Error "stack pointer beyond memory"
      else begin
        let n = tpp_len / Instr.size in
        let rec read_program i acc =
          if i = n then Ok (List.rev acc)
          else
            match Instr.read r with
            | Ok instr -> read_program (i + 1) (instr :: acc)
            | Error e -> Error e
        in
        match read_program 0 [] with
        | Error e -> Error e
        | Ok program ->
          let memory = Buf.Reader.bytes r mem_len in
          let addr_mode = if flags land 1 = 1 then Hop_addressed else Stack in
          if addr_mode = Hop_addressed && perhop_len = 0 then
            Error "hop addressing with zero per-hop length"
          else
            Ok
              {
                faulted = flags land 2 <> 0;
                addr_mode;
                perhop_len;
                base;
                sp;
                hop;
                program = Array.of_list program;
                memory;
                mem_off = 0;
                mem_len;
                inner_ethertype;
                cache = fresh_cache ();
                state = Private;
                minted = false;
              }
      end
    end
  with Buf.Out_of_bounds _ -> Error "truncated TPP section"

let pp fmt t =
  let mode = match t.addr_mode with Stack -> "stack" | Hop_addressed -> "hop" in
  Format.fprintf fmt "@[<v>TPP %s sp=%d hop=%d mem=%dB%s@,%a@]" mode t.sp t.hop
    t.mem_len
    (if t.faulted then " FAULTED" else "")
    (Format.pp_print_list Instr.pp)
    (Array.to_list t.program)
