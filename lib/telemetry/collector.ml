type link_state = {
  mutable l_hops : int;
  mutable l_bytes : int;
  mutable l_faults : int;
  depth_ewma : Sketch.Ewma.t;
  depth_digest : Sketch.Tdigest.t;
  fault_ewma : Sketch.Ewma.t;
}

let mix = Sketch.mix

(* Hop and fault cards name Net node ids, which the engine keeps below
   2^20, and 16-bit out ports, so both tables are dense arrays indexed by
   node id, grown on demand: a hop card costs two array loads and no
   hashing. [absent] fills every unseen slot of a port row; it is never
   written, and is told apart by physical compare. *)
let node_bound = 1 lsl Tpp_sim.Engine.max_id_bits
let port_bound = 65536

(* The flow CMS's shape and the per-link EWMAs' smoothing. *)
let cms_width = 2048
let cms_depth = 4
let depth_alpha = 0.2
let fault_alpha = 0.1

let absent =
  {
    l_hops = 0;
    l_bytes = 0;
    l_faults = 0;
    depth_ewma = Sketch.Ewma.create ();
    depth_digest = Sketch.Tdigest.create ();
    fault_ewma = Sketch.Ewma.create ();
  }

type t = {
  digest_delta : float;
  mutable cards : int;
  mutable hops : int;
  mutable probe_retries : int;
  mutable probe_failures : int;
  mutable fault_events : int;
  mutable s_hops : int array;  (* per node id; 0 = no hop card yet *)
  mutable rows : link_state array array;  (* per node id, per out port *)
  flows : Sketch.Cms.t;
  drain_card : bytes -> off:int -> unit;  (* [absorb_card] of this collector *)
}

(* Doubling keeps growth amortised O(1) per id; the bound caps it. *)
let grown a ~need ~bound ~fill =
  let b = Array.make (Int.min bound (Int.max need (2 * Array.length a))) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_nodes t node =
  if node >= node_bound then
    invalid_arg
      (Printf.sprintf "Collector: node id %d is not below 2^%d" node
         Tpp_sim.Engine.max_id_bits);
  t.s_hops <- grown t.s_hops ~need:(node + 1) ~bound:node_bound ~fill:0;
  t.rows <- grown t.rows ~need:(node + 1) ~bound:node_bound ~fill:[||]

let add_link t ~node ~port =
  let row = t.rows.(node) in
  let row =
    if port < Array.length row then row
    else begin
      let r = grown row ~need:(port + 1) ~bound:port_bound ~fill:absent in
      t.rows.(node) <- r;
      r
    end
  in
  let ls =
    {
      l_hops = 0;
      l_bytes = 0;
      l_faults = 0;
      depth_ewma = Sketch.Ewma.create ~alpha:depth_alpha ();
      depth_digest = Sketch.Tdigest.create ~delta:t.digest_delta ();
      fault_ewma = Sketch.Ewma.create ~alpha:fault_alpha ();
    }
  in
  row.(port) <- ls;
  ls

(* Grows both tables to cover [node] ([s_hops] and [rows] always have
   the same length), raising on an out-of-range id before the caller
   has counted anything. *)
let link_state t ~node ~port =
  if node >= Array.length t.rows then grow_nodes t node;
  let row = t.rows.(node) in
  let ls = if port < Array.length row then row.(port) else absent in
  if ls != absent then ls else add_link t ~node ~port

let absorb_card t buf ~off =
  let kind = Wire.kind buf ~off in
  if kind = Wire.kind_code Wire.Hop then begin
    let node = Wire.node buf ~off in
    let ls = link_state t ~node ~port:(Wire.out_port buf ~off) in
    t.hops <- t.hops + 1;
    t.s_hops.(node) <- t.s_hops.(node) + 1;
    let wire_bytes = Wire.wire_bytes buf ~off in
    Sketch.Cms.add t.flows ~key:(Wire.flow_hash buf ~off) wire_bytes;
    ls.l_hops <- ls.l_hops + 1;
    ls.l_bytes <- ls.l_bytes + wire_bytes;
    (* int entry points: a float converted here would be boxed to
       cross into Sketch *)
    let depth = Wire.value buf ~off in
    Sketch.Ewma.observe_int ls.depth_ewma depth;
    Sketch.Tdigest.add_int ls.depth_digest depth;
    Sketch.Ewma.observe ls.fault_ewma 0.0
  end
  else if kind = Wire.kind_code Wire.Probe_retry then
    t.probe_retries <- t.probe_retries + 1
  else if kind = Wire.kind_code Wire.Probe_failure then
    t.probe_failures <- t.probe_failures + 1
  else if kind = Wire.kind_code Wire.Fault_event then begin
    let ls = link_state t ~node:(Wire.node buf ~off) ~port:(Wire.out_port buf ~off) in
    t.fault_events <- t.fault_events + 1;
    ls.l_faults <- ls.l_faults + 1;
    Sketch.Ewma.observe ls.fault_ewma 1.0
  end;
  t.cards <- t.cards + 1

let create ?(digest_delta = 100.0) () =
  let rec t =
    {
      digest_delta;
      cards = 0;
      hops = 0;
      probe_retries = 0;
      probe_failures = 0;
      fault_events = 0;
      s_hops = [||];
      rows = [||];
      flows = Sketch.Cms.create ~width:cms_width ~depth:cms_depth ();
      drain_card = (fun buf ~off -> absorb_card t buf ~off);
    }
  in
  t

(* [drain_card] is [absorb_card t], built once: a partial application
   here would allocate a closure per window. *)
let absorb t sink = Sink.drain sink t.drain_card

let cards t = t.cards
let hops t = t.hops
let probe_retries t = t.probe_retries
let probe_failures t = t.probe_failures
let fault_events t = t.fault_events

let switch_hops t ~switch =
  if switch >= 0 && switch < Array.length t.s_hops then t.s_hops.(switch) else 0

let cms t = t.flows

(* Every seen link in ascending (node, port) order. *)
let fold_links t f acc =
  let acc = ref acc in
  for node = 0 to Array.length t.rows - 1 do
    let row = t.rows.(node) in
    for port = 0 to Array.length row - 1 do
      let ls = row.(port) in
      if ls != absent then acc := f node port ls !acc
    done
  done;
  !acc

let links t = List.rev (fold_links t (fun node port _ acc -> (node, port) :: acc) [])

let with_link t ~switch ~port ~default f =
  let ls =
    if switch < 0 || switch >= Array.length t.rows then absent
    else
      let row = t.rows.(switch) in
      if port < 0 || port >= Array.length row then absent else row.(port)
  in
  if ls == absent then default else f ls

let link_hops t ~switch ~port =
  with_link t ~switch ~port ~default:0 (fun ls -> ls.l_hops)

let link_bytes t ~switch ~port =
  with_link t ~switch ~port ~default:0 (fun ls -> ls.l_bytes)

let link_faults t ~switch ~port =
  with_link t ~switch ~port ~default:0 (fun ls -> ls.l_faults)

let link_depth_ewma t ~switch ~port =
  with_link t ~switch ~port ~default:0.0 (fun ls ->
      Sketch.Ewma.value ls.depth_ewma)

let link_depth_quantile t ~switch ~port ~q =
  with_link t ~switch ~port ~default:Float.nan (fun ls ->
      Sketch.Tdigest.quantile ls.depth_digest q)

let link_fault_ewma t ~switch ~port =
  with_link t ~switch ~port ~default:0.0 (fun ls ->
      Sketch.Ewma.value ls.fault_ewma)

(* The walk is ascending, so keeping the first of equal byte counts
   breaks ties toward the smaller id pair. *)
let hottest_link t ?(exclude = []) () =
  fold_links t
    (fun sw port ls best ->
      if List.mem (sw, port) exclude then best
      else
        match best with
        | Some (_, _, bbytes) when bbytes >= ls.l_bytes -> best
        | _ -> Some (sw, port, ls.l_bytes))
    None

let merge ~into src =
  into.cards <- into.cards + src.cards;
  into.hops <- into.hops + src.hops;
  into.probe_retries <- into.probe_retries + src.probe_retries;
  into.probe_failures <- into.probe_failures + src.probe_failures;
  into.fault_events <- into.fault_events + src.fault_events;
  let nodes = Array.length src.s_hops in
  if nodes > Array.length into.s_hops then grow_nodes into (nodes - 1);
  Array.iteri (fun id n -> into.s_hops.(id) <- into.s_hops.(id) + n) src.s_hops;
  fold_links src
    (fun node port ls () ->
      let dst = link_state into ~node ~port in
      dst.l_hops <- dst.l_hops + ls.l_hops;
      dst.l_bytes <- dst.l_bytes + ls.l_bytes;
      dst.l_faults <- dst.l_faults + ls.l_faults;
      (* EWMAs cannot be merged exactly; carry the heavier side's view
         weighted by observation count so trends survive a merge. *)
      let carry dst_e src_e =
        let n = Sketch.Ewma.count src_e in
        if n > 0 && n >= Sketch.Ewma.count dst_e then
          Sketch.Ewma.observe dst_e (Sketch.Ewma.value src_e)
      in
      carry dst.depth_ewma ls.depth_ewma;
      carry dst.fault_ewma ls.fault_ewma;
      Sketch.Tdigest.merge ~into:dst.depth_digest ls.depth_digest)
    ();
  Sketch.Cms.merge ~into:into.flows src.flows

let fingerprint t =
  (* Order-independent: commutative-sum the per-switch and per-link
     contributions, then mix with scalar counters and the CMS. A link
     enters as its key [switch * 65536 + port]. *)
  let sw = ref 0 in
  Array.iteri
    (fun id n -> if n > 0 then sw := !sw + mix ((id * 0x1000003) lxor n))
    t.s_hops;
  let li =
    fold_links t
      (fun node port ls li ->
        li
        + mix
            (((node * port_bound) + port)
            lxor mix (ls.l_hops lxor mix (ls.l_bytes lxor ls.l_faults))))
      0
  in
  let h = mix (t.cards lxor mix (t.hops lxor mix !sw)) in
  let h = mix (h lxor mix li) in
  let h =
    mix
      (h
      lxor mix
             (t.probe_retries
             lxor mix (t.probe_failures lxor t.fault_events)))
  in
  mix (h lxor Sketch.Cms.fingerprint t.flows)
