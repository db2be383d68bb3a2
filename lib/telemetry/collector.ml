type link_state = {
  mutable l_hops : int;
  mutable l_bytes : int;
  mutable l_faults : int;
  depth_ewma : Sketch.Ewma.t;
  depth_digest : Sketch.Tdigest.t;
  fault_ewma : Sketch.Ewma.t;
}

let mix = Sketch.mix

(* Int-keyed tables for the per-card path: the generic Hashtbl would
   call the polymorphic [caml_hash] and [compare] on every card. The
   key must be mixed, as a link key ([switch * 65536 + port]) keeps the
   port in its low 16 bits and the table indexes by the low bits. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = mix
end)

type switch_state = { mutable s_hops : int }

type t = {
  digest_delta : float;
  depth_alpha : float;
  fault_alpha : float;
  mutable cards : int;
  mutable hops : int;
  mutable probe_retries : int;
  mutable probe_failures : int;
  mutable fault_events : int;
  by_switch : switch_state Tbl.t;
  by_link : link_state Tbl.t;  (* key = switch * 65536 + port *)
  flows : Sketch.Cms.t;
  drain_card : bytes -> off:int -> unit;  (* [absorb_card] of this collector *)
}

let link_key ~switch ~port = (switch * 65536) + port
let key_switch k = k / 65536
let key_port k = k mod 65536

(* Tbl.find + exception rather than find_opt: the option would be a
   fresh allocation per card on the absorb path. *)
let link_state t key =
  match Tbl.find t.by_link key with
  | ls -> ls
  | exception Not_found ->
    let ls =
      {
        l_hops = 0;
        l_bytes = 0;
        l_faults = 0;
        depth_ewma = Sketch.Ewma.create ~alpha:t.depth_alpha ();
        depth_digest = Sketch.Tdigest.create ~delta:t.digest_delta ();
        fault_ewma = Sketch.Ewma.create ~alpha:t.fault_alpha ();
      }
    in
    Tbl.add t.by_link key ls;
    ls

let absorb_card t buf ~off =
  t.cards <- t.cards + 1;
  let kind = Wire.kind buf ~off in
  let node = Wire.node buf ~off in
  if kind = Wire.kind_code Wire.Hop then begin
    t.hops <- t.hops + 1;
    (match Tbl.find t.by_switch node with
    | sw -> sw.s_hops <- sw.s_hops + 1
    | exception Not_found -> Tbl.add t.by_switch node { s_hops = 1 });
    let wire_bytes = Wire.wire_bytes buf ~off in
    Sketch.Cms.add t.flows ~key:(Wire.flow_hash buf ~off) wire_bytes;
    let ls = link_state t (link_key ~switch:node ~port:(Wire.out_port buf ~off)) in
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
    t.fault_events <- t.fault_events + 1;
    let ls = link_state t (link_key ~switch:node ~port:(Wire.out_port buf ~off)) in
    ls.l_faults <- ls.l_faults + 1;
    Sketch.Ewma.observe ls.fault_ewma 1.0
  end

let create ?(cms_width = 2048) ?(cms_depth = 4) ?(digest_delta = 100.0)
    ?(depth_alpha = 0.2) ?(fault_alpha = 0.1) () =
  let rec t =
    {
      digest_delta;
      depth_alpha;
      fault_alpha;
      cards = 0;
      hops = 0;
      probe_retries = 0;
      probe_failures = 0;
      fault_events = 0;
      by_switch = Tbl.create 64;
      by_link = Tbl.create 256;
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
  match Tbl.find_opt t.by_switch switch with
  | Some sw -> sw.s_hops
  | None -> 0

let flow_bytes t ~flow_hash = Sketch.Cms.estimate t.flows ~key:flow_hash
let cms t = t.flows

let links t =
  Tbl.fold (fun k _ acc -> (key_switch k, key_port k) :: acc) t.by_link []
  |> List.sort compare

let with_link t ~switch ~port ~default f =
  match Tbl.find_opt t.by_link (link_key ~switch ~port) with
  | Some ls -> f ls
  | None -> default

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

let hottest_link t ?(exclude = []) () =
  Tbl.fold
    (fun k ls best ->
      let sw = key_switch k and port = key_port k in
      if List.mem (sw, port) exclude then best
      else
        match best with
        | Some (bsw, bport, bbytes)
          when bbytes > ls.l_bytes
               || (bbytes = ls.l_bytes && (bsw, bport) < (sw, port)) ->
          best
        | _ -> Some (sw, port, ls.l_bytes))
    t.by_link None

let merge ~into src =
  into.cards <- into.cards + src.cards;
  into.hops <- into.hops + src.hops;
  into.probe_retries <- into.probe_retries + src.probe_retries;
  into.probe_failures <- into.probe_failures + src.probe_failures;
  into.fault_events <- into.fault_events + src.fault_events;
  Tbl.iter
    (fun id sw ->
      match Tbl.find_opt into.by_switch id with
      | Some dst -> dst.s_hops <- dst.s_hops + sw.s_hops
      | None -> Tbl.add into.by_switch id { s_hops = sw.s_hops })
    src.by_switch;
  Tbl.iter
    (fun k ls ->
      let dst = link_state into k in
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
    src.by_link;
  Sketch.Cms.merge ~into:into.flows src.flows

let fingerprint t =
  (* Order-independent: commutative-sum the per-switch and per-link
     contributions, then mix with scalar counters and the CMS. *)
  let sw = ref 0 in
  Tbl.iter (fun id s -> sw := !sw + mix ((id * 0x1000003) lxor s.s_hops)) t.by_switch;
  let li = ref 0 in
  Tbl.iter
    (fun k ls ->
      li :=
        !li
        + mix (k lxor mix (ls.l_hops lxor mix (ls.l_bytes lxor ls.l_faults))))
    t.by_link;
  let h = mix (t.cards lxor mix (t.hops lxor mix !sw)) in
  let h = mix (h lxor mix !li) in
  let h =
    mix
      (h
      lxor mix
             (t.probe_retries
             lxor mix (t.probe_failures lxor t.fault_events)))
  in
  mix (h lxor Sketch.Cms.fingerprint t.flows)
