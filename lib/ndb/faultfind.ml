module Net = Tpp_sim.Net
module Engine = Tpp_sim.Engine
module Stack = Tpp_endhost.Stack
module Probe = Tpp_endhost.Probe
module Switch = Tpp_asic.Switch
module Programs = Tpp_isa.Programs

type link = { from_switch : int; egress_port : int }

(* A physical cable, canonically named by its two (node, port) ends. *)
type cable = (int * int) * (int * int)

type circuit = {
  src : Stack.t;
  dst : Net.host;
  block : Probe.Block.t;  (* the monitor's seqs on [src] *)
  forward : link list;
  cables : cable list;  (* forward + echo-return exposure, deduped *)
  mutable last_probe : int;
  mutable last_reply : int;
  (* Circular history of the last [window] probe rounds, so a flapping
     link — which answers often enough to look "alive" to a pure
     last-echo check — still shows up as a lossy circuit. Slot
     [round mod window] holds (round stamp, send time, echoed?). *)
  hist_round : int array;
  hist_sent : int array;
  hist_ok : bool array;
  (* Lifetime totals, folded in as history slots are recycled (a slot
     is [window] periods old by then, past its timeout, so its verdict
     is final). The veto in [circuit_spotless] needs more memory than
     the window: under a probabilistic fault a crossing circuit dodges
     a whole window of probes disturbingly often, but almost never its
     entire lifetime. *)
  mutable total_mature : int;
  mutable total_lost : int;
}

type t = {
  net : Net.t;
  circuits : circuit array;
  period : int;
  timeout : int;
  probe : Tpp_isa.Tpp.t;
  loop : Engine.Loop.t;
  mutable round : int;
}

(* Round r's probe on circuit i carries offset (r mod rounds) * n + i
   of its source's block, with n circuits and [rounds] the number of
   rounds whose offsets fit one block. An echo then names its circuit
   exactly, and its round up to a multiple of [rounds]: it answers the
   latest round sent that matches. *)
let rounds ~circuits = Probe.seq_block / circuits

let probe_offset ~circuits ~round i = ((round mod rounds ~circuits) * circuits) + i

let echo_round ~circuits ~last_round offset =
  let back = (last_round - (offset / circuits)) mod rounds ~circuits in
  (last_round - back, offset mod circuits)

let node_of_switch_id net swid =
  match List.find_opt (fun (_, sw) -> Switch.id sw = swid) (Net.switches net) with
  | Some (node, _) -> Some node
  | None -> None

let cable_of net { from_switch; egress_port } =
  match node_of_switch_id net from_switch with
  | None -> None
  | Some node ->
    List.find_map
      (fun (port, peer, peer_port) ->
        if port = egress_port then
          Some (min (node, port) (peer, peer_port), max (node, port) (peer, peer_port))
        else None)
      (Net.neighbors net node)

let route_links net ~src ~dst ~src_port ~dst_port =
  Verify.control_route ~src_port ~dst_port net ~src ~dst
  |> List.map (fun (from_switch, egress_port) -> { from_switch; egress_port })

(* Each circuit keeps its last [window] probe rounds; losing
   [loss_threshold] of the matured ones degrades it. *)
let window = 8
let loss_threshold = 0.25

let create ~circuits ~period ~timeout () =
  if circuits = [] then invalid_arg "Faultfind.create: no circuits";
  if period <= 0 || timeout <= period then
    invalid_arg "Faultfind.create: need timeout > period > 0";
  let probe =
    match Programs.build ~max_hops:10 Programs.record_route with
    | Ok tpp -> tpp
    | Error e -> invalid_arg ("Faultfind.create: " ^ e)
  in
  let net = Stack.net (fst (List.hd circuits)) in
  (* Replies come back to each circuit's source stack, so each distinct
     source gives the monitor a block of its own seq space. *)
  if List.length circuits > Probe.seq_block then
    invalid_arg "Faultfind.create: more circuits than probe seqs per block";
  let blocks =
    List.fold_left
      (fun acc (src, _) ->
        if List.mem_assq src acc then acc
        else (src, Probe.Block.take src) :: acc)
      [] circuits
  in
  let circuit_of (src, dst) =
    let forward =
      route_links net ~src:(Stack.host src) ~dst ~src_port:Probe.request_port
        ~dst_port:Probe.request_port
    in
    (* The echo returns dst -> src with ports (request_port, reply_port). *)
    let return_path =
      route_links net ~src:dst ~dst:(Stack.host src) ~src_port:Probe.request_port
        ~dst_port:Probe.reply_port
    in
    let cables =
      List.filter_map (cable_of net) (forward @ return_path)
      |> List.sort_uniq compare
    in
    {
      src;
      dst;
      block = List.assq src blocks;
      forward;
      cables;
      last_probe = min_int;
      last_reply = min_int;
      hist_round = Array.make window (-1);
      hist_sent = Array.make window 0;
      hist_ok = Array.make window false;
      total_mature = 0;
      total_lost = 0;
    }
  in
  let circuits = Array.of_list (List.map circuit_of circuits) in
  let t =
    {
      net;
      circuits;
      period;
      timeout;
      probe;
      loop = Engine.Loop.create (Net.engine net);
      round = 0;
    }
  in
  (* Replies are matched to circuits by sequence number. *)
  let n = Array.length circuits in
  List.iter
    (fun (stack, block) ->
      Probe.Block.on_echo block (fun ~now ~seq _tpp ->
          (* The sequence number encodes which round this echo answers;
             credit that round's history slot if it has not been
             recycled. *)
          let round, i =
            echo_round ~circuits:n ~last_round:(t.round - 1)
              (Probe.Block.offset block seq)
          in
          let c = t.circuits.(i) in
          if c.src == stack then begin
            c.last_reply <- now;
            let slot = round mod window in
            if c.hist_round.(slot) = round then c.hist_ok.(slot) <- true
          end))
    blocks;
  t

let engine t = Net.engine (Stack.net t.circuits.(0).src)

let tick t () =
  let now = Engine.now (engine t) in
  Array.iteri
    (fun i c ->
      c.last_probe <- now;
      let slot = t.round mod window in
      if c.hist_round.(slot) >= 0 && c.hist_sent.(slot) + t.timeout <= now
      then begin
        c.total_mature <- c.total_mature + 1;
        if not c.hist_ok.(slot) then c.total_lost <- c.total_lost + 1
      end;
      c.hist_round.(slot) <- t.round;
      c.hist_sent.(slot) <- now;
      c.hist_ok.(slot) <- false;
      Probe.send c.src ~dst:c.dst ~tpp:t.probe
        ~seq:
          (Probe.Block.seq c.block
             (probe_offset ~circuits:(Array.length t.circuits) ~round:t.round i)))
    t.circuits;
  t.round <- t.round + 1;
  t.period

let start t ?at () =
  if not (Engine.Loop.running t.loop) then begin
    let now = Engine.now (engine t) in
    let begin_at = match at with Some time -> max time now | None -> now in
    (* Grant every circuit a grace reply at start so nothing counts as
       failing before it had a chance to answer. *)
    Array.iter (fun c -> c.last_reply <- max c.last_reply begin_at) t.circuits;
    Engine.Loop.start t.loop ~at:begin_at (tick t)
  end

let stop t = Engine.Loop.stop t.loop

let circuit_healthy t ~now c =
  (* Healthy unless probing started and no echo arrived within the
     timeout (the start itself counts as a grace reply). *)
  c.last_probe = min_int || now - c.last_reply < t.timeout

let healthy t ~now =
  Array.to_list (Array.map (circuit_healthy t ~now) t.circuits)

(* Echo loss over the mature slice of the round window: a round counts
   only once its timeout has expired, so in-flight probes are not
   misread as losses. Only the oldest [window - timeout/period] slots
   can ever be mature — newer rounds are still awaiting their echo. *)
let window_counts t ~now c =
  let mature = ref 0 and lost = ref 0 in
  for slot = 0 to window - 1 do
    if c.hist_round.(slot) >= 0 && c.hist_sent.(slot) + t.timeout <= now then begin
      incr mature;
      if not c.hist_ok.(slot) then incr lost
    end
  done;
  (!mature, !lost)

let circuit_degraded t ~now c =
  (not (circuit_healthy t ~now c))
  ||
  (* Demand a few timed-out rounds of evidence before declaring a lossy
     circuit, so one unlucky round at startup does not trip the
     detector. Capped at the window size, and deliberately well below
     it: with timeout ~ several periods, most slots in the window are
     still in flight and can never mature. *)
  let mature, lost = window_counts t ~now c in
  mature >= min 3 window
  && float_of_int lost /. float_of_int mature >= loss_threshold

(* A circuit vouches for its cables only when it has real evidence and
   has never lost a probe: under a probabilistic fault a circuit
   crossing the bad cable dodges a whole window of probes surprisingly
   often (0.6^4 ~ 13% at 40% loss), and one momentarily clean window
   must not veto the true suspect — hence the lifetime totals, not just
   the recent window. *)
let circuit_spotless t ~now c =
  circuit_healthy t ~now c
  &&
  let mature, lost = window_counts t ~now c in
  mature + c.total_mature > 0 && lost = 0 && c.total_lost = 0

let degraded t ~now =
  Array.to_list (Array.map (circuit_degraded t ~now) t.circuits)

(* Renders a cable back as a link endpoint, preferring a switch side. *)
let link_of_cable t ((node_a, port_a), (node_b, port_b)) =
  let switch_id node =
    List.find_map
      (fun (n, sw) -> if n = node then Some (Switch.id sw) else None)
      (Net.switches t.net)
  in
  match (switch_id node_a, switch_id node_b) with
  | Some swid, _ -> Some { from_switch = swid; egress_port = port_a }
  | None, Some swid -> Some { from_switch = swid; egress_port = port_b }
  | None, None -> None

(* Localisation as minimal set cover: find the smallest set of cables
   that explains every degraded circuit, never touching a spotless one.
   Greedy, keeping {e every} cable tied at the step's best coverage —
   probes cannot tell cables that hurt the same circuits apart, so all
   of them are suspects. With a single hard failure this reduces
   exactly to the old rule (cables on every failing circuit and no
   healthy one); with two simultaneous failures no cable covers all
   failing circuits and plain intersection collapses to the empty set,
   while the cover peels them off one failure per step. *)
let suspects t ~now =
  let affected =
    Array.to_list t.circuits |> List.filter (circuit_degraded t ~now)
  in
  match affected with
  | [] -> []
  | _ ->
    let spotless =
      Array.to_list t.circuits |> List.filter (circuit_spotless t ~now)
    in
    let mem cable c = List.mem cable c.cables in
    let candidates =
      List.concat_map (fun c -> c.cables) affected
      |> List.sort_uniq compare
      |> List.filter (fun cable -> not (List.exists (mem cable) spotless))
    in
    let rec cover uncovered chosen =
      if uncovered = [] then chosen
      else begin
        let coverage cable = List.length (List.filter (mem cable) uncovered) in
        let best =
          List.fold_left (fun acc cable -> max acc (coverage cable)) 0 candidates
        in
        if best = 0 then chosen (* inexplicable circuits: report what we have *)
        else begin
          let picked =
            List.filter
              (fun cable -> coverage cable = best && not (List.mem cable chosen))
              candidates
          in
          if picked = [] then chosen
          else begin
            let uncovered' =
              List.filter
                (fun c -> not (List.exists (fun cable -> mem cable c) picked))
                uncovered
            in
            cover uncovered' (chosen @ picked)
          end
        end
      end
    in
    cover affected [] |> List.sort_uniq compare |> List.filter_map (link_of_cable t)

let links_of_circuit t i = t.circuits.(i).forward

let same_cable t a b =
  match (cable_of t.net a, cable_of t.net b) with
  | Some ca, Some cb -> ca = cb
  | _ -> false

let pp_link fmt l = Format.fprintf fmt "sw%d.port%d" l.from_switch l.egress_port
