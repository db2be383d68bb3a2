(* The paper's §2.3 closing remark: "TPPs are not just limited to wired
   networks; they can also be used in wireless networks where access
   points can annotate end-host packets with channel SNR which changes
   very quickly."

   We model an access point as a one-switch network whose control
   firmware tracks per-station SNR in an SRAM word, refreshed every
   millisecond with fast fading. A station's probes read the register
   in-band; a 1-second management poll reads it too. The probe stream
   tracks the fading process; the poll sees a meaningless snapshot. *)

open Tpp

let () =
  let eng = Engine.create () in
  let star =
    Topology.chain eng ~num_switches:1 ~hosts_per_switch:2 ~bps:(54 * 1_000_000)
      ~delay:(Time_ns.us 100) ()
  in
  let net = star.Topology.net in
  let ap = Net.switch net star.Topology.switch_ids.(0) in
  let station = star.Topology.hosts.(0).(0) in
  let peer = star.Topology.hosts.(0).(1) in

  (* The AP firmware allocates an SRAM word for the station's SNR. *)
  let snr_word =
    match Sram_alloc.alloc_words (Switch.alloc ap) ~task:"snr" ~count:1 with
    | Ok w -> w
    | Error e -> failwith e
  in
  let rng = Rng.create ~seed:42 in
  let fading () =
    (* Rayleigh-ish fading around 25 dB, scaled x10 (tenths of dB). *)
    let u = Rng.float rng 1.0 in
    let magnitude = sqrt (-2.0 *. log (Float.max 1e-9 u)) in
    int_of_float (Float.max 10.0 (250.0 *. magnitude /. 1.25))
  in
  Engine.every eng ~period:(Time_ns.ms 1) ~until:(Time_ns.sec 10) (fun () ->
      ignore (Tpp_asic.State.sram_set (Switch.state ap) snr_word (fading ())));

  let st_stack = Stack.create net station in
  let peer_stack = Stack.create net peer in
  Probe.install_echo peer_stack;

  let program = Printf.sprintf "PUSH [Sram:%d]\n" snr_word in
  let tpp =
    match Asm.to_tpp ~mem_len:16 program with Ok t -> t | Error e -> failwith e
  in
  let probe_snr = Stats.create () in
  Probe.install_reply_handler st_stack (fun ~now:_ ~seq:_ tpp ->
      match Prog.stack_values tpp with
      | snr :: _ -> Stats.add probe_snr (float_of_int snr /. 10.0)
      | [] -> ());
  Engine.every eng ~period:(Time_ns.ms 2) ~until:(Time_ns.sec 10) (fun () ->
      Probe.send st_stack ~dst:peer ~tpp ~seq:0);

  let poll_snr = Stats.create () in
  Engine.every eng ~period:(Time_ns.sec 1) ~until:(Time_ns.sec 10) (fun () ->
      match Tpp_asic.State.sram_get (Switch.state ap) snr_word with
      | -1 -> ()
      | v -> Stats.add poll_snr (float_of_int v /. 10.0));

  Engine.run eng ~until:(Time_ns.sec 10);

  let show name stats =
    Printf.printf "  %-18s %5d samples  mean %5.1f dB  p5 %5.1f  p95 %5.1f\n" name
      (Stats.count stats) (Stats.mean stats)
      (Stats.percentile stats 5.0)
      (Stats.percentile stats 95.0)
  in
  print_endline "per-station SNR as seen by:";
  show "TPP probes (2ms)" probe_snr;
  show "1s polling" poll_snr;
  Printf.printf
    "the probe stream resolves the fading distribution; %d poll samples cannot.\n"
    (Stats.count poll_snr)
