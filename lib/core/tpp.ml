(** Facade: one [open Tpp]-able entry point re-exporting the whole
    public API under short names.

    {v
    Tpp.Asm.to_tpp       assemble a tiny packet program
    Tpp.Switch           the TPP-capable switch ASIC model
    Tpp.Engine / Net     discrete-event network simulation
    Tpp.Rcp_star         end-host RCP via TPPs (paper S2.2)
    Tpp.Rcp              in-network RCP baseline
    Tpp.Trace / Verify   forwarding-plane debugger (paper S2.3)
    v} *)

let version = "1.0.0"

(* Substrate utilities *)
module Time_ns = Tpp_util.Time_ns
module Buf = Tpp_util.Buf
module Rng = Tpp_util.Rng
module Stats = Tpp_util.Stats
module Series = Tpp_util.Series

(* Wire formats *)
module Mac = Tpp_packet.Mac
module Ipv4 = Tpp_packet.Ipv4
module Ethernet = Tpp_packet.Ethernet
module Udp = Tpp_packet.Udp

(* The TPP ISA (the paper's core contribution) *)
module Vaddr = Tpp_isa.Vaddr
module Instr = Tpp_isa.Instr
module Prog = Tpp_isa.Tpp
module Asm = Tpp_isa.Asm
module Programs = Tpp_isa.Programs
module Frame = Tpp_isa.Frame
module Meta = Tpp_isa.Meta

(* Switch ASIC model *)
module Switch = Tpp_asic.Switch
module Switch_state = Tpp_asic.State
module Tcpu = Tpp_asic.Tcpu
module Tcpu_compile = Tpp_asic.Compile
module Mmu = Tpp_asic.Mmu
module Tables = Tpp_asic.Tables
module Sram_alloc = Tpp_asic.Alloc

(* Simulation *)
module Engine = Tpp_sim.Engine
module Net = Tpp_sim.Net
module Topology = Tpp_sim.Topology
module Pcap = Tpp_sim.Pcap
module Fault = Tpp_sim.Fault
module Parsim = Tpp_parsim.Parsim

(* End-host tasks *)
module Stack = Tpp_endhost.Stack
module Probe = Tpp_endhost.Probe
module Flow = Tpp_endhost.Flow
module Token_bucket = Tpp_endhost.Token_bucket
module Rcp_star = Tpp_endhost.Rcp_star
module Microburst = Tpp_endhost.Microburst
module Sweep = Tpp_endhost.Sweep

(* Streaming telemetry (binary postcards, sketches, reacting controller) *)
module Telemetry_wire = Tpp_telemetry.Wire
module Telemetry_sink = Tpp_telemetry.Sink
module Sketch = Tpp_telemetry.Sketch
module Collector = Tpp_telemetry.Collector
module React = Tpp_telemetry.React
module Telemetry_emit = Tpp_telemetry.Emit

(* Baselines and debugging *)
module Rcp = Tpp_rcp.Rcp
module Aimd = Tpp_rcp.Aimd
module Dctcp = Tpp_rcp.Dctcp
module Tcp = Tpp_rcp.Tcp
module Ndp = Tpp_rcp.Ndp
module Tpp_lb = Tpp_rcp.Tpp_lb
module Flowlet = Tpp_endhost.Flowlet
module Trace = Tpp_ndb.Trace
module Verify = Tpp_ndb.Verify
module Faultfind = Tpp_ndb.Faultfind

(* Paper experiments (tables and figures) *)
module Fig2 = Tpp_experiments.Fig2
module Burst_exp = Tpp_experiments.Burst_exp
module Ndb_exp = Tpp_experiments.Ndb_exp
module Overheads = Tpp_experiments.Overheads
module Ablation = Tpp_experiments.Ablation
module Fct = Tpp_experiments.Fct
module Fabric = Tpp_experiments.Fabric
module Workload = Tpp_experiments.Workload
module Cc_compare = Tpp_experiments.Cc_compare
module Consistent = Tpp_experiments.Consistent
module Faults = Tpp_experiments.Faults
module Telemetry_exp = Tpp_experiments.Telemetry_exp

(* Control plane *)
module Controller = Tpp_control.Controller
