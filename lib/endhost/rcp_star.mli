(** RCP*: the paper's end-host implementation of the Rate Control
    Protocol (§2.2), refactored onto read/write TPPs.

    Per flow, every period T the controller runs three phases:

    - {b Collect}: a probe TPP pushes, per hop, the switch id, queue
      size, link utilisation, link capacity and the link's shared
      fair-rate register (SRAM allocated by the control plane). The
      receiver echoes the executed TPP.
    - {b Compute}: the sender evaluates the RCP control law per link:
      R <- R (1 - (T/d) (a (y - C) + b q/d) / C)
    - {b Update}: a second TPP executes only on the bottleneck switch
      (CEXEC on the switch id) and conditionally stores the new rate
      into that link's register (CSTORE, so a concurrent writer's
      update is not clobbered). The flow's token-bucket rate becomes
      the minimum fair rate across its path.

    The fair-rate registers hold {b kbps} so 32-bit words cover links
    past 4 Gb/s. *)

module Net = Tpp_sim.Net
module Switch = Tpp_asic.Switch

type config = {
  period_ns : int;      (** T: control interval *)
  rtt_ns : int;         (** d: RTT estimate used in the control law *)
  alpha : float;
  beta : float;
  slot : int;           (** LinkSram slot of the fair-rate register *)
  min_rate_bps : int;
  max_hops : int;       (** packet memory sized for this many hops *)
  use_cstore : bool;    (** [false] = plain STORE (ablation E8) *)
  piggyback_every : int option;
      (** [Some n]: phase 1 rides every n-th {e data} packet instead of
          separate probes (paper: "using the flow's packets"). The
          receiver needs {!Probe.install_echo_on_port} on the flow's
          port; collect processing is throttled to one per period. *)
}

val default_config : slot:int -> config
(** T = 10 ms, d = 50 ms, alpha = 0.5, beta = 1.0 (paper Figure 2),
    min rate 50 kb/s, 8 hops, CSTORE on. *)

val setup_network : Net.t -> (int, string) result
(** Control-plane side: allocates the same LinkSram slot on every
    switch and initialises each link's register to its capacity (paper
    footnote 3). Returns the slot. *)

val collect_source : slot:int -> string * (string * int) list
(** The phase-1 assembly and its defines, for display and tests. *)

(** One hop's worth of the values a collect probe gathers. *)
type link_sample = {
  switch_id : int;
  queue_bytes : int;
  util_ppm : int;
  capacity_kbps : int;
  rate_kbps : int;
}

val control_law : config -> link_sample -> float
(** R(t+T) in bps for one link, per the paper's §2.2 equation, clamped
    to [\[min_rate_bps, capacity\]]. *)

type t

val create : Stack.t -> config -> flow:Flow.t -> dst:Net.host -> t
(** The controller paces [flow] (a CBR flow from this stack's host to
    [dst]). Requires {!Probe.install_echo} on the receiver's stack. *)

val start : t -> ?at:int -> unit -> unit
val stop : t -> unit

val current_rate_bps : t -> int

val probes_sent : t -> int
val updates_sent : t -> int
val updates_won : t -> int
(** CSTOREs whose condition held (detected from the echoed pool word). *)

val read_rate_kbps : Switch.t -> slot:int -> port:int -> int option
(** Control-plane read of a link's fair-rate register, for plots. *)
