(** The network's control-plane agent (paper §3.2 "Multiple tasks" and
    §2.3's versioned flow entries).

    One controller owns a network: it partitions SRAM between network
    tasks consistently across every switch, keeps the global forwarding
    table version, and performs routing updates — including the
    deliberately {e staged} update experiment E12 uses to reproduce the
    inconsistent-update window the paper cites ndb/[7] for. *)

module Net = Tpp_sim.Net

(** A task's network-wide SRAM allocation. *)
type task = {
  task_name : string;
  link_slot : int option;
      (** the contextual per-link slot, identical on every switch *)
  word_base : int option;
      (** base of the raw word range, identical on every switch *)
  word_count : int;
}

type t

val create : Net.t -> t
(** Takes over route installation: installs single shortest paths (no
    ECMP) at version 1. *)

val version : t -> int

val register_task :
  t -> name:string -> ?link_slot:bool -> ?sram_words:int -> unit ->
  (task, string) result
(** Allocates the requested resources on {e every} switch and verifies
    the addresses agree network-wide (TPPs compile one address for the
    whole path, so they must). Fails — without partial allocation
    visible to tasks — if any switch disagrees or is full. *)

val tasks : t -> task list

val defines_for : task -> (string * int) list
(** Assembler defines for the task's registers:
    ["<name>:LinkReg"] for the per-link slot and ["<name>:Word<i>"] for
    each raw word, resolvable on every switch. *)

val install_tcam :
  t -> switch_node:int -> Tpp_asic.Tables.Tcam.rule ->
  Tpp_asic.Tables.action -> int
(** The ndb interposition point (paper §2.3: "stamping each flow entry
    with a unique version number"): every rule the control plane
    installs gets a fresh network-unique entry id and the current table
    version. Returns the entry id, which traced packets will report in
    [PacketMetadata:MatchedEntryID]. *)

val remove_tcam : t -> switch_node:int -> entry_id:int -> unit

val reinstall_routes : t -> unit
(** Atomically (in simulation time) reinstalls all routes at a bumped
    version. *)

val staged_route_update : t -> gap:int -> unit
(** The realistic, {e non}-atomic variant: bumps the version, then
    updates one switch every [gap] nanoseconds (ascending switch id).
    While the update is in flight, different switches run different
    table versions — exactly the transient the TPP tracer exposes. *)

val update_in_progress : t -> bool
