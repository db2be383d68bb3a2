(** The reacting controller: closes the loop from collector windows to
    installed switch state (paper §3.2 — the controller answers a
    congested / failing fabric with new forwarding state, at RTT
    timescales rather than control-protocol timescales).

    Two reactions, both expressed as route rewrites stamped with a
    bumped table version (so the ndb/TPP tracers can watch the update
    propagate) plus a TPP-modelled SRAM flag on the touched switch:

    - {e drain}: a link whose fault EWMA crosses the threshold — or
      that end-host probing ({!Tpp_ndb.Faultfind}) already names a
      suspect — is taken out of every ECMP group that has an
      alternative, so flows hash away from the dying cable;
    - {e reweight}: the byte-hottest link (by CMS-backed link
      accounting) gets its ECMP share cut to one slot while its
      siblings get two, shifting ~2/3 of new flow hashes elsewhere.

    Reactions are idempotent per link: a drained or reweighted link is
    remembered and not re-installed every window. *)

module Net = Tpp_sim.Net

type action =
  | Drained of { switch : int; port : int }
  | Reweighted of { switch : int; port : int }
      (** [port] is the de-weighted (hot) egress. *)

type t

val create : ?version:int -> Net.t -> t
(** Drains a link once its {!Collector.link_fault_ewma} reaches 0.25,
    trusting the EWMA after 3 fault cards; reweights when the hottest
    link carries at least 4x the mean per-link bytes. [version]
    (default 1) is the table version the routes were installed at;
    rewrites bump from there. Allocates one SRAM word per switch
    (task ["react"]) as the drain flag a TPP would write. *)

val step : ?suspects:(int * int) list -> t -> Collector.t -> action list
(** One control round against the collector's current view: drains
    every corroborated suspect (a suspect acts only once it has
    appeared in two consecutive rounds {e and} the collector holds at
    least one fault card for that link — young probe evidence
    over-names cables) and every over-threshold faulty link, then
    considers one reweight. Returns the actions taken {e this} round
    (empty when the fabric looks healthy). *)

val drain : t -> switch:int -> port:int -> unit
(** Removes ([switch], [port]) from every ECMP group on [switch] that
    still has another live port; destinations reachable only through
    the drained port keep their route. Sets the switch's drain-flag
    SRAM word. Idempotent. *)


val version : t -> int
(** Current table version; bumps on every rewrite. *)

val drained : t -> (int * int) list
val actions : t -> action list
(** Everything done so far, oldest first. *)
