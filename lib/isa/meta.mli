(** Per-packet metadata the forwarding pipeline attaches to a packet at
    each switch (paper Table 2, "Per-Packet" namespace).

    The fields are scratch state valid only while the packet is inside
    one switch; the ingress pipeline overwrites them at every hop. TPPs
    read them through the [PacketMetadata:*] addresses. *)

type t = {
  mutable in_port : int;
  mutable out_port : int;
  mutable queue_id : int;        (** egress queue of [out_port] chosen *)
  mutable matched_entry : int;   (** id of the flow entry that matched *)
  mutable matched_version : int; (** version stamp of that entry *)
  mutable table_hit : int;       (** 0 miss/flood, 1 L2, 2 L3, 3 TCAM *)
  mutable arrival_ns : int;      (** switch-local arrival timestamp *)
  mutable hop_count : int;       (** hops traversed so far *)
}

val create : unit -> t

val copy : t -> t
(** An independent record with the same field values. *)

val reset : t -> unit
(** Clears everything except [hop_count] (which survives across hops). *)

val clear : t -> unit
(** Full reset, [hop_count] included — equivalent to a fresh {!create};
    used when a pooled frame is reborn as a new packet. *)

val get : t -> Vaddr.Pkt_meta.t -> int
