(** Constant-memory streaming summaries over the postcard stream.

    Exact per-flow accounting over a fabric is unbounded; the
    collector instead keeps two small sketches:

    - {!Cms}: count-min heavy hitters — point estimates never
      underestimate and overestimate by at most [e/width * total] with
      probability [1 - e^-depth], a bound the tests check against an
      exact table;
    - {!Ewma}: an exponentially weighted moving average, the per-link
      loss trend the controller thresholds on. *)

val mix : int -> int
(** The sketches' int hash: a splitmix64-style finalizer with the
    multipliers truncated to 62 bits. Allocation-free; the result is
    never negative. *)

(** Count-min sketch over int keys. [depth] rows of [width] counters;
    each update adds to one counter per row, a query takes the row
    minimum. Merging is elementwise counter addition, so a merge of
    shard sketches is {e bit-identical} to the single-stream sketch of
    the concatenated input, in any order — which is what lets the
    sharded telemetry fingerprint stay exact. *)
module Cms : sig
  type t

  val create : ?width:int -> ?depth:int -> unit -> t
  (** Defaults: width 2048, depth 4. Width is rounded up to a power of
      two. *)

  val width : t -> int
  val depth : t -> int

  val epsilon : t -> float
  (** [e /. width]: the overestimate of any point query is at most
      [epsilon * total] with probability [1 - e^-depth]. *)

  val add : t -> key:int -> int -> unit
  (** Adds [n] (>= 0) to [key]'s count. Allocation-free. *)

  val estimate : t -> key:int -> int
  (** Never below the true count; above it by at most
      [epsilon * total] w.h.p. *)

  val total : t -> int
  (** Sum of all added counts. *)

  val merge : into:t -> t -> unit
  (** Elementwise sum; both sketches must share [width] and [depth]. *)

  val equal : t -> t -> bool
  val fingerprint : t -> int
  (** Order-independent digest of the cell array, for the sequential
      vs sharded identity check. *)

  val heavy_hitters : t -> candidates:int list -> threshold:int -> (int * int) list
  (** [(key, estimate)] for every candidate at or above [threshold],
      heaviest first. CMS cannot enumerate keys; callers supply the
      candidate set (e.g. links seen this window). *)
end

(** Exponentially weighted moving average; the per-link loss trend
    estimator the controller thresholds on. *)
module Ewma : sig
  type t

  val create : ?alpha:float -> unit -> t
  (** Smoothing factor (default 0.2) in (0, 1]; higher reacts faster. *)

  val observe : t -> float -> unit
  (** First observation initialises the average to the sample. *)

  val value : t -> float
  (** Current average; 0.0 before any observation. *)

  val count : t -> int
end
