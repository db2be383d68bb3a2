(** Constant-memory streaming summaries over the postcard stream.

    Exact per-flow and per-link accounting over a fabric is unbounded;
    the collector instead keeps three classic sketches, each with a
    proven error bound the tests check against an exact
    {!Tpp_util.Stats} oracle:

    - {!Cms}: count-min heavy hitters — point estimates never
      underestimate and overestimate by at most [e/width * total] with
      probability [1 - e^-depth];
    - {!Tdigest}: mergeable quantiles (Dunning's merging digest) for
      per-link latency / queue-depth percentiles;
    - {!Ewma}: exponentially weighted moving averages for per-link
      loss and depth trend detection. *)

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

(** Dunning's merging t-digest: quantiles in O(delta) memory with rank
    error concentrated at the median and vanishing at the tails. Unlike
    {!Cms}, compression depends on arrival order, so a merged digest is
    only {e rank-close} to the single-stream digest — the property
    tests check both against the exact {!Tpp_util.Stats.percentile}
    oracle instead of for bit equality. *)
module Tdigest : sig
  type t

  val create : ?delta:float -> unit -> t
  (** Compression parameter (default 100.0, must be >= 10): at most
      [floor (2 * delta) + 8] centroids are retained.

      Memory: a fresh digest holds no arrays (12 words). Its first
      sample allocates a sample buffer of twice the centroid cap
      ([2 * (floor (2 * delta) + 8)] floats, 417 words at the default
      delta), which grows once, when full, to four times the cap (833
      words); only a full four-cap buffer flushes. The two centroid
      arrays (one cap each) are allocated by the first compress, i.e.
      once the buffer fills or a query, {!merge} or {!centroids}
      flushes it. The merge scratch is
      not per digest: each domain keeps one growable set, shared by
      every digest it flushes or merges, and each flush or merge
      overwrites the part it reads, so answers do not depend on what
      other digests did on that domain. *)

  val add : t -> float -> unit

  val add_int : t -> int -> unit
  (** [add t (float_of_int x)] with the conversion inside this module,
      so an integer sample (a queue depth) is never boxed for the
      call. Allocation-free, like {!add}, once the digest has
      compressed and its domain's scratch has grown to fit. *)

  val count : t -> int

  val quantile : t -> float -> float
  (** [quantile t q] with [q] in [\[0, 1\]]; [nan] when empty. *)

  val merge : into:t -> t -> unit
  (** Absorbs [t]'s centroids as weighted samples; [t] is unchanged. *)

  val centroids : t -> int
  (** Centroids currently held — the constant-memory witness. *)
end

(** Exponentially weighted moving average; the per-link loss and depth
    trend estimator the controller thresholds on. *)
module Ewma : sig
  type t

  val create : ?alpha:float -> unit -> t
  (** Smoothing factor (default 0.2) in (0, 1]; higher reacts faster. *)

  val observe : t -> float -> unit
  (** First observation initialises the average to the sample. *)

  val observe_int : t -> int -> unit
  (** [observe t (float_of_int x)] without boxing the converted float
      for the call. *)

  val value : t -> float
  (** Current average; 0.0 before any observation. *)

  val count : t -> int
end
