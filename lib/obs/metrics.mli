(** Domain-safe metrics registry.

    All mutation paths are lock-free ([Atomic]); only metric
    registration takes a mutex (it happens a handful of times per run).
    Counters and histogram buckets are integers, so concurrent updates
    from Pool domains commute exactly — a snapshot taken after a
    parallel region is identical to the serial one regardless of
    interleaving (see the qcheck property in [test/test_obs.ml]). *)

type t
(** A registry. *)

val create : unit -> t

(** {1 Counters} — monotonically increasing integers. *)

module Counter : sig
  type c

  val incr : c -> unit
  val add : c -> int -> unit
  val value : c -> int
end

val counter : t -> string -> Counter.c
(** Get-or-create; the same name always yields the same counter. *)

(** {1 Gauges} — last-write-wins floats (Gc live words, busy fraction…). *)

module Gauge : sig
  type g

  val set : g -> float -> unit
  val value : g -> float
end

val gauge : t -> string -> Gauge.g

(** {1 Float accumulators} — CAS-looped float sums (seconds of busy
    time per domain). Not bit-deterministic under contention (float
    addition does not commute exactly); use for durations, never for
    anything a test compares bit-for-bit. *)

module Fcounter : sig
  type f

  val add : f -> float -> unit
  val value : f -> float
end

val fcounter : t -> string -> Fcounter.f

(** {1 Log-scale histograms} — power-of-two buckets over non-negative
    values. Bucket counts, total count, and min/max merge exactly and
    order-independently; the float [sum] (kept for OpenMetrics [_sum])
    is CAS-accumulated like {!Fcounter} and is {e not} bit-deterministic
    under contention — never compare it bit-for-bit. *)

module Histogram : sig
  type h

  val create : unit -> h
  (** A free-standing histogram (per-domain local accumulation). *)

  val observe : h -> float -> unit

  val merge_into : dst:h -> src:h -> unit
  (** Commutative, associative bucket-wise add; min/max combine. *)

  val count : h -> int

  val sum : h -> float
  (** Sum of observed values ([0.0] when empty); see the caveat above. *)

  val buckets : h -> (float * int) list
  (** [(upper_bound, count)] for each non-empty bucket, ascending. *)

  val min_value : h -> float
  (** [infinity] when empty. *)

  val max_value : h -> float
  (** [neg_infinity] when empty. *)

  val quantile : h -> float -> float
  (** [quantile h q] (with [q] in [0..1]) estimates the [q]-quantile as
      the upper bound of the bucket where the cumulative count reaches
      [ceil (q * count)]. The estimate sits within one power-of-two
      bucket above the exact sample quantile: [exact < estimate <= 2 *
      exact] for positive samples. [nan] when empty. *)
end

val histogram : t -> string -> Histogram.h

(** {1 Snapshots} *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;  (** [(upper_bound, count)], ascending *)
}

type snapshot_value =
  | Counter_v of int
  | Gauge_v of float
  | Fcounter_v of float
  | Histogram_v of hist_snapshot

val snapshot : t -> (string * snapshot_value) list
(** A typed point-in-time view of every registered metric, name-sorted —
    the single metrics representation: both exporters (the OpenMetrics
    text exposition and run.json) consume it. *)
