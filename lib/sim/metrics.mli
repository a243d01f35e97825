(** Measurement utilities: sample distributions, time series, text tables.

    These are the building blocks the benchmark harness uses to print the
    paper's tables and figure series. *)

(** Distribution of scalar samples (latencies, error rates, ...). *)
module Dist : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val median : t -> float
  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0, 1]; 0 on empty. *)

  val min : t -> float
  val max : t -> float

  val cdf : t -> points:int -> (float * float) list
  (** [cdf t ~points] returns [(value, fraction <= value)] pairs at evenly
      spaced fractions, suitable for plotting a CDF (Figure 7a). *)

  val to_sorted_array : t -> float array
end

(** Bounded-memory streaming quantile sketch (DDSketch-style log-bucketed
    histogram). Unlike {!Dist}, which keeps every sample, a [Sketch] is a
    fixed ~2 KB of buckets regardless of stream length, so it survives
    million-query open-loop runs. Quantile estimates carry a relative
    error of at most {!Sketch.relative_error} (~1%) for values in
    [1e-9, 1e9]; values outside are clamped to the edge buckets. *)
module Sketch : sig
  type t

  val relative_error : float
  (** Worst-case relative error of {!quantile} within the covered range:
      (gamma - 1) / (gamma + 1) with gamma = 1.02, just under 1%. *)

  val create : unit -> t

  val record : t -> float -> unit
  (** Add one sample. Allocation-free (no GC pressure per sample);
      values [<= 0.0] are counted in a dedicated zero bucket and
      reported as [0.0] by {!quantile}. *)

  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  val min : t -> float
  (** Exact (not bucketed) minimum; 0 on empty, like {!Dist.min}. *)

  val max : t -> float
  (** Exact maximum; 0 on empty. *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0, 1]; 0 on empty. Uses the same rank
      convention as {!Dist.percentile} (index [floor (q * (n-1))] of the
      sorted stream), so the two agree up to {!relative_error}. *)

  val buckets : t -> (int * int) list
  (** Non-empty [(bucket_index, count)] pairs in ascending index order;
      the zero bucket, if occupied, appears first as [(min_int, zeros)].
      Two sketches with equal [buckets] lists answer every quantile query
      identically. *)

  val cdf : t -> points:int -> (float * float) list
  (** [(value, fraction <= value)] pairs at evenly spaced fractions,
      mirroring {!Dist.cdf}. *)
end

(** Time series bucketed at fixed intervals (Figures 3, 4, 7b, 9). *)
module Series : sig
  type t

  val create : bucket:float -> t
  (** [create ~bucket] accumulates values into buckets [bucket] seconds
      wide. *)

  val add : t -> time:float -> float -> unit
  (** Accumulate a value into the bucket containing [time]. *)

  val set : t -> time:float -> float -> unit
  (** Record a gauge value (last write wins within a bucket). *)

  val rows : t -> (float * float) list
  (** Bucket start time and value, in time order. Gaps filled by carrying
      the previous gauge value for [set]-style series; [add] buckets default
      missing entries to 0. *)

  val cumulative : t -> (float * float) list
  (** Running sum of the bucketed values. *)
end

(** Fixed-width text tables for harness output. *)
module Table : sig
  val render : header:string list -> string list list -> string
  (** [render ~header rows] lays out a table with column widths fitted to
      the content. *)
end

val fmt_float : float -> string
(** Compact float formatting used in all harness tables. *)
