(** Fine linear histogram of durations in nanoseconds.

    [Pop_runtime.Histogram] is log-scaled with 6.25% sub-buckets: a
    percentile that sits near a bucket edge flips by 6% between
    identical runs, which is most of the noise band the benchmark's
    bounds allow. Here every bucket is [width_ns] wide (10 ns for
    µs-scale operations, 1 ns for the [retire] fast path), so the
    quantisation error stays well below the run-to-run spread. Not
    thread-safe: one histogram per worker, merged after the join. *)

type t

val create : width_ns:int -> t
(** 32768 buckets of [width_ns]; samples beyond the last bucket are
    counted there and tracked by the exact {!max_ns}. *)

val record : t -> int -> unit
(** [record t ns] adds one sample (negative samples count as 0). *)

val record_s : t -> float -> unit
(** [record_s t seconds] is [record] after converting to ns. *)

val count : t -> int

val max_ns : t -> int
(** Exact largest sample; 0 when empty. *)

val merge_into : t -> src:t -> unit
(** Add [src]'s samples into the first histogram (same width only). *)

val quantile : t -> float -> float
(** [quantile t q]: the midpoint of the bucket holding the sample of
    rank [ceil (q * count)], never above {!max_ns}; the exact maximum
    when that sample lies past the last bucket; 0 when empty. *)
