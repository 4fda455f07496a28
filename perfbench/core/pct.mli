(** Order statistics for the benchmark's timings: nearest-rank
    percentiles, the tail rule (the highest percentile with at least
    ten samples beyond it) and a log-bucketed histogram for per-step
    and per-route timings, which are too many to keep one by one. *)

val median : float array -> float
(** The middle sample, or the mean of the two middle ones (the
    definition of Python's [statistics.median]). Raises
    [Invalid_argument] on an empty array. *)

val rank : n:int -> float -> int
(** [rank ~n q] is the 1-based nearest-rank index of percentile [q]
    (0 < q <= 100) among [n] sorted samples: [ceil (q/100 * n)],
    at least 1. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile of unsorted samples. Raises
    [Invalid_argument] on an empty array. *)

val ladder : float list
(** Candidate tail percentiles, highest first: 99.9, 99, 95, 90, 75,
    50. *)

type tail = {
  q : float;  (** the percentile reported. *)
  value : float;
  n : int;  (** samples in the distribution. *)
  beyond : int;  (** samples ranked strictly above [q]'s rank. *)
}

val tail : float array -> tail
(** The highest {!ladder} percentile with at least 10 samples beyond
    it. With too few samples for any of them the median is returned,
    and [beyond < 10] says so. *)

(** Log-bucketed histogram of non-negative integer durations (ns):
    16 buckets per octave, so a quantile is exact to within ~2.2%. *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val count : t -> int
  val sum : t -> int
  (** Exact sum of the added values. *)

  val quantile : t -> float -> float
  (** [quantile h q] (0 < q <= 100): the geometric centre of the
      bucket holding the nearest-rank sample; [0.] when empty. *)
end
