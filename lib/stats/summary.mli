(** Streaming summary statistics for simulation measurements. *)

type t
(** Accumulator over float observations. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float

val observations : t -> float list
(** Every recorded observation, in insertion order. *)

val mean : t -> float
(** Mean of the observations; [0.] when empty. *)

val stddev : t -> float
(** Sample standard deviation; [0.] with fewer than two observations. *)

val min_value : t -> float
(** Smallest observation; [0.] when empty (never an infinity, so values
    serialize cleanly). *)

val max_value : t -> float
(** Largest observation; [0.] when empty. *)

val nearest_rank : n:int -> float -> int
(** [nearest_rank ~n q] is the 0-based index of the nearest-rank
    [q]-quantile (rank [ceil q*n]) in [n > 0] sorted values, clamped to
    [\[0, n-1\]], with [q] clamped to [\[0,1\]]. A [1e-9] guard keeps a
    product like [0.07 *. 100. = 7.000000000000001] from ceiling one rank
    too high. The one rank rule for every percentile in the repository. *)

val percentile : t -> float -> float
(** [percentile t q] by nearest-rank (rank [ceil q*n]) on the sorted
    sample; [q] is clamped to [\[0,1\]], so any [q] on a single-sample
    summary returns that sample and [0.] on an empty one. Retains all
    observations; intended for simulation-scale data. *)
