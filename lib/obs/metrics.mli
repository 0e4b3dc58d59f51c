(** Metrics registry: counters, gauges and histograms with labels.

    A metric is identified by its name plus a label set (order-insensitive).
    [counter]/[gauge]/[histogram] are get-or-create: asking twice for the
    same identity returns the same instance, so instrumented code anywhere
    in the stack can share a metric without threading handles around.
    Adding a new counter is one call at the point of instrumentation — the
    registry replaces hand-maintained record-of-ints plumbing.

    Histograms are {!Atomrep_stats.Summary} accumulators, so percentile
    reads use the same nearest-rank machinery the rest of the repo does. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?labels:(string * string) list -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

val read : counter -> int
(** Current value via the handle — no registry lookup, so periodic
    samplers (e.g. {!Timeseries}) can poll hot counters cheaply. *)

val gauge : t -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit

val histogram : t -> ?labels:(string * string) list -> string -> histogram
val observe : histogram -> float -> unit

val counter_value : t -> ?labels:(string * string) list -> string -> int
(** 0 when the identity was never registered. *)

val counter_sum : t -> string -> int
(** Sum over every label set registered under the name. *)

val histogram_summary :
  t -> ?labels:(string * string) list -> string -> Atomrep_stats.Summary.t
(** The live accumulator (empty if never registered). *)

val to_json : t -> Json.t
(** {v {"counters":[{name,labels,value}...],
       "gauges":[...],
       "histograms":[{name,labels,count,mean,min,max,p50,p95,p99}...]} v}
    in registration order. *)

val pp : Format.formatter -> t -> unit
