(** Sim-time time-series: registered series sampled into fixed-width
    windows with ring-buffer storage.

    A series is registered once (before the first observation) with an
    in-window aggregation: [Last] for gauges (queue depth, live blocked
    count), [Sum] for deltas of cumulative counters (committed, WAL
    flushes — window sum / width is the rate), [Max] for high-water marks.

    Windows are half-open [[k*width, (k+1)*width)]: an observation exactly
    on a boundary belongs to the {e later} window. Closing a window when
    time skips ahead materializes empty windows for the gap, so a quiet
    stretch shows as empty rows, not holes. {!finish} flushes the open
    window; it is marked incomplete when the run ended before the window's
    nominal end — consumers can drop or annotate the partial tail.

    Storage is a ring of at most [capacity] closed windows; overflow drops
    the oldest and counts it in {!dropped}.

    The disabled series ({!null}, or [create ~enabled:false]) ignores every
    observation, so instrumented code costs one branch when off. Sampling
    draws nothing from any simulation RNG. *)

type t

type agg =
  | Last  (** gauge: keep the window's last observation *)
  | Sum  (** counter delta: add observations within the window *)
  | Max  (** high-water mark within the window *)

type series

val create : ?enabled:bool -> ?capacity:int -> width:float -> unit -> t
(** [width] is the window width in simulated time (must be positive);
    [capacity] (default 4096) bounds the ring of closed windows. *)

val null : t
val enabled : t -> bool
val width : t -> float

val series : t -> ?agg:agg -> string -> series
(** Register a series (default [Last]). Raises [Invalid_argument] after the
    first observation — the window layout is fixed once sampling starts. *)

val observe : t -> series -> now:float -> float -> unit
(** Record a value at simulated time [now]. No-op when disabled or after
    {!finish}. *)

val finish : t -> now:float -> unit
(** End of run: flush the open window ([w_complete = false] if [now] is
    before its nominal end). Idempotent; later observations are ignored. *)

type window = {
  w_index : int;  (** [k]: the window covers [k*width, (k+1)*width) *)
  w_start : float;
  w_until : float;  (** nominal end, even for a partial final window *)
  w_complete : bool;
  w_values : float option array;  (** per-series; [None]: no observation *)
}

val windows : t -> window list
(** Closed windows, oldest first (at most [capacity]). *)

val value : window -> series -> float option
val series_names : t -> string list
val dropped : t -> int
(** Windows discarded to ring overflow. *)

val to_json : t -> Json.t
(** [{"width","dropped_windows","series":[names],
    "windows":[{index,start,until,complete,values:{name: num|null}}...]}] *)
