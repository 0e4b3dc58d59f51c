(** Discrete-event simulation engine.

    Time is a float of abstract milliseconds. Events are closures ordered by
    (time, insertion sequence); ties execute in insertion order, which —
    together with the deterministic {!Atomrep_stats.Rng} — makes every run
    reproducible from its seed.

    {b Timers.} An event that may turn out to be unneeded (an RPC timeout
    whose reply arrived, a hedge whose round already fired) is armed with
    {!timer}, whose handle {!cancel} disarms. A cancelled event never runs
    and is not profiled, but it keeps its (time, seq) slot: the clock still
    passes its deadline exactly as it would have passed the no-op the event
    had become, so [now] and run durations do not depend on whether a
    settled timer was cancelled or left to fire as a no-op.

    {b Daemons.} Background machinery that would run for ever (probes,
    gossip, faults, sweeps) is started inside {!daemon}; an event scheduled
    while a daemon runs is itself a daemon. {!run} stops once every entry
    left is a daemon and its [work] predicate is false. A cancelled
    foreground entry still counts until the clock reaches it, so a run
    without daemons stops exactly where it did before daemons existed. *)

type t

val create : seed:int -> t
val now : t -> float
val rng : t -> Atomrep_stats.Rng.t

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the closure [delay] time units from now. Negative delays are
    clamped to zero. The path for events nobody cancels. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run the closure at [time], or now if [time] is already past. *)

type timer
(** Handle on an event armed by {!timer}. *)

val timer : t -> delay:float -> (unit -> unit) -> timer
(** {!schedule}, returning a handle that {!cancel} accepts. The event takes
    its sequence number when armed, like any other. *)

val cancel : t -> timer -> unit
(** The event will never run. Its closure is released at once. Cancelling
    an event that already ran, or cancelling twice, is a no-op. *)

val daemon : t -> (unit -> 'a) -> 'a
(** [daemon t f] runs [f]; every event it schedules is a daemon. Layers
    that schedule (the detector, fault schedules) need not know. *)

val run : ?until:float -> ?work:(unit -> bool) -> t -> unit
(** Execute events in order until the queue empties, simulated time would
    exceed [until], or only daemons remain and [work ()] (consulted only
    then; default false) is false. Entries not run stay queued. Cancelled
    events advance the clock to their deadline without running. *)

val pending : t -> int
(** Live events still queued: cancelled events are not counted, even
    before the clock reaches them. *)
