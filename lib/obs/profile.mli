(** Scoped phase timers with allocation accounting.

    A profile is a table of phases keyed by [subsystem x phase name],
    each declared once as a {!key} (instrumented code declares its keys
    at module initialization); each {!time} call accumulates the wrapped
    thunk's wall time and its minor-heap allocation ([Gc.minor_words]
    delta) into the phase's cell. Phases are inclusive: a network send timed inside an
    engine dispatch counts toward both.

    The disabled profile ({!null}, or [create ~enabled:false]) runs the
    thunk directly — no clock read, no GC stat, no table touch — so
    instrumented code costs one branch when profiling is off. Profiling
    never draws from any simulation RNG and never touches simulated state,
    so enabling it cannot perturb a deterministic run.

    Measurements include a small fixed profiler self-cost per enter/exit
    (two clock reads and two [Gc.minor_words] reads); hot phases dominate
    it by construction, which is all a top-N table needs.

    {b Ambient installation.} Deep layers (the engine loop, the trace bus,
    WAL flushes) record against the {e current} profile — a domain-local
    slot installed by whoever owns the run ({!with_current}, used by
    [Runtime.run]) — so instrumentation needs no handle plumbing. Each
    domain starts with {!null}: parallel explorer domains never share a
    table. *)

type t

val create : ?enabled:bool -> unit -> t
val null : t
(** The shared disabled profile: every [time] runs its thunk directly. *)

val enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Wall-clock source; defaults to [Sys.time] (processor time) because this
    library cannot link Unix — callers that can should inject
    [Unix.gettimeofday]. *)

type key
(** A declared phase. A profile finds the phase's cell by the key's dense
    id — an array index, not a hash of the names — and creates the cell
    on the key's first timing. *)

val key : subsystem:string -> string -> key
(** [key ~subsystem phase]: the key of that phase; declaring the same pair
    twice returns the same key. *)

val time : t -> key -> (unit -> 'a) -> 'a
(** [time t key f] runs [f] and accumulates its wall time, allocation and
    a call count into the phase's cell. Exceptions propagate; the partial
    measurement is still recorded. *)

(** {1 Ambient (domain-local) profile} *)

val current : unit -> t
val set_current : t -> unit

val with_current : t -> (unit -> 'a) -> 'a
(** Install a profile for the extent of the callback, restoring the
    previous one after (also on exceptions). *)

val record : key -> (unit -> 'a) -> 'a
(** {!time} against {!current}; one branch when the current profile is
    disabled. *)

(** {1 Reporting} *)

type phase = {
  p_subsystem : string;
  p_phase : string;
  p_count : int;
  p_wall : float;
  p_minor_words : float;
}

val phases : t -> phase list
(** All phases, hottest (most wall time) first. *)

val top : t -> n:int -> phase list
val total_wall : t -> float

val pp_table : ?top:int -> Format.formatter -> t -> unit
(** The hot-phase table: subsystem/phase, call count, wall seconds, share
    of total profiled wall time, and minor-heap kilowords. [top] defaults
    to 10. *)

val to_json : t -> Json.t
(** [{"phases":[{subsystem,phase,count,wall_s,minor_words}...]}], hottest
    first. *)
