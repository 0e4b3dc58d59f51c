(** Declarative safety/liveness monitors over the {!Trace} bus.

    A monitor is a small state machine observing a subset of trace kinds —
    the P-language "spec machine" idea (HistMSO, Schewe et al.): consistency
    properties stated as declarative machines over event histories instead
    of imperative assertions buried in the runtime. Each spec declares

    - which event kinds it observes ([observes], a static list of
      {!Trace.kind_label}s — P's [spec ... observes e1, e2] clause), stored
      as a mask over {!Trace.kind_tag} ({!Trace.mask}): an event of another kind never
      reaches the spec;
    - a [step] function folding observed events into its state, which can
      also {e accept} (the obligation is discharged, the state is GC'd) or
      {e violate} (a counterexample, anchored at the violating event);
    - an optional [at_quiesce] check that judges whatever state remains
      when the trace ends — where liveness obligations ("every blocked op
      eventually resolves") become violations.

    A spec is a value, built once: its observed kinds are fixed when it is
    built, and {!observed} reads them back, so a spec states what it
    observes exactly once. What a run contributes arrives when the spec
    is {e instantiated}: a ['ctx t] takes one ['ctx] value (a run's
    configuration and outcome, in the monitor catalogue; [()] for a spec
    that reads nothing), handed to its [init] — and, for a {!check} spec,
    to its quiesce verdict.

    Combinators lift specs: {!keyed} instantiates one state machine per
    key (per transaction, per site) with GC on accept, and {!all} conjoins
    monitors, short-circuiting any child that has already produced its
    counterexample. A conjunction dispatches through a per-tag table, so
    each event visits only the children that observe its kind.

    Monitors are pure over the trace: instantiating one allocates fresh
    state, so every run — including every shrink candidate during
    reproducer minimization — gets an unbled verdict. *)

type violation = {
  v_monitor : string;  (** monitor (or keyed-instance) name, e.g. ["no_divergence(T3)"] *)
  v_message : string;
  v_event : int option;  (** id of the violating event; [None] for quiesce-time verdicts *)
}

type 's step =
  | Continue of 's  (** keep folding *)
  | Accept  (** obligation discharged: stop stepping this instance and GC it *)
  | Violate of 's * string
      (** record a counterexample anchored at the current event; the
          instance keeps folding with the given state so later independent
          violations still surface *)

type 'ctx t
(** A monitor specification over run context ['ctx]. Pure: building one
    performs no allocation of run state; every {!instantiate} (or {!run})
    starts fresh from the context it is given. *)

val name : _ t -> string

val observed : _ t -> string list
(** The {!Trace.kind_label}s of the kinds the spec observes (for a
    conjunction, the union of its children's), in tag order. *)

val make :
  name:string ->
  observes:string list ->
  init:('ctx -> 's) ->
  step:('s -> Trace.event -> 's step) ->
  ?at_quiesce:('s -> string list) ->
  unit ->
  'ctx t
(** A single-instance spec. [init] builds its state from the context
    given at instantiation. Only events whose {!Trace.kind_label} is
    listed in [observes] are stepped; a label no kind carries raises
    [Invalid_argument] naming the label and the spec. [at_quiesce]
    (default: accept) returns the messages of every obligation still
    standing when the trace ends. *)

val check : name:string -> ('ctx -> string list) -> 'ctx t
(** A spec that observes no event: at quiesce, [check ~name judge]
    reports [judge ctx] — a verdict taken from the run's context alone
    (its reconstructed histories, its configuration). *)

val keyed :
  name:string ->
  observes:string list ->
  key:(Trace.event -> string option) ->
  init:(string -> 's) ->
  step:('s -> Trace.event -> 's step) ->
  ?at_quiesce:(string -> 's -> string list) ->
  unit ->
  'ctx t
(** One state machine per key — per transaction, per site; the instances
    do not read the context. [observes] is as for {!make}. [key] names the
    instance an observed event belongs to ([None]: the event belongs to no
    instance and is skipped); the first event of a fresh key allocates its
    state via [init]. A step returning [Accept] finalizes the instance:
    its state is GC'd and later events under the same key allocate a new
    instance. Violations are reported as ["name(key)"]. *)

val all : name:string -> 'ctx t list -> 'ctx t
(** Conjunction: every child must hold. It observes the union of the
    children's sets; each instance dispatches an event only to the
    children (in list order) whose set holds its kind. A child that has
    produced a violation is short-circuited — no longer stepped, and its
    [at_quiesce] is skipped — so each child contributes at most its first
    counterexample while the others keep observing. *)

(** {1 Running} *)

type instance
(** Fresh run state for one spec (created by {!instantiate}); feed it
    events with {!observe}, then close it with {!quiesce}. *)

val instantiate : 'ctx t -> 'ctx -> instance
(** [instantiate spec ctx]: fresh state for one run, built from [ctx]. *)

val observe : instance -> Trace.event -> unit

val violations : instance -> violation list
(** Violations recorded so far, in detection order (without quiesce-time
    checks). *)

val live_instances : instance -> int
(** Number of live state machines: 1 (or 0 after accept) for a {!make}
    spec, the live-key count for a {!keyed} spec, the children's sum for a
    conjunction. Exposed so tests can pin keyed-instance GC. *)

val quiesce : instance -> violation list
(** End of trace: run every remaining state's [at_quiesce] and return all
    violations (stepped ones first, in detection order). Idempotent. *)

val run : ?from_id:int -> 'ctx t -> 'ctx -> Trace.t -> violation list
(** [instantiate] with the context, fold the trace's stored events with id at or above
    [from_id] (default 0: the whole trace), [quiesce]. A [from_id] taken
    as {!Trace.length} before a run scopes the fold to that run's events,
    so runs sharing one bus never judge each other's transactions. *)

val failures : violation list -> (string * string) list
(** Campaign-oracle shape: [(monitor, message)] with the violating event id
    woven into the message, concatenable with the runtime's oracle
    failures. *)
