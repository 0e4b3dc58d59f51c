(** The three local atomicity properties (paper, §4–§5).

    - {b Static atomicity} (Definition 3): committed actions are serializable
      in the order of their Begin events — the property ensured by
      timestamp-ordering mechanisms (Reed; Swallow).
    - {b Hybrid atomicity} (Definition 3): committed actions are serializable
      in the order of their Commit events — the property ensured by hybrid
      locking/timestamp mechanisms.
    - {b Strong dynamic atomicity} (Definition 7): serializable in {e every}
      order consistent with the partial precedes order, with all such
      serializations equivalent — the property ensured by two-phase locking.

    All checkers implement the {e on-line} versions: a history satisfies the
    property only if it still does after committing any subset of its active
    actions (in any eligible order). Aborted actions are stripped first
    (recoverability).

    {b Decision procedure.} One depth-first search over pairs (set of placed
    actions, spec state) decides all three properties exactly. Serial
    specifications are deterministic per (state, event), so the walk
    replays each shared prefix once and expands each pair once; the only
    per-property code is which unplaced action may be placed next — the
    next committed action in Begin order or an active that began before it
    (static), commit order and then any active (hybrid), any action whose
    precedes-predecessors are placed (dynamic). An illegal placement is the
    counterexample. Actions that executed nothing are left out: no
    serialization sees them. The cost is the number of (placed set,
    distinct state) pairs: linear in the history for a chain of commits,
    exponential only in the actions that may be placed in several orders
    with distinct effects. Building the walk takes a few passes over the
    history ([Behavioral.events_by_action], set lookups), and a visit
    scans only its candidates: for dynamic, the window of indices whose
    predecessors the placed prefix can cover. The simulator's
    verification pass applies it to every per-object history it
    generates. *)

open Atomrep_history
open Atomrep_spec

type property = Static | Hybrid | Dynamic

val property_name : property -> string
val all_properties : property list

type failure = {
  order : Action.t list;
      (** the failing order: for an illegal serialization its shortest
          illegal prefix, ending in the action whose placement failed *)
  serial : Event.t list; (** the illegal (or inequivalent) serialization *)
  reason : string;
}

val pp_failure : Format.formatter -> failure -> unit

val check : Serial_spec.t -> property -> Behavioral.t -> (unit, failure) result
(** Full check with a counterexample on failure. For [Dynamic] this includes
    the equivalence requirement between all serializations, decided with
    observational equivalence at depth [history length + 2]: every state
    reached at a placed set holding all committed actions must be
    equivalent to the first state reached there. *)

val serializable : Serial_spec.t -> Behavioral.t -> bool
(** Is {e some} order of the committed actions (aborted stripped, actives
    ignored) a legal serialization? The same walk, with every committed
    action eligible at every step and illegal placements pruned. *)

val satisfies : Serial_spec.t -> property -> Behavioral.t -> bool

val is_static_atomic : Serial_spec.t -> Behavioral.t -> bool
val is_hybrid_atomic : Serial_spec.t -> Behavioral.t -> bool
val is_dynamic_atomic : Serial_spec.t -> Behavioral.t -> bool
