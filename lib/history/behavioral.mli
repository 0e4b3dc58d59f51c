(** Behavioral histories (paper, §3.1).

    In the presence of failure and concurrency, an object's state is given by
    a behavioral history: a sequence of Begin events, operation executions,
    Commit events and Abort events, each associated with an action. The
    ordering of operation executions reflects the order in which the object
    returned responses.

    {b Cost.} Every function below makes a constant number of passes over
    the history, with an [Action.Set]/[Action.Map] lookup per entry: O(n
    log a) for n entries and a actions. None rescans the history per
    action, so the judges built on them stay near-linear in history
    length. *)

type entry =
  | Begin of Action.t
  | Exec of Event.t * Action.t
  | Commit of Action.t
  | Abort of Action.t

type t = entry list
(** In execution order (head first). *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val well_formed : t -> bool
(** Checks: at most one Begin / Commit / Abort per action; every execution,
    Commit and Abort follows that action's Begin; no executions after the
    action commits or aborts; no action both commits and aborts. *)

val actions : t -> Action.t list
(** All actions with a Begin entry, in Begin order. *)

val committed : t -> Action.t list
(** Committed actions, in Commit-event order. *)

val aborted : t -> Action.Set.t
(** The actions with an Abort entry. One pass. *)

val active : t -> Action.t list
(** Actions begun but neither committed nor aborted, in Begin order. *)

val begin_order : t -> Action.t list
(** Non-aborted actions in the order of their Begin events. *)

val events_by_action : t -> Event.t list Action.Map.t
(** Each action's subsequence of executed events, in execution order, in
    one pass. Actions that executed nothing are unbound. *)

val all_events : t -> (Event.t * Action.t) list
(** All executions in history order, including those of aborted actions. *)

val live_events : t -> (Event.t * Action.t) list
(** All executions by non-aborted actions, in history order. *)

val serialize : t -> Action.t list -> Event.t list
(** [serialize h order] is the serial history obtained by concatenating each
    listed action's event subsequence, in the given order (paper's
    "serialization of H in the order >>"). Actions absent from [order] are
    excluded. *)

val precedes_counts : t -> int Action.Map.t
(** The partial precedes order (§5) in interval form: [A] precedes [B]
    when [B] executes an operation after [A] commits. [B]'s binding [k]
    says its predecessors are exactly the first [k] actions of commit order
    among the map's keys. The map binds the non-aborted actions that
    executed at least one operation. *)

val strip_aborted : t -> t
(** Remove aborted actions' entries entirely (recoverability: an aborted
    action has no effect). Returns the history itself when nothing
    aborted. *)

val of_script : (string * [ `Begin | `Commit | `Abort | `Exec of Event.t ]) list -> t
(** Convenience constructor for tests: action names with steps. *)
