(** Bounded verification of hybrid dependency relations (paper, Definition 2
    applied to Hybrid(T)).

    Unlike the static and dynamic cases, a data type's minimal hybrid
    dependency relation need not be unique (paper, §4), and no closed-form
    characterization is available. This module decides, by bounded
    exhaustive search, whether a candidate relation [≽] is a hybrid
    dependency relation: it enumerates behavioral histories [H] in
    Hybrid(T), closed subhistories [G] of [H] containing every event [e]
    with [inv ≽ e], and appended events [\[inv;res A\]], looking for a
    violation — [G·\[inv;res A\]] in Hybrid(T) but [H·\[inv;res A\]] not.

    {b One history representation.} A history is a list of {!step}s over
    an event payload: the search runs over events interned to integer ids
    of an {!engine}'s universe, and a {!counterexample} carries the same
    steps mapped back to events. {!steps_of} and {!project} serve both;
    membership ({!hybrid_ok}, {!steps_hybrid}) runs on interned events,
    with serial legality memoized in a trie of reached states and
    prefix-wise membership cached per history.

    {b Canonical histories.} Hybrid atomicity is insensitive to where Begin
    events fall and, for fixed commit {e order}, committing an action only
    ever shrinks the set of serializations that must be legal. Hence the
    earliest-commit placement (each Commit immediately after its action's
    last execution, subject to commit order) is the most permissive
    interleaving: if any interleaving of a given (executions, commit order)
    configuration yields a violation of Definition 2, the earliest-commit
    interleaving of that configuration does. The search therefore enumerates
    configurations only, which keeps it exact while pruning interleaving
    duplicates.

    {b Templates.} All quantification except the relation itself is
    relation-independent, so the expensive enumeration runs once per
    (specification, bounds) as {!make_checker}; each candidate violation is
    stored as a template, and {!verify} reduces to testing, per template,
    that the selected subhistory contains the appended invocation's
    required dependencies and is closed under the candidate relation
    ({!Closed_subhistory.is_closed}, Definition 1). This makes the
    minimal-relation search ({!minimal_hybrids}) practical. *)

open Atomrep_history
open Atomrep_spec

type 'e step = Exec of 'e * int | Commit of int
(** One history entry; [int] is the action id. Begin entries are implicit. *)

type 'e config = {
  entries : ('e * int) list;
      (** operation executions in history order; [int] is the action id *)
  commit_order : int list; (** committed action ids, in Commit-event order *)
  nactions : int;
}

val steps_of : 'e config -> 'e step list
(** The canonical earliest-commit interleaving of a configuration. *)

val project : 'e step list -> keep:(int -> bool) -> 'e step list
(** [project steps ~keep] deletes executions at positions (0-based, counting
    executions only) rejected by [keep], along with Commit entries of
    actions left without executions — the subhistory [G] with its inherited
    interleaving. *)

type engine
(** A specification with an interned event universe. *)

val engine : Serial_spec.t -> Event.t list -> engine
(** [engine spec universe]: an event's id is its index in [universe]. *)

val hybrid_ok : engine -> int config -> bool
(** Does the configuration pass the on-line hybrid atomicity check — every
    serialization (committed actions in commit order, followed by any
    permutation of any subset of active actions) legal? *)

val steps_hybrid : engine -> int step list -> bool
(** Is the history a member of Hybrid(T) — does every execution prefix
    pass {!hybrid_ok}? Cached per history. *)

type counterexample = {
  history : Event.t step list;
  g_positions : int list;
  appended : Event.t;
  appended_action : int;
}

val pp_counterexample : Format.formatter -> counterexample -> unit

type checker

val make_checker :
  ?universe:Event.t list -> Serial_spec.t -> max_events:int -> max_actions:int -> checker
(** Enumerate Hybrid(T) configurations with at most [max_events] executions
    and [max_actions] actions (an appended event may always use one extra
    fresh action) and precompute violation templates. [universe] defaults to
    {!Serial_spec.event_universe} at [max_events].

    @raise Failure if the template store exceeds 2,000,000 templates — a
    signal to lower the bounds. *)

val config_count : checker -> int
val template_count : checker -> int

val verify : checker -> Relation.t -> (unit, counterexample) result
(** No counterexample within bounds — the relation is a hybrid dependency
    relation for the bounded fragment (and the bounds are chosen so the
    paper's witnesses lie inside it). A returned counterexample is exact:
    it identifies concrete histories violating Definition 2. *)

val is_hybrid_dependency : checker -> Relation.t -> bool

val minimal_hybrids : checker -> base:Relation.t -> Relation.t list
(** All minimal sub-relations of [base] that remain hybrid dependency
    relations at the checker's bounds. Requires [base] itself to verify;
    returns [[]] otherwise. Because validity is monotone under superset, a
    relation is minimal exactly when no single-pair removal verifies. *)
