(** Closed subhistories (paper, Definition 1).

    A subhistory [G] of [H] (an order-preserving selection of [H]'s
    operation executions) is {e closed} under a relation [≽] when, whenever
    it contains an event [\[e A\]], it also contains every earlier event
    [\[e' A'\]] with [e.inv ≽ e'], provided neither action has aborted.

    Closed subhistories are the formal model of the views a front-end can
    assemble: quorum intersection guarantees that a view contains every
    event the invocation depends on, and the closure condition captures
    transitive visibility through intermediate events (the FlagSet
    example's indirect Shift(1)→Shift(2)→Shift(3) path).

    {!is_closed} is the library's one statement of the closure condition:
    {!Hybrid_dep.verify} applies it to each stored violation template, and
    {!is_closed_history} to a behavioral history. *)

open Atomrep_history

val is_closed : Relation.t -> Event.t array -> keep:(int -> bool) -> bool
(** [is_closed rel events ~keep] — is the selection of [events] (executions
    in history order, none aborted) by index closed under [rel]: does every
    kept event keep every earlier event its invocation depends on? *)

val is_closed_history : Relation.t -> Behavioral.t -> keep:(int -> bool) -> bool
(** [is_closed_history rel h ~keep] — {!is_closed} for a selection by
    execution index (0-based over [h]'s executions in order). Events of
    aborted actions are exempt, per Definition 1. *)

val subhistory : Behavioral.t -> keep:(int -> bool) -> Behavioral.t
(** The behavioral history [G]: drops rejected executions and the
    Begin/Commit/Abort entries of actions left without any execution. *)
