(** Operation-level conflict tables derived from dependency relations.

    Runtime concurrency control cannot consult the event-level relation
    directly: live histories mention argument values outside the bounded
    analysis universe. Projecting the relation to operation names is the
    classical type-specific conflict-table construction (Schwarz–Spector
    [26]); it is conservative (it may conflict two instances the event-level
    relation would allow) and safe (it never misses a related pair whose
    schema appears in the relation). *)

open Atomrep_history
open Atomrep_core

type t

val of_relation : Relation.t -> t
(** Conflicts are the operation-name projections of the relation's pairs:
    the pair (invoking op, supplying op) is conflicting when any instance
    relates them. *)

val depends : t -> Event.Invocation.t -> Event.t -> bool
(** [depends table inv e]: does the relation's projection put [inv]'s
    operation in dependency on [e]'s operation? *)

val related : t -> Event.Invocation.t -> Event.t -> bool
(** Either direction: [inv] depends on [e], or [e]'s own invocation would
    depend on an event of [inv]'s operation — the symmetric closure used
    for lock conflicts. *)

val related_ops : t -> string -> string -> bool
(** [related] at the level of bare operation names. *)
