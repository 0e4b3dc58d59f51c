(** The unique minimal static dependency relation (paper, Theorem 6).

    [inv ≽s e] holds when there exist a response [res] and serial histories
    [h1], [h2], [h3] with [h1·h2·h3] legal such that either

    + [h1·[inv;res]·h2·h3] and [h1·h2·e·h3] are legal but
      [h1·[inv;res]·h2·e·h3] is illegal, or
    + [h1·e·h2·h3] and [h1·h2·[inv;res]·h3] are legal but
      [h1·e·h2·[inv;res]·h3] is illegal.

    The relation is decided over spec states rather than enumerated
    histories: for each ordered pair of events from the bounded event
    universe, a breadth-first search runs [h1·h2·h3] and its insertions in
    lockstep as a tuple of states, with [max_len] bounding the combined
    length of [h1·h2·h3]. Serial specs are deterministic per (state,
    event), so the result is exactly the minimal static dependency relation
    of the specification restricted to that bound, and the search stops as
    soon as a level reaches no new tuple. For a type with finitely many
    reachable states the relation is therefore exact once the bound reaches
    the number of search nodes. The tests certify this for eight types:
    for seven of them the relation at [max_len:4] is already exact, and
    FlagSet gains three pairs at five events. *)

open Atomrep_history
open Atomrep_spec

val minimal : ?max_len:int -> Serial_spec.t -> Relation.t
(** [minimal spec] computes [≽s] over {!Serial_spec.event_universe} at
    [max_len] (default {!Relation.default_max_len}). *)

val witness :
  Serial_spec.t ->
  max_len:int ->
  Event.Invocation.t ->
  Event.t ->
  (Event.t list * Event.t * Event.t list * Event.t list) option
(** [witness spec ~max_len inv e] returns [(h1, ev, h2, h3)] realizing the
    first or second condition for the pair, if the pair is in the bounded
    relation — the paper-style evidence printed by the experiment
    harness. [ev] is the [inv;res] event chosen. The witness has the
    shortest [h1·h2·h3]; among those, the base history first in
    breadth-first order, then the earliest splits, the first [ev] in the
    event universe and the first condition. *)
