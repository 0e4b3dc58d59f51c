(** The unique minimal dynamic dependency relation (paper, Theorem 10).

    Two events commute (Definition 8) when, for every serial history [h] with
    [h·e] and [h·e'] both legal, [h·e·e'] and [h·e'·e] are equivalent legal
    histories. [inv ≽d e] holds when some response [res] makes [[inv;res]]
    and [e] fail to commute.

    Commutativity is decided at each distinct state reachable in at most
    [max_len] events ({!Atomrep_spec.Serial_spec.reachable}): a history
    matters to Definition 8 only through the state it reaches. History
    equivalence is decided by observational equivalence at depth
    [max_len + 2] ({!Atomrep_spec.Serial_spec.state_equiv}). *)

open Atomrep_history
open Atomrep_spec

val commute : Serial_spec.t -> max_len:int -> Event.t -> Event.t -> bool
(** [commute spec ~max_len e e'] decides Definition 8 within the bound. *)

val non_commuting_witness :
  Serial_spec.t -> max_len:int -> Event.t -> Event.t -> Event.t list option
(** A serial history [h] with [h·e] and [h·e'] legal but [h·e·e'] and
    [h·e'·e] not equivalent legal histories, if one exists within bound — a
    shortest one. *)

val minimal : ?max_len:int -> Serial_spec.t -> Relation.t
(** [minimal spec] computes [≽d] over the event universe bounded at
    [max_len] (default {!Relation.default_max_len}). *)
