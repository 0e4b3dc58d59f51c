(** Dependency relations between invocations and events (paper, §3.2).

    A relation [≽] is a set of pairs (invocation, event), read
    "inv depends on e": a front-end executing [inv] must observe every
    earlier [e] event in its view. Constraints on quorum assignment are
    expressed as requirements that certain initial and final quorums
    intersect; a quorum choice is correct exactly when its intersection
    relation is an atomic dependency relation for the object's behavioral
    specification.

    Relations are finite sets over the bounded invocation/event universes of
    a specification. For display, instances that differ only in string-typed
    (item) arguments are folded into schemas — the paper's
    [Enq(x) ≽ Deq();Ok(y)] notation — whenever every instance of the schema
    is present; integer arguments stay concrete, matching the paper's
    [Shift(3) ≽ Shift(2);Ok()]. *)

open Atomrep_history

type pair = Event.Invocation.t * Event.t

val default_max_len : int
(** The history-length bound (4 events) at which the static and dynamic
    relations are computed unless a caller asks for another: the bound of
    every runtime object, experiment and CLI analysis. At this bound the
    relation is already exact for seven of the eight certified types (see
    {!Static_dep}). *)

type t

val empty : t
val add : pair -> t -> t
val remove : pair -> t -> t
val mem : pair -> t -> bool
val of_list : pair list -> t
val elements : t -> pair list
val cardinal : t -> int
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val is_empty : t -> bool

val dependencies_of : t -> Event.Invocation.t -> Event.t list
(** All events the invocation depends on. *)

val pp_pair : Format.formatter -> pair -> unit
(** One pair in the paper's style: [Enq(x) >= Deq();Ok(y)]. *)

val pp : Format.formatter -> t -> unit
(** All pairs, one per line. *)

type schema = {
  inv_op : string;
  inv_args : Value.t option list; (** [None] marks a folded item variable *)
  ev_op : string;
  ev_args : Value.t option list;
  ev_label : string;
  ev_rets : Value.t option list;
}

val schematize : universe:Event.t list -> invocations:Event.Invocation.t list -> t -> schema list * pair list
(** [(schemas, leftover)]: schemas whose every instance over the given
    universes belongs to the relation, folding string arguments; concrete
    pairs not covered by any complete schema are returned in [leftover]. *)

val pp_schema : Format.formatter -> schema -> unit

val pp_schematic :
  universe:Event.t list -> invocations:Event.Invocation.t list ->
  Format.formatter -> t -> unit
(** Paper-style display: complete schemas first, then leftover concrete
    pairs. *)
