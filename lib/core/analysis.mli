(** One-stop analysis of a data type: dependency relations per atomicity
    property and their quorum consequences. *)

open Atomrep_history
open Atomrep_spec

type hybrid_request =
  | Skip (** don't run the (expensive) hybrid search *)
  | Search of { max_events : int; max_actions : int; universe : Event.t list option }

type t = {
  spec : Serial_spec.t;
  max_len : int;
  universe : Event.t list;
  static_relation : Relation.t; (** ≽s — unique minimal (Theorem 6) *)
  dynamic_relation : Relation.t; (** ≽d — unique minimal (Theorem 10) *)
  hybrid_minimal : Relation.t list;
      (** all minimal hybrid dependency relations found by the bounded
          search (empty when skipped) *)
}

val analyze : ?max_len:int -> ?hybrid:hybrid_request -> Serial_spec.t -> t
(** [analyze spec] computes the relations at [max_len] (default
    {!Relation.default_max_len}). The hybrid search defaults to [Skip];
    pass [Search] bounds to enumerate minimal hybrid relations from the
    static relation (Theorem 4 makes it a sound starting point). *)

val is_static_dependency : t -> Relation.t -> bool
(** By Theorem 6 the minimal static relation is unique, so a relation is a
    static dependency relation iff it contains it. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable report: the relations in schematic form plus the
    operation-level constraint counts. *)
