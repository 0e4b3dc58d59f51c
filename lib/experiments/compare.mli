(** Programmatic verdicts for the paper's two comparison figures.

    Figure 1-1 orders the three local atomicity properties by the
    concurrency (sets of histories) they permit; Figure 1-2 by the quorum
    assignments (availability trade-offs) their minimal dependency
    relations admit. This module computes both comparisons for a concrete
    data type, with witnesses. *)

open Atomrep_history
open Atomrep_core
open Atomrep_spec

type verdict =
  | Equal
  | Left_strictly_contains (** left permits everything right does, + more *)
  | Right_strictly_contains
  | Incomparable

val pp_verdict : Format.formatter -> verdict -> unit

type concurrency_report = {
  samples : int;
  static_accepted : int; (** sampled histories static atomicity accepts *)
  hybrid_accepted : int;
  dynamic_accepted : int;
  hybrid_not_static : int; (** accepted by hybrid, rejected by static *)
  static_not_hybrid : int;
  hybrid_not_dynamic : int;
  dynamic_not_hybrid : int;
  static_vs_hybrid : verdict;
  hybrid_vs_dynamic : verdict;
  static_vs_dynamic : verdict;
  witness_hybrid_not_static : Behavioral.t option;
  witness_static_not_hybrid : Behavioral.t option;
  witness_hybrid_not_dynamic : Behavioral.t option;
}

val concurrency :
  ?seed:int -> ?histories:int -> ?max_actions:int -> ?max_events:int ->
  Serial_spec.t -> concurrency_report
(** Sample [histories] random histories (default 2000) and compare which
    properties accept them. A [Left_strictly_contains] verdict means every
    sampled history accepted by the right property was accepted by the
    left and some history separated them; [Equal] means no sampled history
    separated them (bounded evidence, not proof). Expected per the paper:
    hybrid strictly contains dynamic; static incomparable with both (on
    types rich enough to separate them). *)

type availability_report = {
  n_sites : int;
  static_count : int;
  hybrid_count : int;
  dynamic_count : int;
  static_vs_hybrid : verdict; (** hybrid-valid vs static-valid assignment sets *)
  hybrid_vs_dynamic : verdict;
}

val availability :
  ?max_len:int -> hybrid_relations:Relation.t list -> n_sites:int ->
  Serial_spec.t -> availability_report
(** Exhaustive threshold-assignment comparison at the operation level.
    [hybrid_relations] are the minimal hybrid relations to accept against
    (e.g. from {!Hybrid_dep.minimal_hybrids}); an assignment is
    hybrid-valid when it satisfies any of them. Expected per the paper:
    hybrid ⊇ static always (Theorem 4), strictly for types like PROM;
    dynamic incomparable for types like DoubleBuffer. *)
