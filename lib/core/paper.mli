(** The paper's own relations and witness histories, as constants.

    Everything here appears verbatim in Herlihy 1985; the test suite and
    the experiment harness machine-check each one against the analysis
    modules. *)

open Atomrep_history

(** {1 PROM (§4)} *)

val prom_hybrid_relation : Relation.t
(** ≽h for PROM: Seal ≽ Write(x);Ok, Seal ≽ Read();Disabled,
    Read ≽ Seal;Ok, Write(x) ≽ Seal;Ok — over the item universe of
    {!Atomrep_spec.Prom.spec}. *)

val prom_static_extras : Relation.pair list
(** The two constraint schemas static atomicity adds for PROM
    (instantiated): Read ≽ Write(x);Ok and Write(x) ≽ Read();Ok(y). *)

val theorem5_history : Behavioral.t
(** The history H from Theorem 5's proof: A writes x and commits, C seals
    and commits, D reads x; appending Write(y) by B is static-atomic-fatal
    but hybrid-fine. *)

val theorem5_appended : Event.t
(** The appended event [Write(y);Ok()]. *)

(** {1 Queue (§3, Theorem 11)} *)

val queue_static_relation : Relation.t
(** The paper's four schemas for Queue, instantiated over items x, y:
    Enq(x) ≽ Deq();Ok(y) (distinct items), Enq(x) ≽ Deq();Empty(),
    Deq() ≽ Enq(x);Ok(), Deq() ≽ Deq();Ok(x). *)

val queue_dynamic_extra : Relation.pair list
(** Theorem 11's additional dynamic constraint: Enq(x) ≽ Enq(y);Ok(),
    distinct items. *)

(** {1 FlagSet (§4)} *)

val flagset_base_relation : Relation.t
(** The dependencies the paper proves must be in any hybrid dependency
    relation for FlagSet. *)

val flagset_alternative_31 : Relation.t
(** Base plus Shift(3) ≽ Shift(1);Ok(). *)

val flagset_alternative_21 : Relation.t
(** Base plus Shift(2) ≽ Shift(1);Ok(). *)

val flagset_core_universe : Event.t list
(** The six normal events driving the alternative-dependency argument —
    the sub-universe the bounded hybrid checker runs on. *)

(** {1 DoubleBuffer (§5, Theorem 12)} *)

val doublebuffer_dynamic_relation : Relation.t
(** ≽d for DoubleBuffer: Produce(x) ≽ Produce(y);Ok (distinct),
    Produce ≽ Transfer;Ok, Transfer ≽ Produce;Ok, Consume ≽ Transfer;Ok,
    Transfer ≽ Consume;Ok. *)

val theorem12_history : Behavioral.t
(** The history from Theorem 12's proof: A produces x, transfers, commits;
    C transfers; B produces y; appending Consume();Ok(x) by D breaks hybrid
    atomicity if B, C, D commit in that order. *)

val theorem12_appended : Event.t
(** [Consume();Ok(x)]. *)

(** {1 Quorum examples (§4)} *)

val prom_hybrid_quorums : n:int -> (string * (int * int)) list
(** The paper's hybrid PROM assignment on [n] identical sites:
    Read (1, 1), Seal (n, n), Write (1, 1) as (initial, final) sizes. *)

val prom_static_quorums : n:int -> (string * (int * int)) list
(** The static version: Write's final quorum grows to [n]. *)
