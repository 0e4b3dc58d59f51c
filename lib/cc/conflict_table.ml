open Atomrep_history
open Atomrep_core

module Pair_set = Set.Make (struct
  type t = string * string

  let compare (a1, b1) (a2, b2) =
    let c = String.compare a1 a2 in
    if c <> 0 then c else String.compare b1 b2
end)

type t = Pair_set.t

let of_relation relation =
  List.fold_left
    (fun acc ((inv : Event.Invocation.t), (e : Event.t)) ->
      Pair_set.add (inv.op, e.inv.op) acc)
    Pair_set.empty (Relation.elements relation)

let depends t (inv : Event.Invocation.t) (e : Event.t) =
  Pair_set.mem (inv.op, e.inv.op) t

let related t (inv : Event.Invocation.t) (e : Event.t) =
  Pair_set.mem (inv.op, e.inv.op) t || Pair_set.mem (e.inv.op, inv.op) t

let related_ops t op1 op2 = Pair_set.mem (op1, op2) t || Pair_set.mem (op2, op1) t
