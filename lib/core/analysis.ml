open Atomrep_history
open Atomrep_spec

type hybrid_request =
  | Skip
  | Search of { max_events : int; max_actions : int; universe : Event.t list option }

type t = {
  spec : Serial_spec.t;
  max_len : int;
  universe : Event.t list;
  static_relation : Relation.t;
  dynamic_relation : Relation.t;
  hybrid_minimal : Relation.t list;
}

let analyze ?(max_len = Relation.default_max_len) ?(hybrid = Skip) spec =
  let universe = Serial_spec.event_universe spec ~max_len in
  let static_relation = Static_dep.minimal spec ~max_len in
  let dynamic_relation = Dynamic_dep.minimal spec ~max_len in
  let hybrid_minimal =
    match hybrid with
    | Skip -> []
    | Search { max_events; max_actions; universe } ->
      let checker =
        Hybrid_dep.make_checker ?universe spec ~max_events ~max_actions
      in
      Hybrid_dep.minimal_hybrids checker ~base:static_relation
  in
  { spec; max_len; universe; static_relation; dynamic_relation; hybrid_minimal }

let is_static_dependency t rel = Relation.subset t.static_relation rel

let pp_report ppf t =
  let invocations = t.spec.Serial_spec.invocations in
  let pp_rel = Relation.pp_schematic ~universe:t.universe ~invocations in
  Format.fprintf ppf "type %s (bounded at %d events)@." t.spec.Serial_spec.name t.max_len;
  Format.fprintf ppf "@.minimal static dependency relation (%d pairs):@.%a@."
    (Relation.cardinal t.static_relation) pp_rel t.static_relation;
  Format.fprintf ppf "@.minimal dynamic dependency relation (%d pairs):@.%a@."
    (Relation.cardinal t.dynamic_relation) pp_rel t.dynamic_relation;
  match t.hybrid_minimal with
  | [] -> Format.fprintf ppf "@.(hybrid search skipped)@."
  | rels ->
    List.iteri
      (fun i rel ->
        Format.fprintf ppf "@.minimal hybrid dependency relation #%d (%d pairs):@.%a@."
          (i + 1) (Relation.cardinal rel) pp_rel rel)
      rels
