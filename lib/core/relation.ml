open Atomrep_history

type pair = Event.Invocation.t * Event.t

let default_max_len = 4

module Pair_ord = struct
  type t = pair

  let compare (i1, e1) (i2, e2) =
    let c = Event.Invocation.compare i1 i2 in
    if c <> 0 then c else Event.compare e1 e2
end

module S = Set.Make (Pair_ord)

type t = S.t

let empty = S.empty
let add = S.add
let remove = S.remove
let mem = S.mem
let of_list = S.of_list
let elements = S.elements
let cardinal = S.cardinal
let union = S.union
let inter = S.inter
let diff = S.diff
let subset = S.subset
let equal = S.equal
let compare = S.compare
let is_empty = S.is_empty

let dependencies_of t inv =
  S.elements t
  |> List.filter_map (fun (i, e) ->
       if Event.Invocation.equal i inv then Some e else None)

let pp_pair ppf ((inv, e) : pair) =
  Format.fprintf ppf "%a >= %a" Event.Invocation.pp inv Event.pp e

let pp ppf t =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_pair ppf (S.elements t)

type schema = {
  inv_op : string;
  inv_args : Value.t option list;
  ev_op : string;
  ev_args : Value.t option list;
  ev_label : string;
  ev_rets : Value.t option list;
}

let fold_arg = function
  | Value.Str _ -> None
  | v -> Some v

let schema_of ((inv, e) : pair) =
  {
    inv_op = inv.op;
    inv_args = List.map fold_arg inv.args;
    ev_op = e.inv.op;
    ev_args = List.map fold_arg e.inv.args;
    ev_label = e.res.label;
    ev_rets = List.map fold_arg e.res.rets;
  }

let args_match pattern args =
  List.length pattern = List.length args
  && List.for_all2
       (fun p a ->
         match p with
         | None -> (match a with Value.Str _ -> true | _ -> false)
         | Some v -> Value.equal v a)
       pattern args

let inv_matches schema (inv : Event.Invocation.t) =
  String.equal schema.inv_op inv.op && args_match schema.inv_args inv.args

let event_matches schema (e : Event.t) =
  String.equal schema.ev_op e.inv.op
  && args_match schema.ev_args e.inv.args
  && String.equal schema.ev_label e.res.label
  && args_match schema.ev_rets e.res.rets

let instances schema ~universe ~invocations =
  let invs = List.filter (inv_matches schema) invocations in
  let evs = List.filter (event_matches schema) universe in
  List.concat_map (fun i -> List.map (fun e -> (i, e)) evs) invs

let schematize ~universe ~invocations t =
  let by_schema = Hashtbl.create 16 in
  S.iter
    (fun pair ->
      let key = schema_of pair in
      let existing = Option.value (Hashtbl.find_opt by_schema key) ~default:[] in
      Hashtbl.replace by_schema key (pair :: existing))
    t;
  let schemas = Hashtbl.fold (fun key _ acc -> key :: acc) by_schema [] in
  let complete, partial =
    List.partition
      (fun schema ->
        let required = instances schema ~universe ~invocations in
        required <> [] && List.for_all (fun p -> S.mem p t) required)
      schemas
  in
  let leftover =
    List.concat_map (fun schema -> List.rev (Hashtbl.find by_schema schema)) partial
    |> List.sort Pair_ord.compare
  in
  let ordered =
    List.sort
      (fun a b ->
        let c = String.compare a.inv_op b.inv_op in
        if c <> 0 then c else String.compare b.ev_op a.ev_op)
      complete
  in
  (ordered, leftover)

let pp_schema ppf schema =
  (* Item variables are named x, y, z, … in order of appearance. *)
  let counter = ref 0 in
  let letters = [| "x"; "y"; "z"; "u"; "v"; "w" |] in
  let fresh () =
    let name = letters.(!counter mod Array.length letters) in
    incr counter;
    name
  in
  let cell = function
    | None -> fresh ()
    | Some v -> Value.to_string v
  in
  let cells args = String.concat ", " (List.map cell args) in
  let inv_args = cells schema.inv_args in
  let ev_args = cells schema.ev_args in
  let ev_rets = cells schema.ev_rets in
  Format.fprintf ppf "%s(%s) >= %s(%s);%s(%s)" schema.inv_op inv_args schema.ev_op
    ev_args schema.ev_label ev_rets

let pp_schematic ~universe ~invocations ppf t =
  let schemas, leftover = schematize ~universe ~invocations t in
  let pp_sep ppf () = Format.pp_print_newline ppf () in
  Format.pp_print_list ~pp_sep pp_schema ppf schemas;
  if schemas <> [] && leftover <> [] then pp_sep ppf ();
  Format.pp_print_list ~pp_sep pp_pair ppf leftover
