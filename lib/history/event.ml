module Invocation = struct
  type t = { op : string; args : Value.t list }

  let make op args = { op; args }

  let compare a b =
    let c = String.compare a.op b.op in
    if c <> 0 then c else List.compare Value.compare a.args b.args

  let equal a b = compare a b = 0

  let pp ppf { op; args } =
    Format.fprintf ppf "%s(%a)" op
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Value.pp)
      args

  let to_string t = Format.asprintf "%a" pp t
end

module Response = struct
  type t = { label : string; rets : Value.t list }

  let make label rets = { label; rets }
  let ok rets = { label = "Ok"; rets }
  let exn label = { label; rets = [] }
  let is_ok t = String.equal t.label "Ok"

  let compare a b =
    let c = String.compare a.label b.label in
    if c <> 0 then c else List.compare Value.compare a.rets b.rets

  let equal a b = compare a b = 0

  let pp ppf { label; rets } =
    Format.fprintf ppf "%s(%a)" label
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Value.pp)
      rets
end

type t = { inv : Invocation.t; res : Response.t }

let make inv res = { inv; res }
let simple op args res = { inv = Invocation.make op args; res }

let compare a b =
  let c = Invocation.compare a.inv b.inv in
  if c <> 0 then c else Response.compare a.res b.res

let equal a b = compare a b = 0

let pp ppf { inv; res } = Format.fprintf ppf "%a;%a" Invocation.pp inv Response.pp res
let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
