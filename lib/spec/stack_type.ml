open Atomrep_history

let push_inv item = Event.Invocation.make "Push" [ Value.str item ]
let pop_inv = Event.Invocation.make "Pop" []

let push item = Event.make (push_inv item) (Event.Response.ok [])
let pop_ok item = Event.make pop_inv (Event.Response.ok [ Value.str item ])

let step state (inv : Event.Invocation.t) =
  let items = Value.get_list state in
  match inv.op, inv.args with
  | "Push", [ v ] -> [ (Event.Response.ok [], Value.list (v :: items)) ]
  | "Pop", [] ->
    (match items with
     | [] -> [ (Event.Response.exn "Empty", state) ]
     | top :: rest -> [ (Event.Response.ok [ top ], Value.list rest) ])
  | _, _ -> []

let spec_with_items items =
  {
    Serial_spec.name = "Stack";
    initial = Value.list [];
    step;
    invocations = List.map push_inv items @ [ pop_inv ];
  }

let spec = spec_with_items [ "x"; "y" ]
