type violation = {
  v_monitor : string;
  v_message : string;
  v_event : int option;
}

type 's step = Continue of 's | Accept | Violate of 's * string

(* A spec is a recipe for fresh run state: [fresh ()] builds the mutable
   machine, so instantiating twice never shares state — the no-bleed
   guarantee the shrinker's candidate runs rely on. [m_observe tag e] is
   only ever called with an event whose tag ({!Trace.kind_tag}) is in the
   spec's mask — the caller filters, so a machine never re-tests its
   kind. *)
type machine = {
  m_observe : int -> Trace.event -> violation list;
  m_quiesce : unit -> violation list;
  m_live : unit -> int;
}

type t = {
  spec_name : string;
  mask : bool array; (* static observed set, indexed by Trace.kind_tag *)
  fresh : unit -> machine;
}

let name t = t.spec_name

let observed t =
  List.filter_map
    (fun tag -> if t.mask.(tag) then Some (Trace.label_of_tag tag) else None)
    (List.init Trace.n_kind_tags Fun.id)

let make ~name ~observes ~init ~step ?(at_quiesce = fun _ -> []) () =
  let mask = Trace.mask ~name:("Spec_monitor " ^ name) observes in
  let fresh () =
    (* [None] = accepted (discharged, nothing to quiesce). *)
    let state = ref (Some (init ())) in
    let m_observe _tag (e : Trace.event) =
      match !state with
      | None -> []
      | Some s -> (
        match step s e with
        | Continue s' ->
          state := Some s';
          []
        | Accept ->
          state := None;
          []
        | Violate (s', msg) ->
          state := Some s';
          [ { v_monitor = name; v_message = msg; v_event = Some e.Trace.id } ])
    in
    let m_quiesce () =
      match !state with
      | None -> []
      | Some s ->
        List.map
          (fun msg -> { v_monitor = name; v_message = msg; v_event = None })
          (at_quiesce s)
    in
    let m_live () = match !state with Some _ -> 1 | None -> 0 in
    { m_observe; m_quiesce; m_live }
  in
  { spec_name = name; mask; fresh }

let keyed ~name ~observes ~key ~init ~step ?(at_quiesce = fun _ _ -> []) () =
  let mask = Trace.mask ~name:("Spec_monitor " ^ name) observes in
  let fresh () =
    let states = Hashtbl.create 32 in
    (* Insertion order, for deterministic quiesce reports. *)
    let order = ref [] in
    let m_observe _tag (e : Trace.event) =
      match key e with
      | None -> []
      | Some k -> (
        let s =
          match Hashtbl.find_opt states k with
          | Some s -> s
          | None ->
            let s = init k in
            Hashtbl.replace states k s;
            order := k :: !order;
            s
        in
        match step s e with
        | Continue s' ->
          Hashtbl.replace states k s';
          []
        | Accept ->
          Hashtbl.remove states k;
          []
        | Violate (s', msg) ->
          Hashtbl.replace states k s';
          [
            {
              v_monitor = Printf.sprintf "%s(%s)" name k;
              v_message = msg;
              v_event = Some e.Trace.id;
            };
          ])
    in
    let m_quiesce () =
      List.concat_map
        (fun k ->
          match Hashtbl.find_opt states k with
          | None -> []
          | Some s ->
            List.map
              (fun msg ->
                {
                  v_monitor = Printf.sprintf "%s(%s)" name k;
                  v_message = msg;
                  v_event = None;
                })
              (at_quiesce k s))
        (List.rev !order)
    in
    let m_live () = Hashtbl.length states in
    { m_observe; m_quiesce; m_live }
  in
  { spec_name = name; mask; fresh }

type child = {
  c_mask : bool array;
  c_machine : machine;
  mutable c_failed : bool;
}

let all ~name children =
  let mask =
    Array.init Trace.n_kind_tags (fun tag ->
        List.exists (fun c -> c.mask.(tag)) children)
  in
  let fresh () =
    (* Conjunction with per-child short-circuit: once a child yields its
       counterexample it is dropped from stepping and quiescing — each
       child contributes at most its first verdict while the rest keep
       observing independently. *)
    let live =
      List.map
        (fun c -> { c_mask = c.mask; c_machine = c.fresh (); c_failed = false })
        children
    in
    (* The dispatch table: row [tag] holds, in child order, the children
       whose mask has [tag], so an event visits only its observers. *)
    let rows =
      Array.init Trace.n_kind_tags (fun tag ->
          List.filter (fun child -> child.c_mask.(tag)) live)
    in
    let rec walk tag e = function
      | [] -> []
      | child :: rest ->
        let vs =
          if child.c_failed then []
          else
            match child.c_machine.m_observe tag e with
            | [] -> []
            | vs ->
              child.c_failed <- true;
              vs
        in
        vs @ walk tag e rest
    in
    let m_observe tag e = walk tag e rows.(tag) in
    let m_quiesce () =
      List.concat_map
        (fun child -> if child.c_failed then [] else child.c_machine.m_quiesce ())
        live
    in
    let m_live () =
      List.fold_left
        (fun acc child ->
          if child.c_failed then acc else acc + child.c_machine.m_live ())
        0 live
    in
    { m_observe; m_quiesce; m_live }
  in
  { spec_name = name; mask; fresh }

type instance = {
  machine : machine;
  observed : bool array; (* the spec's mask *)
  mutable seen : violation list; (* reverse detection order *)
  mutable quiesced : violation list option;
}

let instantiate t =
  { machine = t.fresh (); observed = t.mask; seen = []; quiesced = None }

let observe inst e =
  match inst.quiesced with
  | Some _ -> ()
  | None ->
    let tag = Trace.kind_tag e.Trace.kind in
    if inst.observed.(tag) then
      List.iter
        (fun v -> inst.seen <- v :: inst.seen)
        (inst.machine.m_observe tag e)

let violations inst = List.rev inst.seen
let live_instances inst = inst.machine.m_live ()

let quiesce inst =
  match inst.quiesced with
  | Some vs -> vs
  | None ->
    let vs = List.rev inst.seen @ inst.machine.m_quiesce () in
    inst.quiesced <- Some vs;
    vs

let run ?(from_id = 0) t trace =
  let inst = instantiate t in
  Profile.record ~subsystem:"monitor" "step" (fun () ->
      Trace.iter ~from_id ~kinds:inst.observed trace (observe inst));
  quiesce inst

let failures vs =
  List.map
    (fun v ->
      let msg =
        match v.v_event with
        | Some id -> Printf.sprintf "%s (event #%d)" v.v_message id
        | None -> Printf.sprintf "%s (at quiesce)" v.v_message
      in
      (v.v_monitor, msg))
    vs
