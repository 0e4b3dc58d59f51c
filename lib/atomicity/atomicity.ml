open Atomrep_history
open Atomrep_spec

type property = Static | Hybrid | Dynamic

let property_name = function
  | Static -> "static"
  | Hybrid -> "hybrid"
  | Dynamic -> "dynamic"

let all_properties = [ Static; Hybrid; Dynamic ]

type failure = {
  order : Action.t list;
  serial : Event.t list;
  reason : string;
}

let pp_failure ppf { order; serial; reason } =
  Format.fprintf ppf "%s: order [%a], serialization [%a]" reason
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Action.pp)
    order
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Event.pp)
    serial

(* A set of placed actions, as indices into the walk's base order: every
   index below [p] is placed, plus the ascending [extra] indices above it.
   Placements mostly extend the prefix, so keys stay a few words long. *)
type placed = { p : int; extra : int list }

let is_placed { p; extra } i = i < p || List.mem i extra

let place ({ p; extra } as set) i =
  let rec absorb p = function
    | j :: rest when j = p -> absorb (p + 1) rest
    | extra -> { p; extra }
  in
  if i = p then absorb (p + 1) extra
  else { set with extra = List.merge compare [ i ] extra }

(* Which unplaced action may be placed next — the only part of the walk
   that differs per property. [Any_order] walks the committed actions
   alone, in every order. *)
type rule = Begin_order | Commit_order | Precedes | Any_order

let rule_of = function Static -> Begin_order | Hybrid -> Commit_order | Dynamic -> Precedes

(* The walk's actions, which exclude those that executed nothing: no
   serialization sees them. [base] is Begin order for [Begin_order] and
   commit order followed by the actives in Begin order otherwise, so
   there the first [committed] indices are the committed actions. *)
type walk = {
  base : Action.t array;
  events : Event.t list array;
  committed : int;
  next : placed -> (int * placed) list;  (** eligible placements *)
}

let walk rule h =
  let counts = Behavioral.precedes_counts h in
  let executed a = Action.Map.mem a counts in
  let committed = List.filter executed (Behavioral.committed h) in
  let base =
    Array.of_list
      (match rule with
       | Begin_order -> List.filter executed (Behavioral.begin_order h)
       | Commit_order | Precedes -> committed @ List.filter executed (Behavioral.active h)
       | Any_order -> committed)
  in
  let n = Array.length base and nc = List.length committed in
  let unplaced set =
    List.filter (fun i -> not (is_placed set i)) (List.init (n - set.p) (( + ) set.p))
  in
  let next =
    match rule with
    | Begin_order ->
      (* The next committed action in Begin order, or an active that
         began before it. The actives skipped on the way are out of this
         order for good, so the set key is just the position reached. *)
      let committed = Action.Set.of_list committed in
      let is_committed = Array.map (fun a -> Action.Set.mem a committed) base in
      fun { p; _ } ->
        let rec upto i =
          if i >= n then []
          else
            (i, { p = i + 1; extra = [] })
            :: (if is_committed.(i) then [] else upto (i + 1))
        in
        upto p
    | Commit_order ->
      fun set ->
        List.map
          (fun i -> (i, place set i))
          (if set.p < nc then [ set.p ] else unplaced set)
    | Precedes ->
      (* Precedes is an interval order: an action's predecessors are the
         first [counts] actions of commit order, all placed once the
         placed prefix covers them. So the eligible actions at prefix [p]
         lie in [p, reach.(p)], where [reach.(p)] is the last index whose
         predecessor count is at most [p]: a prefix maximum over counts. *)
      let preds = Array.map (fun a -> Action.Map.find a counts) base in
      let reach = Array.make (n + 1) (-1) in
      Array.iteri (fun i k -> reach.(k) <- max reach.(k) i) preds;
      for k = 1 to n do
        reach.(k) <- max reach.(k) reach.(k - 1)
      done;
      fun set ->
        let rec scan i =
          if i > reach.(set.p) then []
          else if preds.(i) <= set.p && not (is_placed set i) then
            (i, place set i) :: scan (i + 1)
          else scan (i + 1)
        in
        scan set.p
    | Any_order -> fun set -> List.map (fun i -> (i, place set i)) (unplaced set)
  in
  let events = Behavioral.events_by_action h in
  let events = Array.map (fun a -> Action.Map.find a events) base in
  { base; events; committed = nc; next }

(* Depth-first over (placed set, spec state), expanding each pair once.
   Returns the distinct states reached at every placed set, each with the
   reversed path that first reached it; or, unless [prune], the reversed
   path ending in the first illegal placement. With [prune], an illegal
   placement just ends its branch. *)
let search ?(prune = false) spec w =
  let reached = Hashtbl.create 64 in
  let exception Illegal of int list in
  let rec visit set state path =
    let states = Option.value (Hashtbl.find_opt reached set) ~default:[] in
    if not (List.exists (fun (s, _) -> Value.equal s state) states) then begin
      Hashtbl.replace reached set ((state, path) :: states);
      List.iter
        (fun (i, set') ->
          let path = i :: path in
          match
            List.fold_left
              (fun s e -> Option.bind s (fun s -> Serial_spec.apply_event spec s e))
              (Some state) w.events.(i)
          with
          | Some state' -> visit set' state' path
          | None -> if not prune then raise (Illegal path))
        (w.next set)
    end
  in
  match visit { p = 0; extra = [] } spec.Serial_spec.initial [] with
  | () -> Ok reached
  | exception Illegal path -> Error path

let failure w reason path =
  let path = List.rev path in
  {
    order = List.map (fun i -> w.base.(i)) path;
    serial = List.concat_map (fun i -> w.events.(i)) path;
    reason;
  }

let check spec property h =
  let h = Behavioral.strip_aborted h in
  let w = walk (rule_of property) h in
  match search spec w with
  | Error path -> Error (failure w "illegal serialization" path)
  | Ok _ when property <> Dynamic -> Ok ()
  | Ok reached ->
    (* All serializations over one action set must be equivalent: every
       state reached at a set holding all committed actions must be
       equivalent to the first one reached there. *)
    let depth = List.length (Behavioral.all_events h) + 2 in
    let inequivalent (set, states) =
      match List.rev states with
      | (first, _) :: rest when set.p >= w.committed ->
        List.find_map
          (fun (s, path) ->
            if Serial_spec.state_equiv spec ~depth first s then None else Some path)
          rest
      | _ -> None
    in
    (match Seq.find_map inequivalent (Hashtbl.to_seq reached) with
     | Some path -> Error (failure w "inequivalent serializations" path)
     | None -> Ok ())

let serializable spec h =
  let w = walk Any_order (Behavioral.strip_aborted h) in
  match search ~prune:true spec w with
  | Ok reached -> Hashtbl.mem reached { p = w.committed; extra = [] }
  | Error _ -> false

let satisfies spec property h = Result.is_ok (check spec property h)
let is_static_atomic spec h = satisfies spec Static h
let is_hybrid_atomic spec h = satisfies spec Hybrid h
let is_dynamic_atomic spec h = satisfies spec Dynamic h
