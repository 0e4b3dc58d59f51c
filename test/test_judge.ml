(* The run judges' kernels. The list scans the history helpers used to be
   (one rescan of the history per action) and the serialization walk
   built on them are kept here as the reference: every indexed kernel
   must return exactly what its scan returns, and [Atomicity.check] the
   same verdict and witness as the walk over the scans. A synthetic
   8,000-action history checks that the judges finish at that size. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_atomicity
open Atomrep_replica
module Rng = Atomrep_stats.Rng

module Reference = struct
  let aborted t =
    List.filter_map (function Behavioral.Abort a -> Some a | _ -> None) t

  let is_aborted t a = List.exists (Action.equal a) (aborted t)

  let active t =
    let finished =
      List.filter_map
        (function Behavioral.Commit a | Behavioral.Abort a -> Some a | _ -> None)
        t
    in
    List.filter (fun a -> not (List.exists (Action.equal a) finished)) (Behavioral.actions t)

  let begin_order t = List.filter (fun a -> not (is_aborted t a)) (Behavioral.actions t)

  let events_of t a =
    List.filter_map
      (function Behavioral.Exec (e, a') when Action.equal a a' -> Some e | _ -> None)
      t

  let serialize t order = List.concat_map (events_of t) order

  let action_of = function
    | Behavioral.Begin a | Behavioral.Exec (_, a) | Behavioral.Commit a | Behavioral.Abort a ->
      a

  let strip_aborted t =
    let dead = aborted t in
    List.filter (fun entry -> not (List.exists (Action.equal (action_of entry)) dead)) t

  (* The serialization walk over the scans, with the Precedes rule
     filtering every unplaced index at every visit. *)
  type placed = { p : int; extra : int list }

  let is_placed { p; extra } i = i < p || List.mem i extra

  let place ({ p; extra } as set) i =
    let rec absorb p = function
      | j :: rest when j = p -> absorb (p + 1) rest
      | extra -> { p; extra }
    in
    if i = p then absorb (p + 1) extra
    else { set with extra = List.merge compare [ i ] extra }

  type rule = Begin_order | Commit_order | Precedes | Any_order

  type walk = {
    base : Action.t array;
    events : Event.t list array;
    committed : int;
    next : placed -> (int * placed) list;
  }

  let walk rule h =
    let counts = Behavioral.precedes_counts h in
    let executed a = Action.Map.mem a counts in
    let committed = List.filter executed (Behavioral.committed h) in
    let base =
      Array.of_list
        (match rule with
         | Begin_order -> List.filter executed (begin_order h)
         | Commit_order | Precedes -> committed @ List.filter executed (active h)
         | Any_order -> committed)
    in
    let n = Array.length base and nc = List.length committed in
    let unplaced set =
      List.filter (fun i -> not (is_placed set i)) (List.init (n - set.p) (( + ) set.p))
    in
    let next =
      match rule with
      | Begin_order ->
        let is_committed = Array.map (fun a -> List.exists (Action.equal a) committed) base in
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
          List.map (fun i -> (i, place set i)) (if set.p < nc then [ set.p ] else unplaced set)
      | Precedes ->
        let preds = Array.map (fun a -> Action.Map.find a counts) base in
        fun set ->
          List.filter_map
            (fun i -> if preds.(i) <= set.p then Some (i, place set i) else None)
            (unplaced set)
      | Any_order -> fun set -> List.map (fun i -> (i, place set i)) (unplaced set)
    in
    { base; events = Array.map (events_of h) base; committed = nc; next }

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
      Atomicity.order = List.map (fun i -> w.base.(i)) path;
      serial = List.concat_map (fun i -> w.events.(i)) path;
      reason;
    }

  let rule_of = function
    | Atomicity.Static -> Begin_order
    | Atomicity.Hybrid -> Commit_order
    | Atomicity.Dynamic -> Precedes

  let check spec property h =
    let h = strip_aborted h in
    let w = walk (rule_of property) h in
    match search spec w with
    | Error path -> Error (failure w "illegal serialization" path)
    | Ok _ when property <> Atomicity.Dynamic -> Ok ()
    | Ok reached ->
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
    let w = walk Any_order (strip_aborted h) in
    match search ~prune:true spec w with
    | Ok reached -> Hashtbl.mem reached { p = w.committed; extra = [] }
    | Error _ -> false
end

(* Insert [entries], in order, at random positions of [h]. *)
let sprinkle rng entries h =
  let len = List.length h in
  let at = List.sort compare (List.map (fun _ -> Rng.int rng (len + 1)) entries) in
  let rec go i at entries h =
    match at, entries, h with
    | j :: at, e :: entries, _ when j = i -> e :: go i at entries h
    | _, _, x :: h -> x :: go (i + 1) at entries h
    | _, entries, [] -> entries
  in
  go 0 at entries h

(* A random history (interleaved, a serial execution, or a serial
   execution whose Commits all move to the end), plus three actions placed
   at random: one that executes and aborts, one that commits having
   executed nothing, and one that executes and stays active. *)
let kernel_history spec seed =
  let rng = Rng.create seed in
  let module H = Atomrep_workload.Histories in
  let h =
    match seed mod 3 with
    | 0 -> H.random rng spec ~max_actions:5 ~max_events:6
    | 1 -> H.random_atomic rng spec ~max_actions:5 ~max_events:6
    | _ ->
      let commits, rest =
        List.partition
          (function Behavioral.Commit _ -> true | _ -> false)
          (H.random_atomic rng spec ~max_actions:5 ~max_events:6)
      in
      rest @ commits
  in
  let universe = Array.of_list (Serial_spec.event_universe spec ~max_len:3) in
  let event () = Rng.pick rng universe in
  let aborter = Action.of_int 20 and idle = Action.of_int 21 and open_ = Action.of_int 22 in
  h
  |> sprinkle rng Behavioral.[ Begin aborter; Exec (event (), aborter); Abort aborter ]
  |> sprinkle rng Behavioral.[ Begin idle; Commit idle ]
  |> sprinkle rng Behavioral.[ Begin open_; Exec (event (), open_) ]

let kernel_specs = [ Queue_type.spec; Prom.spec; Counter.spec ]

let kernels_agree (spec, seed) =
  let h = kernel_history spec seed in
  let actions = Behavioral.actions h in
  let by = Behavioral.events_by_action h in
  let events_of a = Option.value (Action.Map.find_opt a by) ~default:[] in
  let same_actions = List.equal Action.equal in
  let fail what = QCheck2.Test.fail_reportf "%s differs on@.%a" what Behavioral.pp h in
  if not (Behavioral.well_formed h) then fail "well-formedness";
  if Behavioral.strip_aborted h <> Reference.strip_aborted h then fail "strip_aborted";
  if not (same_actions (Behavioral.begin_order h) (Reference.begin_order h)) then
    fail "begin_order";
  if not (same_actions (Behavioral.active h) (Reference.active h)) then fail "active";
  if
    not
      (List.for_all
         (fun a -> List.equal Event.equal (events_of a) (Reference.events_of h a))
         actions
      && Action.Map.for_all (fun _ es -> es <> []) by)
  then fail "events_by_action";
  List.iter
    (fun order ->
      if
        not
          (List.equal Event.equal (Behavioral.serialize h order)
             (Reference.serialize h order))
      then fail "serialize")
    [ actions; List.rev actions; Behavioral.committed h; [ Action.of_int 25 ] ];
  true

let same_verdict r1 r2 =
  match r1, r2 with
  | Ok (), Ok () -> true
  | Error (f1 : Atomicity.failure), Error (f2 : Atomicity.failure) ->
    List.equal Action.equal f1.order f2.order
    && List.equal Event.equal f1.serial f2.serial
    && String.equal f1.reason f2.reason
  | Ok (), Error _ | Error _, Ok () -> false

let walks_agree (spec, seed) =
  let h = kernel_history spec seed in
  List.iter
    (fun p ->
      if not (same_verdict (Atomicity.check spec p h) (Reference.check spec p h)) then
        QCheck2.Test.fail_reportf "%s verdicts differ on@.%a" (Atomicity.property_name p)
          Behavioral.pp h)
    Atomicity.all_properties;
  if not (Bool.equal (Atomicity.serializable spec h) (Reference.serializable spec h)) then
    QCheck2.Test.fail_reportf "serializable differs on@.%a" Behavioral.pp h;
  true

let prop_kernels =
  QCheck2.Test.make ~name:"indexed history kernels equal their list scans" ~count:400
    QCheck2.Gen.(pair (oneofl kernel_specs) nat)
    kernels_agree

let prop_walks =
  QCheck2.Test.make ~name:"Atomicity.check equals the walk over the list scans" ~count:400
    QCheck2.Gen.(pair (oneofl kernel_specs) nat)
    walks_agree

(* The scale history: a queue holding two x's, then 8,000 actions in
   groups of five that begin together, execute in a scrambled order after
   the previous group has finished, and commit in another order. Of a
   group's live members the first and third enqueue x, the second and
   fourth dequeue it, and a fifth executes nothing; every tenth action
   enqueues y and aborts. Every order the properties demand is legal and
   leaves the same queue, so each group is a window of four actions the
   dynamic walk places in all orders. The last group stays active, and
   none of its members aborts. *)
let scale_history ~groups =
  let a i = Action.of_int i in
  let fill = Action.of_string "fill" in
  let prefix =
    Behavioral.
      [
        Begin fill;
        Exec (Queue_type.enq "x", fill);
        Exec (Queue_type.enq "x", fill);
        Commit fill;
      ]
  in
  let group g =
    let member r = a ((5 * g) + r) in
    let aborts r = ((5 * g) + r) mod 10 = 9 && g < groups - 1 in
    let exec r =
      if aborts r then [ Behavioral.Exec (Queue_type.enq "y", member r) ]
      else
        match r with
        | 0 | 2 -> [ Behavioral.Exec (Queue_type.enq "x", member r) ]
        | 1 | 3 -> [ Behavioral.Exec (Queue_type.deq_ok "x", member r) ]
        | _ -> []
    in
    let finish r =
      if g = groups - 1 then []
      else if aborts r then [ Behavioral.Abort (member r) ]
      else [ Behavioral.Commit (member r) ]
    in
    List.map (fun r -> Behavioral.Begin (member r)) [ 0; 1; 2; 3; 4 ]
    @ List.concat_map exec [ 3; 0; 4; 2; 1 ]
    @ List.concat_map finish [ 2; 4; 0; 3; 1 ]
  in
  prefix @ List.concat_map group (List.init groups Fun.id)

let test_scale () =
  let groups = 1600 in
  let h = scale_history ~groups in
  Alcotest.(check int) "actions" 8001 (List.length (Behavioral.actions h));
  Alcotest.(check bool) "well-formed" true (Behavioral.well_formed h);
  (* A last action that dequeues the y no live action enqueued. *)
  let bad = Action.of_string "bad" in
  let h_bad =
    h @ Behavioral.[ Begin bad; Exec (Queue_type.deq_ok "y", bad); Commit bad ]
  in
  List.iter
    (fun p ->
      let name = Atomicity.property_name p in
      Alcotest.(check bool)
        (name ^ " holds") true
        (Atomicity.check Queue_type.spec p h = Ok ());
      match Atomicity.check Queue_type.spec p h_bad with
      | Ok () -> Alcotest.failf "%s: the dequeue of y passed" name
      | Error f ->
        Alcotest.(check string) (name ^ " reason") "illegal serialization" f.reason;
        Alcotest.(check string)
          (name ^ " failing action") "bad"
          (Action.to_string (List.nth f.order (List.length f.order - 1))))
    Atomicity.all_properties;
  let outcome = Runtime.run { Runtime.default_config with n_txns = 1 } in
  List.iter
    (fun scheme ->
      let cfg = { Runtime.default_config with scheme } in
      let judge h =
        Runtime.check_common_order cfg { outcome with Runtime.histories = [ ("queue", h) ] }
      in
      let name = Replicated.scheme_name scheme in
      Alcotest.(check int) (name ^ " common order holds") 0 (List.length (judge h));
      Alcotest.(check int) (name ^ " common order fails") 1 (List.length (judge h_bad)))
    [ Replicated.Static; Replicated.Hybrid; Replicated.Locking ]

let suites =
  [
    ( "judge kernels",
      List.map QCheck_alcotest.to_alcotest [ prop_kernels; prop_walks ]
      @ [ Alcotest.test_case "8,000-action queue history" `Quick test_scale ] );
  ]
