open Atomrep_history
open Atomrep_spec
open Atomrep_clock
open Atomrep_cc
open Atomrep_replica

let check_bool = Alcotest.(check bool)

let ts n = { Lamport.Timestamp.counter = n; site = 0 }
let a = Action.of_string "A"
let b = Action.of_string "B"

(* --- Conflict tables --- *)

let test_conflict_table_projection () =
  let table = Conflict_table.of_relation Atomrep_core.Paper.prom_hybrid_relation in
  check_bool "Seal depends on Write" true
    (Conflict_table.depends table Prom.seal_inv (Prom.write "x"));
  check_bool "Write does not depend on Write" false
    (Conflict_table.depends table (Prom.write_inv "x") (Prom.write "y"));
  check_bool "Write related to Seal" true
    (Conflict_table.related table (Prom.write_inv "x") Prom.seal);
  check_bool "ops query" true (Conflict_table.related_ops table "Read" "Seal");
  check_bool "write/write unrelated" false (Conflict_table.related_ops table "Write" "Write")

(* --- Generic scheduler exercises, instantiated per scheme --- *)

let exec t action inv =
  match Scheduler.try_operation t action inv with
  | Replicated.Done res -> res
  | Replicated.Blocked_on blocker ->
    Alcotest.failf "unexpected block on %s" (Action.to_string blocker)
  | Replicated.(Rejected why | Unavailable why) -> Alcotest.failf "unexpected: %s" why

let test_serial_execution scheme () =
  let t = Scheduler.create scheme Queue_type.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  let r1 = exec t a (Queue_type.enq_inv "x") in
  check_bool "enq ok" true (Event.Response.is_ok r1);
  Scheduler.commit t a ~ts:(ts 2);
  Scheduler.begin_action t b ~ts:(ts 3);
  let r2 = exec t b Queue_type.deq_inv in
  check_bool "deq sees x" true
    (Event.Response.equal r2 (Event.Response.ok [ Value.str "x" ]));
  Scheduler.commit t b ~ts:(ts 4);
  check_bool "well-formed history" true (Behavioral.well_formed (Scheduler.history t))

let test_abort_invisible scheme () =
  let t = Scheduler.create scheme Queue_type.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  ignore (exec t a (Queue_type.enq_inv "x"));
  Scheduler.abort t a;
  Scheduler.begin_action t b ~ts:(ts 2);
  let r = exec t b Queue_type.deq_inv in
  check_bool "deq finds empty queue" true
    (Event.Response.equal r (Event.Response.exn "Empty"))

let test_history_satisfies_property scheme () =
  let t = Scheduler.create scheme Queue_type.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  Scheduler.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Queue_type.enq_inv "x"));
  ignore (Scheduler.try_operation t b Queue_type.deq_inv);
  Scheduler.commit t a ~ts:(ts 3);
  ignore (Scheduler.try_operation t b Queue_type.deq_inv);
  Scheduler.commit t b ~ts:(ts 4);
  check_bool "history satisfies scheme property" true
    (Atomrep_atomicity.Atomicity.satisfies Queue_type.spec
       (Replicated.property_of_scheme scheme) (Scheduler.history t))

(* --- Scheme-specific behaviour --- *)

let test_locking_blocks_nonconmuting () =
  let t = Scheduler.create Replicated.Locking Queue_type.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  Scheduler.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Queue_type.enq_inv "x"));
  (* Enq(y) does not commute with Enq(x): blocked under locking. *)
  (match Scheduler.try_operation t b (Queue_type.enq_inv "y") with
   | Replicated.Blocked_on blocker -> check_bool "blocked on A" true (Action.equal blocker a)
   | Replicated.Done _ -> Alcotest.fail "locking must block non-commuting enq"
   | Replicated.(Rejected why | Unavailable why) -> Alcotest.failf "unexpected: %s" why);
  Scheduler.commit t a ~ts:(ts 3);
  (* After commit the lock is gone. *)
  ignore (exec t b (Queue_type.enq_inv "y"))

let test_hybrid_allows_concurrent_enqs () =
  let t = Scheduler.create Replicated.Hybrid Queue_type.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  Scheduler.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Queue_type.enq_inv "x"));
  (* Under hybrid atomicity Enq/Enq is not a dependency: no block. *)
  ignore (exec t b (Queue_type.enq_inv "y"));
  Scheduler.commit t b ~ts:(ts 3);
  Scheduler.commit t a ~ts:(ts 4);
  (* Commit order B, A: a reader must now see y first. *)
  Scheduler.begin_action t (Action.of_string "C") ~ts:(ts 5);
  let r = exec t (Action.of_string "C") Queue_type.deq_inv in
  check_bool "deq sees y (commit order)" true
    (Event.Response.equal r (Event.Response.ok [ Value.str "y" ]));
  check_bool "hybrid atomic" true
    (Atomrep_atomicity.Atomicity.is_hybrid_atomic Queue_type.spec (Scheduler.history t))

let test_hybrid_blocks_deq_on_enq () =
  let t = Scheduler.create Replicated.Hybrid Queue_type.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  Scheduler.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Queue_type.enq_inv "x"));
  match Scheduler.try_operation t b Queue_type.deq_inv with
  | Replicated.Blocked_on _ -> ()
  | Replicated.Done _ -> Alcotest.fail "deq must block on uncommitted enq"
  | Replicated.(Rejected why | Unavailable why) -> Alcotest.failf "unexpected: %s" why

let test_hybrid_prom_concurrent_writes () =
  (* The paper's PROM payoff: concurrent writers never block each other
     under hybrid atomicity. *)
  let t = Scheduler.create Replicated.Hybrid Prom.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  Scheduler.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Prom.write_inv "x"));
  ignore (exec t b (Prom.write_inv "y"));
  Scheduler.commit t a ~ts:(ts 3);
  Scheduler.commit t b ~ts:(ts 4);
  check_bool "hybrid atomic" true
    (Atomrep_atomicity.Atomicity.is_hybrid_atomic Prom.spec (Scheduler.history t))

let test_locking_prom_writes_block () =
  let t = Scheduler.create Replicated.Locking Prom.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  Scheduler.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Prom.write_inv "x"));
  match Scheduler.try_operation t b (Prom.write_inv "y") with
  | Replicated.Blocked_on _ -> ()
  | Replicated.Done _ -> Alcotest.fail "locking must block concurrent writes"
  | Replicated.(Rejected why | Unavailable why) -> Alcotest.failf "unexpected: %s" why

let test_static_late_writer_rejected () =
  let t = Scheduler.create Replicated.Static Register.spec in
  (* B (later timestamp) reads first; A (earlier) then tries to write:
     the write would invalidate B's read. *)
  Scheduler.begin_action t a ~ts:(ts 1);
  Scheduler.begin_action t b ~ts:(ts 5);
  ignore (exec t b Register.read_inv);
  Scheduler.commit t b ~ts:(ts 6);
  match Scheduler.try_operation t a (Register.write_inv "x") with
  | Replicated.Rejected _ -> ()
  | Replicated.(Done _ | Unavailable _) -> Alcotest.fail "late write must be rejected"
  | Replicated.Blocked_on _ -> Alcotest.fail "static schemes do not block here"

let test_static_commuting_late_op_accepted () =
  let t = Scheduler.create Replicated.Static Counter.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  Scheduler.begin_action t b ~ts:(ts 5);
  ignore (exec t b Counter.inc_inv);
  Scheduler.commit t b ~ts:(ts 6);
  (* An earlier-timestamped Inc slots in without invalidating B's Inc. *)
  ignore (exec t a Counter.inc_inv);
  Scheduler.commit t a ~ts:(ts 7);
  check_bool "static atomic" true
    (Atomrep_atomicity.Atomicity.is_static_atomic Counter.spec (Scheduler.history t))

let test_static_read_positions () =
  let t = Scheduler.create Replicated.Static Register.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  ignore (exec t a (Register.write_inv "x"));
  Scheduler.commit t a ~ts:(ts 2);
  (* A later reader sees x. *)
  Scheduler.begin_action t b ~ts:(ts 3);
  let r = exec t b Register.read_inv in
  check_bool "read sees committed write" true
    (Event.Response.equal r (Event.Response.ok [ Value.str "x" ]))

let test_scheduler_rejects_unknown_action () =
  let t = Scheduler.create Replicated.Locking Queue_type.spec in
  Alcotest.check_raises "unknown action"
    (Invalid_argument "Scheduler: unknown action Z") (fun () ->
      ignore (Scheduler.try_operation t (Action.of_string "Z") Queue_type.deq_inv))

let test_scheduler_rejects_duplicate_begin () =
  let t = Scheduler.create Replicated.Locking Queue_type.spec in
  Scheduler.begin_action t a ~ts:(ts 1);
  Alcotest.check_raises "duplicate begin"
    (Invalid_argument "Scheduler: duplicate Begin for A") (fun () ->
      Scheduler.begin_action t a ~ts:(ts 2))

(* --- On-line static atomicity: every commit/abort outcome --- *)

(* Three shapes that a static validation over the single timeline in
   which every active action commits admitted. Actions A, B, C begin in
   that order; the steps run as listed, and the last one must be refused,
   because one of the active actions aborting would make an earlier
   response illegal. The history must be static atomic after every
   step, the refused one and the abort it forces included. *)
let static_shape spec steps () =
  let t = Scheduler.create Replicated.Static spec in
  List.iteri
    (fun i name -> Scheduler.begin_action t (Action.of_string name) ~ts:(ts (i + 1)))
    [ "A"; "B"; "C" ];
  let static_atomic what =
    match
      Atomrep_atomicity.Atomicity.check spec Atomrep_atomicity.Atomicity.Static
        (Scheduler.history t)
    with
    | Ok () -> ()
    | Error f ->
      Alcotest.failf "%s: %a" what Atomrep_atomicity.Atomicity.pp_failure f
  in
  let rec go = function
    | [] -> ()
    | [ (name, inv, _) ] ->
      let a = Action.of_string name in
      (match Scheduler.try_operation t a inv with
       | Replicated.Rejected _ -> Scheduler.abort t a
       | Replicated.Done res ->
         Alcotest.failf "%s %a admitted with %a" name Event.Invocation.pp inv
           Event.Response.pp res
       | Replicated.(Blocked_on _ | Unavailable _) ->
         Alcotest.failf "%s %a not refused" name Event.Invocation.pp inv);
      static_atomic "after the refusal"
    | (name, inv, want) :: rest ->
      let got = exec t (Action.of_string name) inv in
      check_bool
        (Format.asprintf "%s %a returns %a" name Event.Invocation.pp inv Event.Response.pp
           want)
        true (Event.Response.equal got want);
      static_atomic (Format.asprintf "after %s %a" name Event.Invocation.pp inv);
      go rest
  in
  go steps

let ok = Event.Response.ok []

(* If A aborts, C's Deq must return y. *)
let test_static_queue_shape =
  static_shape Queue_type.spec
    [
      ("C", Queue_type.enq_inv "x", ok);
      ("C", Queue_type.deq_inv, Event.Response.ok [ Value.str "x" ]);
      ("A", Queue_type.enq_inv "x", ok);
      ("B", Queue_type.enq_inv "y", ok);
    ]

(* If B aborts, C's Member must return true. *)
let test_static_rset_shape =
  static_shape Rset.spec
    [
      ("C", Rset.member_inv "x", (Rset.member "x" false).Event.res);
      ("B", Rset.remove_inv "x", (Rset.remove "x").Event.res);
      ("A", Rset.insert_inv "x", (Rset.insert "x").Event.res);
    ]

(* If B aborts, C's Shift must succeed. *)
let test_static_flagset_shape =
  static_shape Flag_set.spec
    [
      ("C", Flag_set.shift_inv 1, (Flag_set.shift_disabled 1).Event.res);
      ("B", Flag_set.close_inv, (Flag_set.close false).Event.res);
      ("A", Flag_set.open_inv, Flag_set.open_ok.Event.res);
    ]

(* --- The one-site rule against the schedulers it replaced --- *)

(* The three single-site schedulers as they stood before the front-end's
   rule became the only copy, with the static one validating under every
   commit/abort outcome of the other active actions (on-line static
   atomicity; the original checked only the outcome where all commit):
   the reference the one-repository scheduler must agree with, step by
   step, on every outcome and response. *)
module Reference = struct
  open Atomrep_core

  type outcome =
    | Executed of Event.Response.t
    | Blocked of Action.t
    | Rejected of string

  let pp_outcome ppf = function
    | Executed res -> Format.fprintf ppf "Executed %a" Event.Response.pp res
    | Blocked a -> Format.fprintf ppf "Blocked on %a" Action.pp a
    | Rejected why -> Format.fprintf ppf "Rejected (%s)" why

  module type S = sig
    type t

    val scheme_name : string
    val create : Serial_spec.t -> t
    val begin_action : t -> Action.t -> ts:Lamport.Timestamp.t -> unit
    val try_operation : t -> Action.t -> Event.Invocation.t -> outcome
    val commit : t -> Action.t -> ts:Lamport.Timestamp.t -> unit
    val abort : t -> Action.t -> unit
    val history : t -> Behavioral.t
  end

  type status = Active | Committed of Lamport.Timestamp.t | Aborted

  type action_state = {
    begin_ts : Lamport.Timestamp.t;
    mutable events : Event.t list; (* execution order *)
    mutable status : status;
  }

  type base = {
    spec : Serial_spec.t;
    table : Conflict_table.t;
    actions : action_state Action.Map.t ref;
    mutable order : Action.t list; (* begin order *)
    mutable committed_serial : Event.t list; (* commit-timestamp order *)
    mutable entries : Behavioral.entry list; (* reversed *)
  }

  let analysis_len = 4

  let make_base spec table =
    { spec; table; actions = ref Action.Map.empty; order = []; committed_serial = [];
      entries = [] }

  let state_of base a =
    match Action.Map.find_opt a !(base.actions) with
    | Some s -> s
    | None -> invalid_arg ("Scheduler: unknown action " ^ Action.to_string a)

  let base_begin base a ~ts =
    if Action.Map.mem a !(base.actions) then
      invalid_arg ("Scheduler: duplicate Begin for " ^ Action.to_string a);
    base.actions := Action.Map.add a { begin_ts = ts; events = []; status = Active } !(base.actions);
    base.order <- base.order @ [ a ];
    base.entries <- Behavioral.Begin a :: base.entries

  let require_active base a =
    let st = state_of base a in
    match st.status with
    | Active -> st
    | Committed _ | Aborted ->
      invalid_arg ("Scheduler: action not active: " ^ Action.to_string a)

  let base_commit base a ~ts =
    let st = require_active base a in
    st.status <- Committed ts;
    base.committed_serial <- base.committed_serial @ st.events;
    base.entries <- Behavioral.Commit a :: base.entries

  let base_abort base a =
    let st = require_active base a in
    st.status <- Aborted;
    base.entries <- Behavioral.Abort a :: base.entries

  let base_history base = List.rev base.entries

  let record base st a ev =
    st.events <- st.events @ [ ev ];
    base.entries <- Behavioral.Exec (ev, a) :: base.entries

  (* First other active action holding an event that the predicate flags. *)
  let find_conflict base a flagged =
    List.find_opt
      (fun b ->
        (not (Action.equal a b))
        &&
        let st = state_of base b in
        (match st.status with Active -> true | Committed _ | Aborted -> false)
        && List.exists flagged st.events)
      base.order

  let run_state spec events =
    List.fold_left
      (fun state ev ->
        match state with
        | None -> None
        | Some s -> Serial_spec.apply_event spec s ev)
      (Some spec.Serial_spec.initial) events

  (* Shared shape of the two lock-based schemes: a conflict predicate guards
     the operation, and the response is chosen against the committed prefix
     (in commit-timestamp order) extended with the action's own events. *)
  let lock_based_try base a inv ~related =
    let st = require_active base a in
    match find_conflict base a (fun e -> related inv e) with
    | Some b -> Blocked b
    | None ->
      (match run_state base.spec (base.committed_serial @ st.events) with
       | None ->
         (* The committed prefix is maintained legal; own events extend it
            legally by construction. *)
         assert false
       | Some state ->
         (match Serial_spec.responses base.spec state inv with
          | [] -> Rejected "no legal response"
          | (res, _) :: _ ->
            let ev = Event.make inv res in
            record base st a ev;
            Executed res))

  module Locking = struct
    type t = base

    let scheme_name = "locking"

    let create spec =
      let relation = Dynamic_dep.minimal spec ~max_len:analysis_len in
      make_base spec (Conflict_table.of_relation relation)

    let begin_action = base_begin

    let try_operation t a inv =
      (* Conflict = non-commutativity: the dynamic relation is symmetric, so
         [depends] suffices, but the symmetric closure is used for clarity. *)
      lock_based_try t a inv ~related:(Conflict_table.related t.table)

    let commit t a ~ts = base_commit t a ~ts
    let abort = base_abort
    let history = base_history
  end

  module Hybrid_ts = struct
    type t = base

    let scheme_name = "hybrid"

    let create spec =
      (* The minimal static relation is a hybrid dependency relation
         (Theorem 4) and is computable in closed form; types whose minimal
         hybrid relations are strictly smaller (e.g. PROM) get the benefit
         through the projection: pairs like Write/Write are absent. *)
      let relation = Static_dep.minimal spec ~max_len:analysis_len in
      make_base spec (Conflict_table.of_relation relation)

    let begin_action = base_begin

    let try_operation t a inv =
      lock_based_try t a inv ~related:(Conflict_table.related t.table)

    let commit t a ~ts = base_commit t a ~ts
    let abort = base_abort
    let history = base_history
  end

  module Static_ts = struct
    type t = base

    let scheme_name = "static"

    let create spec =
      let relation = Static_dep.minimal spec ~max_len:analysis_len in
      make_base spec (Conflict_table.of_relation relation)

    let begin_action = base_begin

    (* Actions ordered by Begin timestamp; [a]'s new event is inserted at
       [a]'s position and the whole timeline must stay legal. *)
    let timeline t ~before_of ~including =
      let ordered =
        List.filter
          (fun b ->
            let st = state_of t b in
            (match st.status with Aborted -> false | Active | Committed _ -> true)
            && including b st)
          t.order
        |> List.sort (fun b c ->
               Lamport.Timestamp.compare (state_of t b).begin_ts (state_of t c).begin_ts)
      in
      List.concat_map (fun b -> before_of b (state_of t b)) ordered

    let try_operation t a inv =
      let st = require_active t a in
      let my_ts = st.begin_ts in
      (* Block on related tentative events of earlier-timestamped actions:
         the operation's outcome depends on whether they commit. *)
      let earlier_related e_owner =
        Lamport.Timestamp.compare (state_of t e_owner).begin_ts my_ts < 0
      in
      let blocking =
        List.find_opt
          (fun b ->
            (not (Action.equal a b))
            &&
            let stb = state_of t b in
            (match stb.status with Active -> true | Committed _ | Aborted -> false)
            && earlier_related b
            && List.exists (fun e -> Conflict_table.related t.table inv e) stb.events)
          t.order
      in
      match blocking with
      | Some b -> Blocked b
      | None ->
        (* Response from the committed prefix strictly before [a] plus [a]'s
           own events. *)
        let prefix =
          timeline t
            ~including:(fun b stb ->
              Action.equal a b
              || (match stb.status with
                  | Committed _ -> Lamport.Timestamp.compare stb.begin_ts my_ts < 0
                  | Active | Aborted -> false))
            ~before_of:(fun _ stb -> stb.events)
        in
        (match run_state t.spec prefix with
         | None -> Rejected "inconsistent timeline"
         | Some state ->
           let candidates = Serial_spec.responses t.spec state inv in
           (* Validate each candidate against the timeline with the event
              in place, under every commit/abort outcome of the other
              active actions (on-line static atomicity); reject the
              operation (forcing an abort) if none survives — the
              timestamp arrived "too late". *)
           let active =
             List.filter
               (fun b ->
                 (not (Action.equal a b))
                 && match (state_of t b).status with
                    | Active -> true
                    | Committed _ | Aborted -> false)
               t.order
           in
           let rec outcomes = function
             | [] -> [ [] ]
             | b :: rest ->
               List.concat_map (fun committing -> [ committing; b :: committing ]) (outcomes rest)
           in
           let with_ev ev committing =
             timeline t
               ~including:(fun b stb ->
                 Action.equal a b
                 || (match stb.status with
                     | Committed _ -> true
                     | Active -> List.exists (Action.equal b) committing
                     | Aborted -> false))
               ~before_of:(fun b stb ->
                 if Action.equal a b then stb.events @ [ ev ] else stb.events)
           in
           let viable =
             List.find_opt
               (fun (res, _) ->
                 let ev = Event.make inv res in
                 List.for_all
                   (fun committing -> Option.is_some (run_state t.spec (with_ev ev committing)))
                   (outcomes active))
               candidates
           in
           (match viable with
            | None -> Rejected "timestamp order violation"
            | Some (res, _) ->
              let ev = Event.make inv res in
              record t st a ev;
              Executed res))

    let commit t a ~ts = base_commit t a ~ts
    let abort = base_abort
    let history = base_history
  end
end

let reference_of = function
  | Replicated.Locking -> (module Reference.Locking : Reference.S)
  | Replicated.Static -> (module Reference.Static_ts)
  | Replicated.Hybrid -> (module Reference.Hybrid_ts)

(* Drive the reference and the one-site scheduler through the same random
   rounds: each round interleaves 2-4 fresh actions over 16 steps, then
   aborts the ones still active, so later rounds start from the committed
   state the earlier ones left. Every step must give the same outcome
   constructor and response, and the histories must be identical. The
   named blocker may differ (the scheduler names the first conflicting entry
   in entry-timestamp order, the reference the first conflicting action in
   Begin order). Returns the count of blocked steps and of those naming
   different blockers. *)
let agree_with_reference scheme spec ~seed ~rounds =
  let module R = (val reference_of scheme) in
  let r = R.create spec and t = Scheduler.create scheme spec in
  let rng = Atomrep_stats.Rng.create seed in
  let clock = ref 0 in
  let tick () =
    incr clock;
    ts !clock
  in
  let blocked = ref 0 and blocker_diffs = ref 0 in
  let where x =
    Printf.sprintf "%s %s, action %s" spec.Serial_spec.name
      (Replicated.scheme_name scheme) (Action.to_string x)
  in
  for round = 0 to rounds - 1 do
    let n_actions = 2 + Atomrep_stats.Rng.int rng 3 in
    let actions = Array.init n_actions (fun i -> Action.of_int ((4 * round) + i)) in
    let status = Array.make n_actions `Fresh in
    let abort i =
      R.abort r actions.(i);
      Scheduler.abort t actions.(i);
      status.(i) <- `Done
    in
    for _ = 1 to 16 do
      let i = Atomrep_stats.Rng.int rng n_actions in
      let x = actions.(i) in
      match status.(i) with
      | `Fresh ->
        let ts = tick () in
        R.begin_action r x ~ts;
        Scheduler.begin_action t x ~ts;
        status.(i) <- `Active
      | `Active ->
        (match Atomrep_stats.Rng.int rng 4 with
         | 0 ->
           let ts = tick () in
           R.commit r x ~ts;
           Scheduler.commit t x ~ts;
           status.(i) <- `Done
         | 1 -> abort i
         | _ ->
           let inv = Atomrep_stats.Rng.pick_list rng spec.Serial_spec.invocations in
           (match (R.try_operation r x inv, Scheduler.try_operation t x inv) with
            | Reference.Executed r1, Replicated.Done r2 when Event.Response.equal r1 r2 -> ()
            | Reference.Blocked b1, Replicated.Blocked_on b2 ->
              incr blocked;
              if not (Action.equal b1 b2) then incr blocker_diffs
            | Reference.Rejected _, Replicated.Rejected _ -> abort i
            | o1, o2 ->
              Alcotest.failf "%s, %a: reference %a, scheduler %s" (where x)
                Event.Invocation.pp inv Reference.pp_outcome o1
                (match o2 with
                 | Replicated.Done res -> Format.asprintf "Done %a" Event.Response.pp res
                 | Replicated.Blocked_on b -> "Blocked_on " ^ Action.to_string b
                 | Replicated.Rejected why | Replicated.Unavailable why -> why)))
      | `Done -> ()
    done;
    Array.iteri (fun i st -> if st = `Active then abort i) status
  done;
  let show h = Format.asprintf "%a" Behavioral.pp h in
  Alcotest.(check string)
    (spec.Serial_spec.name ^ " " ^ Replicated.scheme_name scheme ^ " history")
    (show (R.history r)) (show (Scheduler.history t));
  (!blocked, !blocker_diffs)

let test_agrees_with_reference () =
  let blocked = ref 0 and diffs = ref 0 in
  List.iteri
    (fun seed (_, spec) ->
      List.iter
        (fun scheme ->
          let b, d = agree_with_reference scheme spec ~seed ~rounds:50 in
          blocked := !blocked + b;
          diffs := !diffs + d)
        Replicated.[ Locking; Static; Hybrid ])
    Type_registry.all;
  Printf.printf "blocked steps: %d, naming a different blocker: %d\n" !blocked !diffs

let per_scheme name scheme =
  [
    Alcotest.test_case (name ^ ": serial execution") `Quick (test_serial_execution scheme);
    Alcotest.test_case (name ^ ": aborts invisible") `Quick (test_abort_invisible scheme);
    Alcotest.test_case
      (name ^ ": history satisfies property")
      `Quick
      (test_history_satisfies_property scheme);
  ]

let suites =
  [
    ( "concurrency control",
      [
        Alcotest.test_case "conflict table projection" `Quick test_conflict_table_projection;
      ]
      @ per_scheme "locking" Replicated.Locking
      @ per_scheme "static" Replicated.Static
      @ per_scheme "hybrid" Replicated.Hybrid
      @ [
          Alcotest.test_case "locking blocks non-commuting" `Quick test_locking_blocks_nonconmuting;
          Alcotest.test_case "hybrid allows concurrent enqs" `Quick test_hybrid_allows_concurrent_enqs;
          Alcotest.test_case "hybrid blocks deq on enq" `Quick test_hybrid_blocks_deq_on_enq;
          Alcotest.test_case "hybrid PROM concurrent writes" `Quick test_hybrid_prom_concurrent_writes;
          Alcotest.test_case "locking PROM writes block" `Quick test_locking_prom_writes_block;
          Alcotest.test_case "static rejects late writer" `Quick test_static_late_writer_rejected;
          Alcotest.test_case "static accepts commuting late op" `Quick test_static_commuting_late_op_accepted;
          Alcotest.test_case "static reads see commits" `Quick test_static_read_positions;
          Alcotest.test_case "static refuses the Queue shape" `Quick test_static_queue_shape;
          Alcotest.test_case "static refuses the RSet shape" `Quick test_static_rset_shape;
          Alcotest.test_case "static refuses the FlagSet shape" `Quick
            test_static_flagset_shape;
          Alcotest.test_case "unknown action" `Quick test_scheduler_rejects_unknown_action;
          Alcotest.test_case "duplicate begin" `Quick test_scheduler_rejects_duplicate_begin;
          Alcotest.test_case "one-site rule agrees with the reference schedulers" `Quick
            test_agrees_with_reference;
        ] );
  ]
