open Atomrep_history
open Atomrep_spec
open Atomrep_atomicity
open Atomrep_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Checkers are expensive to build; construct one per type lazily and share
   across test cases. *)
let prom_checker =
  lazy (Hybrid_dep.make_checker Prom.spec ~max_events:4 ~max_actions:3)

let db_checker =
  lazy (Hybrid_dep.make_checker Double_buffer.spec ~max_events:4 ~max_actions:3)

let flagset_checker =
  lazy
    (Hybrid_dep.make_checker Flag_set.spec ~universe:Paper.flagset_core_universe
       ~max_events:5 ~max_actions:3)

let register_checker =
  lazy (Hybrid_dep.make_checker Register.spec ~max_events:4 ~max_actions:3)

(* Uncached membership over events, decided by [Atomicity.is_hybrid_atomic]
   on each execution prefix: the oracle for the library's interned, cached
   copy. *)
module Reference = struct
  let hybrid_ok spec (config : Event.t Hybrid_dep.config) =
    let action = Action.of_int in
    Atomicity.is_hybrid_atomic spec
      (List.init config.Hybrid_dep.nactions (fun a -> Behavioral.Begin (action a))
      @ List.map (fun (e, a) -> Behavioral.Exec (e, action a)) config.Hybrid_dep.entries
      @ List.map (fun a -> Behavioral.Commit (action a)) config.Hybrid_dep.commit_order)

  let empty_config = { Hybrid_dep.entries = []; commit_order = []; nactions = 0 }

  let step config = function
    | Hybrid_dep.Exec (e, a) ->
      {
        config with
        Hybrid_dep.entries = config.Hybrid_dep.entries @ [ (e, a) ];
        nactions = max config.Hybrid_dep.nactions (a + 1);
      }
    | Hybrid_dep.Commit a ->
      { config with Hybrid_dep.commit_order = config.Hybrid_dep.commit_order @ [ a ] }

  let config_of_steps steps = List.fold_left step empty_config steps

  let steps_hybrid spec steps =
    let rec go config = function
      | [] -> true
      | (Hybrid_dep.Exec _ as s) :: rest ->
        let config = step config s in
        hybrid_ok spec config && go config rest
      | (Hybrid_dep.Commit _ as s) :: rest -> go (step config s) rest
    in
    go empty_config steps
end

(* The library's copy runs over interned events: an engine whose universe
   is exactly the events a history mentions, an event's id its index. *)
let interned spec events =
  let universe = List.sort_uniq Event.compare events in
  let id e =
    let rec find i = function
      | [] -> raise Not_found
      | e' :: rest -> if Event.equal e e' then i else find (i + 1) rest
    in
    find 0 universe
  in
  (Hybrid_dep.engine spec universe, id)

(* Library verdicts, asserted equal to the reference's. *)
let hybrid_ok spec config =
  let engine, id = interned spec (List.map fst config.Hybrid_dep.entries) in
  let entries = List.map (fun (e, a) -> (id e, a)) config.Hybrid_dep.entries in
  let got = Hybrid_dep.hybrid_ok engine { config with Hybrid_dep.entries } in
  check_bool "agrees with Reference.hybrid_ok" (Reference.hybrid_ok spec config) got;
  got

let steps_hybrid spec steps =
  let events =
    List.concat_map (function Hybrid_dep.Exec (e, _) -> [ e ] | Hybrid_dep.Commit _ -> []) steps
  in
  let engine, id = interned spec events in
  let isteps =
    List.map
      (function
        | Hybrid_dep.Exec (e, a) -> Hybrid_dep.Exec (id e, a)
        | Hybrid_dep.Commit a -> Hybrid_dep.Commit a)
      steps
  in
  let got = Hybrid_dep.steps_hybrid engine isteps in
  check_bool "agrees with Reference.steps_hybrid" (Reference.steps_hybrid spec steps) got;
  got

(* --- configuration-level helpers --- *)

let test_hybrid_ok_accepts_commit_order () =
  let config =
    {
      Hybrid_dep.entries =
        [ (Queue_type.enq "x", 0); (Queue_type.enq "y", 1); (Queue_type.deq_ok "x", 1) ];
      commit_order = [ 0; 1 ];
      nactions = 2;
    }
  in
  check_bool "accepted" true (hybrid_ok Queue_type.spec config)

let test_hybrid_ok_rejects_wrong_order () =
  let config =
    {
      Hybrid_dep.entries = [ (Queue_type.enq "x", 0); (Queue_type.deq_ok "y", 1) ];
      commit_order = [ 0; 1 ];
      nactions = 2;
    }
  in
  check_bool "rejected" false (hybrid_ok Queue_type.spec config)

let test_hybrid_ok_active_permutations () =
  (* Two active actions with non-commuting events: both commit orders must
     be legal — Enq(x) and Deq;Ok(x) fail when Deq commits first. *)
  let config =
    {
      Hybrid_dep.entries = [ (Queue_type.enq "x", 0); (Queue_type.deq_ok "x", 1) ];
      commit_order = [];
      nactions = 2;
    }
  in
  check_bool "rejected while both active" false (hybrid_ok Queue_type.spec config);
  let committed = { config with Hybrid_dep.commit_order = [ 0 ] } in
  check_bool "accepted once enqueuer committed" true (hybrid_ok Queue_type.spec committed)

let test_steps_roundtrip () =
  let config =
    {
      Hybrid_dep.entries =
        [ (Prom.write "x", 0); (Prom.seal, 1); (Prom.read_ok "x", 2) ];
      commit_order = [ 0; 1 ];
      nactions = 3;
    }
  in
  let steps = Hybrid_dep.steps_of config in
  let config' = Reference.config_of_steps steps in
  check_bool "roundtrip entries" true (config.Hybrid_dep.entries = config'.Hybrid_dep.entries);
  check_bool "roundtrip commits" true
    (config.Hybrid_dep.commit_order = config'.Hybrid_dep.commit_order)

let test_steps_earliest_placement () =
  (* Action 0's only event is first; its commit must immediately follow. *)
  let config =
    {
      Hybrid_dep.entries = [ (Prom.write "x", 0); (Prom.seal, 1) ];
      commit_order = [ 0 ];
      nactions = 2;
    }
  in
  match Hybrid_dep.steps_of config with
  | [ Hybrid_dep.Exec (_, 0); Hybrid_dep.Commit 0; Hybrid_dep.Exec (_, 1) ] -> ()
  | other ->
    Alcotest.failf "unexpected placement (%d steps)" (List.length other)

let test_steps_hybrid_prefixwise () =
  (* The Theorem 5 shape: commits interleaved make the history a member
     even though the commits-last variant is not. *)
  let interleaved =
    [
      Hybrid_dep.Exec (Prom.write "x", 0);
      Hybrid_dep.Commit 0;
      Hybrid_dep.Exec (Prom.seal, 1);
      Hybrid_dep.Commit 1;
      Hybrid_dep.Exec (Prom.read_ok "x", 2);
    ]
  in
  check_bool "interleaved member" true (steps_hybrid Prom.spec interleaved);
  let commits_last =
    [
      Hybrid_dep.Exec (Prom.write "x", 0);
      Hybrid_dep.Exec (Prom.seal, 1);
      Hybrid_dep.Exec (Prom.read_ok "x", 2);
      Hybrid_dep.Commit 0;
      Hybrid_dep.Commit 1;
    ]
  in
  check_bool "commits-last not member" false (steps_hybrid Prom.spec commits_last)

let test_project () =
  let steps =
    [
      Hybrid_dep.Exec (Prom.write "x", 0);
      Hybrid_dep.Commit 0;
      Hybrid_dep.Exec (Prom.seal, 1);
      Hybrid_dep.Exec (Prom.read_ok "x", 2);
    ]
  in
  let projected = Hybrid_dep.project steps ~keep:(fun i -> i <> 0) in
  (* Dropping action 0's only exec also drops its commit. *)
  check_int "two steps left" 2 (List.length projected)

(* --- verification against the paper --- *)

let test_prom_paper_relation_verifies () =
  check_bool "verified" true
    (Hybrid_dep.is_hybrid_dependency (Lazy.force prom_checker) Paper.prom_hybrid_relation)

let test_prom_static_relation_verifies () =
  (* Theorem 4: any static dependency relation is a hybrid one. *)
  let static = Static_dep.minimal Prom.spec ~max_len:4 in
  check_bool "verified" true
    (Hybrid_dep.is_hybrid_dependency (Lazy.force prom_checker) static)

let test_prom_undersized_rejected () =
  let missing_read_seal =
    Relation.remove (Prom.read_inv, Prom.seal) Paper.prom_hybrid_relation
  in
  check_bool "rejected" false
    (Hybrid_dep.is_hybrid_dependency (Lazy.force prom_checker) missing_read_seal);
  let missing_seal_write =
    Relation.remove (Prom.seal_inv, Prom.write "x") Paper.prom_hybrid_relation
  in
  check_bool "rejected" false
    (Hybrid_dep.is_hybrid_dependency (Lazy.force prom_checker) missing_seal_write)

let test_prom_empty_rejected () =
  check_bool "empty relation rejected" false
    (Hybrid_dep.is_hybrid_dependency (Lazy.force prom_checker) Relation.empty)

let test_prom_counterexample_is_concrete () =
  match Hybrid_dep.verify (Lazy.force prom_checker) Relation.empty with
  | Ok () -> Alcotest.fail "expected counterexample"
  | Error ce ->
    (* The counterexample must be checkable: H is a member, H+e is not. *)
    check_bool "H in Hybrid(T)" true (steps_hybrid Prom.spec ce.Hybrid_dep.history);
    let extended =
      ce.Hybrid_dep.history
      @ [ Hybrid_dep.Exec (ce.Hybrid_dep.appended, ce.Hybrid_dep.appended_action) ]
    in
    check_bool "H+e not in Hybrid(T)" false (steps_hybrid Prom.spec extended)

let test_prom_unique_minimal () =
  let static = Static_dep.minimal Prom.spec ~max_len:4 in
  let minimal = Hybrid_dep.minimal_hybrids (Lazy.force prom_checker) ~base:static in
  check_int "exactly one minimal" 1 (List.length minimal);
  check_bool "it is the paper's relation" true
    (Relation.equal (List.hd minimal) Paper.prom_hybrid_relation)

let test_doublebuffer_dynamic_not_hybrid () =
  (* Theorem 12. *)
  check_bool "rejected" false
    (Hybrid_dep.is_hybrid_dependency (Lazy.force db_checker)
       Paper.doublebuffer_dynamic_relation)

let test_doublebuffer_static_verifies () =
  let static = Static_dep.minimal Double_buffer.spec ~max_len:4 in
  check_bool "verified" true
    (Hybrid_dep.is_hybrid_dependency (Lazy.force db_checker) static)

let test_flagset_base_insufficient () =
  check_bool "base rejected" false
    (Hybrid_dep.is_hybrid_dependency (Lazy.force flagset_checker) Paper.flagset_base_relation)

let test_flagset_alternatives_verify () =
  let checker = Lazy.force flagset_checker in
  check_bool "base + Shift(3)>=Shift(1)" true
    (Hybrid_dep.is_hybrid_dependency checker Paper.flagset_alternative_31);
  check_bool "base + Shift(2)>=Shift(1)" true
    (Hybrid_dep.is_hybrid_dependency checker Paper.flagset_alternative_21)

let test_flagset_alternatives_minimal () =
  (* Removing the distinguishing pair from either alternative breaks it
     (that is the base-relation case); minimality over the added pair. *)
  let checker = Lazy.force flagset_checker in
  check_bool "31 minus added pair fails" false
    (Hybrid_dep.is_hybrid_dependency checker
       (Relation.remove (Flag_set.shift_inv 3, Flag_set.shift_ok 1)
          Paper.flagset_alternative_31));
  check_bool "21 minus added pair fails" false
    (Hybrid_dep.is_hybrid_dependency checker
       (Relation.remove (Flag_set.shift_inv 2, Flag_set.shift_ok 1)
          Paper.flagset_alternative_21))

let test_flagset_two_distinct_minimals () =
  check_bool "alternatives differ" false
    (Relation.equal Paper.flagset_alternative_31 Paper.flagset_alternative_21)

let test_monotonicity () =
  (* Superset of a verified relation verifies (validity is monotone). *)
  let checker = Lazy.force prom_checker in
  let bigger =
    Relation.add (Prom.seal_inv, Prom.seal) Paper.prom_hybrid_relation
  in
  check_bool "superset verified" true (Hybrid_dep.is_hybrid_dependency checker bigger)

let test_register_minimal_hybrid () =
  let checker = Lazy.force register_checker in
  let static = Static_dep.minimal Register.spec ~max_len:4 in
  let minimal = Hybrid_dep.minimal_hybrids checker ~base:static in
  check_bool "at least one minimal" true (List.length minimal >= 1);
  (* Every minimal hybrid relation is contained in the static one
     (corollary of Theorem 4: the static relation encompasses the union of
     minimal hybrids). *)
  List.iter
    (fun r -> check_bool "within static" true (Relation.subset r static))
    minimal

(* --- the template engine against Definition 2 itself --- *)

(* H as a behavioral history: each action begins just before its first
   execution. *)
let behavioral_of_steps steps =
  let begun = Hashtbl.create 8 in
  List.concat_map
    (function
      | Hybrid_dep.Exec (e, a) ->
        let act = Action.of_int a in
        if Hashtbl.mem begun a then [ Behavioral.Exec (e, act) ]
        else begin
          Hashtbl.add begun a ();
          [ Behavioral.Begin act; Behavioral.Exec (e, act) ]
        end
      | Hybrid_dep.Commit a -> [ Behavioral.Commit (Action.of_int a) ])
    steps

(* Back to steps; every action of such a history is [Action.of_int a]. *)
let steps_of_behavioral h =
  let id act =
    let rec find a = if Action.equal (Action.of_int a) act then a else find (a + 1) in
    find 0
  in
  List.filter_map
    (function
      | Behavioral.Exec (e, act) -> Some (Hybrid_dep.Exec (e, id act))
      | Behavioral.Commit act -> Some (Hybrid_dep.Commit (id act))
      | Behavioral.Begin _ | Behavioral.Abort _ -> None)
    h

(* Every counterexample [verify] returns is a violation of Definition 2,
   checked without the template engine: H ∈ Hybrid(T), H·e ∉ Hybrid(T), and
   G (H's subhistory at [g_positions]) is closed, holds every event the
   appended invocation depends on, and accepts e. *)
let check_counterexample spec relation (ce : Hybrid_dep.counterexample) =
  let h_steps = ce.Hybrid_dep.history in
  let e = Hybrid_dep.Exec (ce.Hybrid_dep.appended, ce.Hybrid_dep.appended_action) in
  check_bool "H in Hybrid(T)" true (Reference.steps_hybrid spec h_steps);
  check_bool "H.e not in Hybrid(T)" false (Reference.steps_hybrid spec (h_steps @ [ e ]));
  let h = behavioral_of_steps h_steps in
  let keep i = List.mem i ce.Hybrid_dep.g_positions in
  check_bool "G closed (Definition 1)" true
    (Closed_subhistory.is_closed_history relation h ~keep);
  List.iteri
    (fun i (ev, _) ->
      if Relation.mem (ce.Hybrid_dep.appended.Event.inv, ev) relation then
        check_bool "G holds the appended invocation's dependencies" true (keep i))
    (Behavioral.all_events h);
  let g_steps = steps_of_behavioral (Closed_subhistory.subhistory h ~keep) in
  check_bool "project agrees with subhistory" true
    (g_steps = Hybrid_dep.project h_steps ~keep);
  check_bool "G.e in Hybrid(T)" true (Reference.steps_hybrid spec (g_steps @ [ e ]))

let test_counterexamples_violate_definition_2 () =
  List.iter
    (fun (spec, max_len, checker) ->
      let checker = Lazy.force checker in
      (* At the checker's own bound: FlagSet's 4-event static relation
         lacks Shift(n) >= Close();Ok(true), which 5 events expose. *)
      let static = Static_dep.minimal spec ~max_len in
      (* Theorem 4: the static relation itself has no counterexample. *)
      check_bool "static relation verifies" true
        (Hybrid_dep.is_hybrid_dependency checker static);
      let candidates =
        Relation.empty
        :: List.map (fun p -> Relation.remove p static) (Relation.elements static)
      in
      List.iter
        (fun relation ->
          match Hybrid_dep.verify checker relation with
          | Ok () -> ()
          | Error ce -> check_counterexample spec relation ce)
        candidates)
    [
      (Prom.spec, 4, prom_checker);
      (Double_buffer.spec, 4, db_checker);
      (Flag_set.spec, 5, flagset_checker);
      (Register.spec, 4, register_checker);
    ]

let test_checker_counts () =
  let checker = Lazy.force prom_checker in
  check_bool "nonzero configs" true (Hybrid_dep.config_count checker > 0);
  check_bool "nonzero templates" true (Hybrid_dep.template_count checker > 0)

let suites =
  [
    ( "hybrid dependency (Definition 2)",
      [
        Alcotest.test_case "hybrid_ok accepts commit order" `Quick test_hybrid_ok_accepts_commit_order;
        Alcotest.test_case "hybrid_ok rejects wrong order" `Quick test_hybrid_ok_rejects_wrong_order;
        Alcotest.test_case "hybrid_ok active permutations" `Quick test_hybrid_ok_active_permutations;
        Alcotest.test_case "steps roundtrip" `Quick test_steps_roundtrip;
        Alcotest.test_case "earliest commit placement" `Quick test_steps_earliest_placement;
        Alcotest.test_case "membership is prefix-wise" `Quick test_steps_hybrid_prefixwise;
        Alcotest.test_case "projection" `Quick test_project;
        Alcotest.test_case "PROM paper relation verifies" `Quick test_prom_paper_relation_verifies;
        Alcotest.test_case "PROM static relation verifies (Thm 4)" `Quick test_prom_static_relation_verifies;
        Alcotest.test_case "PROM undersized rejected" `Quick test_prom_undersized_rejected;
        Alcotest.test_case "PROM empty rejected" `Quick test_prom_empty_rejected;
        Alcotest.test_case "counterexamples are concrete" `Quick test_prom_counterexample_is_concrete;
        Alcotest.test_case "PROM unique minimal hybrid" `Quick test_prom_unique_minimal;
        Alcotest.test_case "DoubleBuffer dynamic not hybrid (Thm 12)" `Quick test_doublebuffer_dynamic_not_hybrid;
        Alcotest.test_case "DoubleBuffer static verifies" `Quick test_doublebuffer_static_verifies;
        Alcotest.test_case "FlagSet base insufficient" `Quick test_flagset_base_insufficient;
        Alcotest.test_case "FlagSet alternatives verify" `Quick test_flagset_alternatives_verify;
        Alcotest.test_case "FlagSet alternatives minimal" `Quick test_flagset_alternatives_minimal;
        Alcotest.test_case "FlagSet minimals distinct" `Quick test_flagset_two_distinct_minimals;
        Alcotest.test_case "validity is monotone" `Quick test_monotonicity;
        Alcotest.test_case "register minimal hybrids" `Quick test_register_minimal_hybrid;
        Alcotest.test_case "checker statistics" `Quick test_checker_counts;
        Alcotest.test_case "counterexamples violate Definition 2" `Quick
          test_counterexamples_violate_definition_2;
      ] );
  ]
