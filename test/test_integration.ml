(* Cross-module integration tests: multi-operation transactions on one
   object (read-your-own-writes through the front-end cache), the Analysis
   umbrella, and harness registry sanity. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_replica

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A transaction that enqueues twice and dequeues once must dequeue its own
   first item: the Deq's view need not intersect the transaction's own
   final quorums — the front-end's per-action cache supplies them. *)
let test_read_your_own_writes scheme =
  let script _rng i =
    if i = 0 then
      [
        { Runtime.target = "queue"; invocation = Queue_type.enq_inv "x" };
        { Runtime.target = "queue"; invocation = Queue_type.enq_inv "y" };
        { Runtime.target = "queue"; invocation = Queue_type.deq_inv };
      ]
    else []
  in
  let cfg =
    { Runtime.default_config with scheme; n_txns = 1; seed = 5; script }
  in
  let outcome = Runtime.run cfg in
  check_int "committed" 1 outcome.Runtime.metrics.Runtime.committed;
  match outcome.Runtime.histories with
  | [ (_, history) ] ->
    let events = List.map fst (Behavioral.all_events history) in
    check_bool "dequeued own first enqueue" true
      (List.exists (Event.equal (Queue_type.deq_ok "x")) events);
    Alcotest.(check (list (pair string string)))
      "atomic" [] (Runtime.check_atomicity cfg outcome)
  | _ -> Alcotest.fail "expected one object"

let test_ryow_hybrid () = test_read_your_own_writes Replicated.Hybrid
let test_ryow_static () = test_read_your_own_writes Replicated.Static
let test_ryow_locking () = test_read_your_own_writes Replicated.Locking

(* Sequential transactions each doing several operations: the queue drains
   in FIFO order across transactions. *)
let test_multi_op_pipeline () =
  let script _rng i =
    match i with
    | 0 ->
      [
        { Runtime.target = "queue"; invocation = Queue_type.enq_inv "x" };
        { Runtime.target = "queue"; invocation = Queue_type.enq_inv "y" };
      ]
    | 1 ->
      [
        { Runtime.target = "queue"; invocation = Queue_type.deq_inv };
        { Runtime.target = "queue"; invocation = Queue_type.deq_inv };
      ]
    | _ -> [ { Runtime.target = "queue"; invocation = Queue_type.deq_inv } ]
  in
  let cfg =
    {
      Runtime.default_config with
      scheme = Replicated.Hybrid;
      n_txns = 3;
      seed = 9;
      arrival_mean = 300.0;
      (* well separated: deterministic order *)
      script;
    }
  in
  let outcome = Runtime.run cfg in
  check_int "all committed" 3 outcome.Runtime.metrics.Runtime.committed;
  match outcome.Runtime.histories with
  | [ (_, history) ] ->
    let events = List.map fst (Behavioral.all_events history) in
    check_bool "x then y dequeued, then empty" true
      (List.exists (Event.equal (Queue_type.deq_ok "x")) events
      && List.exists (Event.equal (Queue_type.deq_ok "y")) events
      && List.exists (Event.equal Queue_type.deq_empty) events)
  | _ -> Alcotest.fail "expected one object"

(* Conflict-retry exhaustion: two transactions that genuinely deadlock
   (each holding what the other needs) resolve by abort, and the system
   stays atomic. Forced by a zero retry budget. *)
let test_retry_exhaustion_aborts () =
  let script _rng _ =
    [
      { Runtime.target = "queue"; invocation = Queue_type.enq_inv "x" };
      { Runtime.target = "queue"; invocation = Queue_type.deq_inv };
    ]
  in
  let cfg =
    {
      Runtime.default_config with
      scheme = Replicated.Locking;
      n_txns = 6;
      seed = 3;
      arrival_mean = 1.0 (* pile-up *);
      retry_budget = 0;
      script;
    }
  in
  let outcome = Runtime.run cfg in
  let m = outcome.Runtime.metrics in
  check_bool "some conflict aborts" true (m.Runtime.conflict_aborts > 0);
  Alcotest.(check (list (pair string string)))
    "still atomic" [] (Runtime.check_atomicity cfg outcome)

(* Exception responses travel the same path as normal ones: a replicated
   PROM answers Disabled before sealing, and a replicated bounded buffer
   answers Full — neither aborts the transaction. *)
let run_one_object ?(n_txns = 20) ~name ~spec ~ops script scheme seed =
  let majority =
    Atomrep_quorum.Assignment.make ~n_sites:3
      (List.map
         (fun op -> (op, { Atomrep_quorum.Assignment.initial = 2; final = 2 }))
         ops)
  in
  let cfg =
    {
      Runtime.default_config with
      scheme;
      n_txns;
      seed;
      objects =
        [
          {
            Runtime.obj_name = name;
            obj_spec = spec;
            obj_relation = Static_dep.minimal spec ~max_len:3;
            obj_assignment = majority;
            obj_members = None;
          };
        ];
      script;
    }
  in
  (cfg, Runtime.run cfg)

let test_replicated_prom () =
  let script rng i =
    if i = 10 then [ { Runtime.target = "prom"; invocation = Prom.seal_inv } ]
    else if Atomrep_stats.Rng.bool rng then
      [ { Runtime.target = "prom"; invocation = Prom.read_inv } ]
    else [ { Runtime.target = "prom"; invocation = Prom.write_inv "x" } ]
  in
  List.iter
    (fun scheme ->
      let cfg, outcome =
        run_one_object ~name:"prom" ~spec:Prom.spec ~ops:[ "Read"; "Seal"; "Write" ]
          script scheme 8
      in
      check_bool
        (Replicated.scheme_name scheme ^ " commits most")
        true
        (outcome.Runtime.metrics.Runtime.committed > 10);
      Alcotest.(check (list (pair string string)))
        (Replicated.scheme_name scheme ^ " atomic")
        [] (Runtime.check_atomicity cfg outcome);
      (* Disabled responses occurred (reads before the seal) and did not
         abort their transactions. *)
      match outcome.Runtime.histories with
      | [ (_, history) ] ->
        check_bool "some Disabled response" true
          (List.exists
             (fun (e, _) -> Event.equal e Prom.read_disabled)
             (Behavioral.all_events history))
      | _ -> Alcotest.fail "expected one object")
    [ Replicated.Hybrid; Replicated.Static; Replicated.Locking ]

let test_replicated_bounded_buffer () =
  let script _rng i =
    (* Overfill, then drain: Full and Empty both exercised. *)
    if i < 4 then [ { Runtime.target = "buf"; invocation = Bounded_buffer.enq_inv "x" } ]
    else [ { Runtime.target = "buf"; invocation = Bounded_buffer.deq_inv } ]
  in
  let cfg, outcome =
    run_one_object ~n_txns:10 ~name:"buf" ~spec:Bounded_buffer.spec
      ~ops:[ "Enq"; "Deq" ] script Replicated.Hybrid 4
  in
  Alcotest.(check (list (pair string string)))
    "atomic" [] (Runtime.check_atomicity cfg outcome);
  match outcome.Runtime.histories with
  | [ (_, history) ] ->
    let events = List.map fst (Behavioral.all_events history) in
    check_bool "a Full response occurred" true
      (List.exists (Event.equal (Bounded_buffer.enq_full "x")) events)
  | _ -> Alcotest.fail "expected one object"

(* --- Analysis umbrella --- *)

let test_analysis_skip () =
  let a = Analysis.analyze ~max_len:4 Queue_type.spec in
  check_bool "static computed" true (Relation.cardinal a.Analysis.static_relation > 0);
  check_bool "dynamic computed" true (Relation.cardinal a.Analysis.dynamic_relation > 0);
  check_int "hybrid skipped" 0 (List.length a.Analysis.hybrid_minimal);
  check_bool "static relation is a static dependency relation" true
    (Analysis.is_static_dependency a a.Analysis.static_relation);
  check_bool "hybrid relation is not a static dependency relation" false
    (Analysis.is_static_dependency a Paper.prom_hybrid_relation)

let test_analysis_with_search () =
  let a =
    Analysis.analyze ~max_len:4
      ~hybrid:(Analysis.Search { max_events = 4; max_actions = 3; universe = None })
      Prom.spec
  in
  check_int "one minimal hybrid for PROM" 1 (List.length a.Analysis.hybrid_minimal);
  check_bool "it is the paper's" true
    (Relation.equal (List.hd a.Analysis.hybrid_minimal) Paper.prom_hybrid_relation);
  (* The report renders without error. *)
  check_bool "report nonempty" true
    (String.length (Format.asprintf "%a" Analysis.pp_report a) > 100)

(* --- Experiment registry --- *)

let test_experiment_registry () =
  let ids = List.map (fun (i, _, _) -> i) Atomrep_experiments.Experiments.all in
  check_int "thirteen experiments" 13 (List.length ids);
  check_int "ids unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  check_bool "unknown id refused" false
    (Atomrep_experiments.Experiments.run_by_id "e99")

let suites =
  [
    ( "integration",
      [
        Alcotest.test_case "read your own writes (hybrid)" `Quick test_ryow_hybrid;
        Alcotest.test_case "read your own writes (static)" `Quick test_ryow_static;
        Alcotest.test_case "read your own writes (locking)" `Quick test_ryow_locking;
        Alcotest.test_case "multi-op pipeline" `Quick test_multi_op_pipeline;
        Alcotest.test_case "retry exhaustion aborts" `Quick test_retry_exhaustion_aborts;
        Alcotest.test_case "replicated PROM" `Slow test_replicated_prom;
        Alcotest.test_case "replicated bounded buffer" `Quick test_replicated_bounded_buffer;
        Alcotest.test_case "analysis (skip)" `Quick test_analysis_skip;
        Alcotest.test_case "analysis (search)" `Slow test_analysis_with_search;
        Alcotest.test_case "experiment registry" `Quick test_experiment_registry;
      ] );
  ]
