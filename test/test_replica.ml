open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_clock
open Atomrep_replica

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Log --- *)

let ts n = { Lamport.Timestamp.counter = n; site = 0 }

let entry n action seq event =
  Log.Entry
    { Log.ets = ts n; action = Action.of_string action; begin_ts = ts n; seq; event }

let test_log_merge_idempotent () =
  let l = Log.add Log.empty (entry 1 "A" 0 (Queue_type.enq "x")) in
  check_bool "merge with self" true (Log.equal (Log.merge l l) l);
  check_int "size" 1 (Log.size (Log.merge l l))

let test_log_merge_commutative () =
  let l1 = Log.add Log.empty (entry 1 "A" 0 (Queue_type.enq "x")) in
  let l2 = Log.add Log.empty (entry 2 "B" 0 (Queue_type.enq "y")) in
  check_bool "commutative" true (Log.equal (Log.merge l1 l2) (Log.merge l2 l1))

let test_log_entries_sorted_by_ts () =
  let l =
    List.fold_left Log.add Log.empty
      [ entry 5 "B" 0 (Queue_type.enq "y"); entry 1 "A" 0 (Queue_type.enq "x") ]
  in
  match Log.entries l with
  | [ e1; e2 ] ->
    check_bool "sorted" true (Lamport.Timestamp.compare e1.Log.ets e2.Log.ets < 0)
  | _ -> Alcotest.fail "expected two entries"

let test_log_status_records () =
  let a = Action.of_string "A" in
  let l = Log.add Log.empty (Log.Commit_record (a, ts 9)) in
  check_bool "commit ts" true
    (match Log.commit_ts l a with Some t -> Lamport.Timestamp.equal t (ts 9) | None -> false);
  check_bool "not aborted" false (Log.is_aborted l a);
  let l' = Log.add Log.empty (Log.Abort_record a) in
  check_bool "aborted" true (Log.is_aborted l' a)

(* --- Repository --- *)

let test_repository_stable_storage () =
  let r = Repository.create ~site:0 () in
  Repository.append r [ entry 1 "A" 0 (Queue_type.enq "x") ];
  check_int "stored" 1 (Log.size (Repository.read r))

let test_repository_intentions_cleared_by_entry () =
  let r = Repository.create ~site:0 () in
  let a = Action.of_string "A" in
  Repository.intend r { Repository.i_action = a; i_op = "Enq"; i_bts = ts 1; i_seq = 0 };
  check_int "one intention" 1 (List.length (Repository.intentions r));
  Repository.append r [ entry 2 "A" 0 (Queue_type.enq "x") ];
  check_int "cleared by its entry" 0 (List.length (Repository.intentions r))

let test_repository_intentions_cleared_by_status () =
  let r = Repository.create ~site:0 () in
  let a = Action.of_string "A" in
  Repository.intend r { Repository.i_action = a; i_op = "Enq"; i_bts = ts 1; i_seq = 0 };
  Repository.append r [ Log.Abort_record a ];
  check_int "cleared by abort" 0 (List.length (Repository.intentions r))

let test_repository_release () =
  let r = Repository.create ~site:0 () in
  let a = Action.of_string "A" in
  Repository.intend r { Repository.i_action = a; i_op = "Enq"; i_bts = ts 1; i_seq = 0 };
  Repository.intend r { Repository.i_action = a; i_op = "Deq"; i_bts = ts 1; i_seq = 1 };
  Repository.release r a 0;
  check_int "one left" 1 (List.length (Repository.intentions r))

(* --- View --- *)

let test_view_classification () =
  let a = Action.of_string "A" and b = Action.of_string "B" in
  let log =
    List.fold_left Log.add Log.empty
      [
        entry 1 "A" 0 (Queue_type.enq "x");
        entry 2 "B" 0 (Queue_type.enq "y");
        Log.Commit_record (a, ts 3);
      ]
  in
  let view = View.of_log Queue_type.spec log in
  check_int "one committed" 1 (List.length (View.committed view));
  check_int "one tentative" 1 (List.length (View.tentative view));
  ignore b

let test_view_commit_ts_order () =
  (* Commit timestamps, not entry timestamps, order the committed events. *)
  let a = Action.of_string "A" and b = Action.of_string "B" in
  let log =
    List.fold_left Log.add Log.empty
      [
        entry 1 "A" 0 (Queue_type.enq "x");
        entry 2 "B" 0 (Queue_type.enq "y");
        Log.Commit_record (a, ts 9);
        Log.Commit_record (b, ts 5);
      ]
  in
  let view = View.of_log Queue_type.spec log in
  Alcotest.(check (list string))
    "B first" [ "Enq(y);Ok()"; "Enq(x);Ok()" ]
    (List.map Event.to_string (View.committed_events view));
  ignore (a, b)

let test_view_drops_aborted () =
  let a = Action.of_string "A" in
  let log =
    List.fold_left Log.add Log.empty
      [ entry 1 "A" 0 (Queue_type.enq "x"); Log.Abort_record a ]
  in
  let view = View.of_log Queue_type.spec log in
  check_int "nothing" 0
    (List.length (View.committed view) + List.length (View.tentative view))

(* --- End-to-end runtime, per scheme --- *)

let schemes = [ Replicated.Hybrid; Replicated.Static; Replicated.Locking ]

let run_and_check ?(install_faults = fun _ -> ()) ?(n_txns = 40) scheme seed =
  let cfg =
    { Runtime.default_config with scheme; n_txns; seed; install_faults }
  in
  let outcome = Runtime.run cfg in
  (cfg, outcome)

let test_scheme_histories_atomic scheme () =
  List.iter
    (fun seed ->
      let cfg, outcome = run_and_check scheme seed in
      Alcotest.(check (list (pair string string)))
        "no atomicity failures" []
        (Runtime.check_atomicity cfg outcome);
      Alcotest.(check (list (pair string string)))
        "no order failures" []
        (Runtime.check_common_order cfg outcome))
    [ 1; 2; 3 ]

let test_scheme_under_faults scheme () =
  let faults net = Atomrep_sim.Fault.crash_recover_all net ~mtbf:300.0 ~mttr:120.0 in
  List.iter
    (fun seed ->
      let cfg, outcome = run_and_check ~install_faults:faults ~n_txns:60 scheme seed in
      Alcotest.(check (list (pair string string)))
        "atomic despite faults" []
        (Runtime.check_atomicity cfg outcome))
    [ 5; 6 ]

let test_progress () =
  List.iter
    (fun scheme ->
      let _, outcome = run_and_check scheme 9 in
      check_bool
        (Replicated.scheme_name scheme ^ " commits most transactions")
        true
        (outcome.Runtime.metrics.Runtime.committed > 20))
    schemes

let test_accounting () =
  let _, outcome = run_and_check Replicated.Hybrid 4 in
  let m = outcome.Runtime.metrics in
  check_int "aborted = sum of causes" m.Runtime.aborted
    (m.Runtime.unavailable_aborts + m.Runtime.rejected_aborts + m.Runtime.conflict_aborts)

let test_deterministic_runs () =
  let _, o1 = run_and_check Replicated.Hybrid 13 in
  let _, o2 = run_and_check Replicated.Hybrid 13 in
  check_int "same committed" o1.Runtime.metrics.Runtime.committed
    o2.Runtime.metrics.Runtime.committed;
  check_int "same ops" o1.Runtime.metrics.Runtime.ops_done o2.Runtime.metrics.Runtime.ops_done;
  check_bool "same histories" true (o1.Runtime.histories = o2.Runtime.histories)

let test_total_site_failure_blocks_everything () =
  let faults net =
    Atomrep_sim.Engine.schedule (Atomrep_sim.Network.engine net) ~delay:0.0 (fun () ->
        for s = 0 to Atomrep_sim.Network.n_sites net - 1 do
          Atomrep_sim.Network.crash net s
        done)
  in
  let cfg, outcome = run_and_check ~install_faults:faults ~n_txns:10 Replicated.Hybrid 3 in
  ignore cfg;
  check_int "nothing commits" 0 outcome.Runtime.metrics.Runtime.committed

let test_multi_object_transactions () =
  let relation = Static_dep.minimal Queue_type.spec ~max_len:4 in
  let assignment = Runtime.default_queue_assignment ~n_sites:3 in
  let objects =
    List.map
      (fun name ->
        {
          Runtime.obj_name = name;
          obj_spec = Queue_type.spec;
          obj_relation = relation;
          obj_assignment = assignment;
            obj_members = None;
        })
      [ "q1"; "q2" ]
  in
  let script rng _ =
    let target = if Atomrep_stats.Rng.bool rng then "q1" else "q2" in
    let other = if target = "q1" then "q2" else "q1" in
    [
      { Runtime.target; invocation = Queue_type.enq_inv "x" };
      { Runtime.target = other; invocation = Queue_type.deq_inv };
    ]
  in
  List.iter
    (fun scheme ->
      let cfg =
        { Runtime.default_config with scheme; objects; script; n_txns = 30; seed = 21 }
      in
      let outcome = Runtime.run cfg in
      Alcotest.(check (list (pair string string)))
        (Replicated.scheme_name scheme ^ " atomic")
        [] (Runtime.check_atomicity cfg outcome);
      Alcotest.(check (list (pair string string)))
        (Replicated.scheme_name scheme ^ " common order")
        [] (Runtime.check_common_order cfg outcome))
    schemes

(* --- Available copies vs quorum consensus (§2) --- *)

let test_available_copies_violates_serializability () =
  let outcome =
    Available_copies.run ~seed:3 ~n_sites:4 ~txns_per_side:2 ~partition_at:100.0
      ~heal_at:200.0 ()
  in
  check_bool "commits on both sides" true (outcome.Available_copies.committed >= 4);
  check_bool "not serializable" false outcome.Available_copies.serializable

let test_quorum_consensus_survives_partition () =
  let committed, aborted, serializable =
    Available_copies.quorum_reference ~seed:3 ~n_sites:4 ~txns_per_side:2
      ~partition_at:100.0 ~heal_at:200.0 ()
  in
  check_bool "some commits" true (committed > 0);
  check_bool "some aborts (minority side)" true (aborted > 0);
  check_bool "serializable" true serializable

let test_available_copies_fine_without_partition () =
  let outcome =
    Available_copies.run ~seed:3 ~n_sites:4 ~txns_per_side:0 ~partition_at:1000.0
      ~heal_at:1001.0 ()
  in
  check_bool "serializable without partition" true outcome.Available_copies.serializable

let test_scheme_names_round_trip () =
  List.iter
    (fun scheme ->
      check_bool
        (Replicated.scheme_name scheme ^ " round-trips")
        true
        (Replicated.scheme_of_name (Replicated.scheme_name scheme) = Ok scheme))
    Replicated.[ Hybrid; Static; Locking ];
  Alcotest.(check (result reject string))
    "unknown name lists the valid ones"
    (Error "unknown scheme \"optimistic\" (hybrid|static|locking)")
    (Replicated.scheme_of_name "optimistic")

(* On-line static atomicity end to end: with no faults, a queue script
   mixing two values let a replicated static front-end admit an Enq whose
   Begin timestamp fell between another active action's Enq and a later
   Deq that dequeued its value — illegal once that other action aborts.
   These seeds of 0-4999 produced such histories. *)
let test_static_two_value_queue_seeds () =
  let req inv = { Runtime.target = "queue"; invocation = inv } in
  let scripts =
    [
      [ req (Queue_type.enq_inv "x"); req Queue_type.deq_inv ];
      [ req (Queue_type.enq_inv "x") ];
      [ req (Queue_type.enq_inv "y") ];
    ]
  in
  List.iter
    (fun seed ->
      let cfg =
        {
          Runtime.default_config with
          scheme = Replicated.Static;
          seed;
          n_txns = 8;
          arrival_mean = 5.0;
          script = (fun rng _ -> Atomrep_stats.Rng.pick_list rng scripts);
        }
      in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "seed %d static atomic" seed)
        []
        (Runtime.check_atomicity cfg (Runtime.run cfg)))
    [ 165; 2441; 4781 ]

let suites =
  [
    ( "replica",
      [
        Alcotest.test_case "scheme names round-trip" `Quick test_scheme_names_round_trip;
        Alcotest.test_case "static two-value queue seeds" `Quick
          test_static_two_value_queue_seeds;
        Alcotest.test_case "log merge idempotent" `Quick test_log_merge_idempotent;
        Alcotest.test_case "log merge commutative" `Quick test_log_merge_commutative;
        Alcotest.test_case "log entries sorted" `Quick test_log_entries_sorted_by_ts;
        Alcotest.test_case "log status records" `Quick test_log_status_records;
        Alcotest.test_case "repository stable storage" `Quick test_repository_stable_storage;
        Alcotest.test_case "intentions cleared by entry" `Quick test_repository_intentions_cleared_by_entry;
        Alcotest.test_case "intentions cleared by status" `Quick test_repository_intentions_cleared_by_status;
        Alcotest.test_case "intention release" `Quick test_repository_release;
        Alcotest.test_case "view classification" `Quick test_view_classification;
        Alcotest.test_case "view commit-ts order" `Quick test_view_commit_ts_order;
        Alcotest.test_case "view drops aborted" `Quick test_view_drops_aborted;
        Alcotest.test_case "hybrid histories atomic" `Slow (test_scheme_histories_atomic Replicated.Hybrid);
        Alcotest.test_case "static histories atomic" `Slow (test_scheme_histories_atomic Replicated.Static);
        Alcotest.test_case "locking histories atomic" `Slow (test_scheme_histories_atomic Replicated.Locking);
        Alcotest.test_case "hybrid atomic under faults" `Slow (test_scheme_under_faults Replicated.Hybrid);
        Alcotest.test_case "static atomic under faults" `Slow (test_scheme_under_faults Replicated.Static);
        Alcotest.test_case "locking atomic under faults" `Slow (test_scheme_under_faults Replicated.Locking);
        Alcotest.test_case "progress" `Slow test_progress;
        Alcotest.test_case "abort accounting" `Quick test_accounting;
        Alcotest.test_case "deterministic runs" `Quick test_deterministic_runs;
        Alcotest.test_case "total failure blocks commits" `Quick test_total_site_failure_blocks_everything;
        Alcotest.test_case "multi-object transactions" `Slow test_multi_object_transactions;
        Alcotest.test_case "available copies violates serializability" `Quick
          test_available_copies_violates_serializability;
        Alcotest.test_case "quorum consensus survives partition" `Quick
          test_quorum_consensus_survives_partition;
        Alcotest.test_case "available copies fine without partition" `Quick
          test_available_copies_fine_without_partition;
      ] );
  ]
