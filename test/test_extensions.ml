(* Tests for the extension modules: new data types, closed subhistories,
   programmatic comparisons, availability under partitions, weighted-voting
   enumeration, log garbage collection and anti-entropy. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_clock

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Bounded buffer --- *)

let test_bounded_buffer_capacity () =
  let legal = Serial_spec.legal Bounded_buffer.spec in
  check_bool "fill to capacity" true
    (legal [ Bounded_buffer.enq "x"; Bounded_buffer.enq "y" ]);
  check_bool "third enq signals Full" true
    (legal
       [ Bounded_buffer.enq "x"; Bounded_buffer.enq "y"; Bounded_buffer.enq_full "x" ]);
  check_bool "third enq cannot succeed" false
    (legal [ Bounded_buffer.enq "x"; Bounded_buffer.enq "y"; Bounded_buffer.enq "x" ]);
  check_bool "deq makes room" true
    (legal
       [
         Bounded_buffer.enq "x"; Bounded_buffer.enq "y"; Bounded_buffer.deq_ok "x";
         Bounded_buffer.enq "x";
       ])

let test_bounded_buffer_fifo () =
  let legal = Serial_spec.legal Bounded_buffer.spec in
  check_bool "fifo order" true
    (legal [ Bounded_buffer.enq "x"; Bounded_buffer.enq "y"; Bounded_buffer.deq_ok "x" ]);
  check_bool "lifo illegal" false
    (legal [ Bounded_buffer.enq "x"; Bounded_buffer.enq "y"; Bounded_buffer.deq_ok "y" ])

let test_bounded_buffer_dependencies () =
  (* Capacity makes Enq depend on Deq;Ok even under commutativity: an Enq's
     success is invalidated by removing a Deq that made room. *)
  let dynamic = Dynamic_dep.minimal Bounded_buffer.spec ~max_len:4 in
  check_bool "Enq conflicts with Deq under dynamic" true
    (Relation.mem (Bounded_buffer.enq_inv "x", Bounded_buffer.deq_ok "y") dynamic);
  let unbounded = Dynamic_dep.minimal Queue_type.spec ~max_len:4 in
  check_bool "unbounded queue lacks that pair" false
    (Relation.mem (Queue_type.enq_inv "x", Queue_type.deq_ok "y") unbounded)

(* --- RSet --- *)

let test_rset_semantics () =
  let legal = Serial_spec.legal Rset.spec in
  check_bool "insert remove member" true
    (legal [ Rset.insert "x"; Rset.remove "x"; Rset.member "x" false ]);
  check_bool "remove of absent ok" true (legal [ Rset.remove "x"; Rset.member "x" false ]);
  check_bool "reinsert" true
    (legal [ Rset.insert "x"; Rset.remove "x"; Rset.insert "x"; Rset.member "x" true ])

let test_rset_per_item_independence () =
  let static = Static_dep.minimal Rset.spec ~max_len:3 in
  check_bool "same-item Member/Insert related" true
    (Relation.mem (Rset.member_inv "x", Rset.insert "x") static);
  check_bool "cross-item Member/Insert unrelated" false
    (Relation.mem (Rset.member_inv "x", Rset.insert "y") static);
  let dynamic = Dynamic_dep.minimal Rset.spec ~max_len:3 in
  check_bool "same-item Insert/Remove conflict" true
    (Relation.mem (Rset.insert_inv "x", Rset.remove "x") dynamic);
  check_bool "cross-item Insert/Remove commute" false
    (Relation.mem (Rset.insert_inv "x", Rset.remove "y") dynamic)

(* --- Closed subhistories (Definition 1) --- *)

let sample_history =
  Behavioral.of_script
    [
      ("A", `Begin);
      ("A", `Exec (Queue_type.enq "x"));
      ("B", `Begin);
      ("B", `Exec (Queue_type.enq "y"));
      ("A", `Exec (Queue_type.deq_ok "x"));
      ("A", `Commit);
      ("B", `Commit);
    ]

let queue_static = lazy (Static_dep.minimal Queue_type.spec ~max_len:4)

let test_closed_full_and_empty () =
  let rel = Lazy.force queue_static in
  check_bool "full selection closed" true
    (Closed_subhistory.is_closed_history rel sample_history ~keep:(fun _ -> true));
  check_bool "empty selection closed" true
    (Closed_subhistory.is_closed_history rel sample_history ~keep:(fun _ -> false))

let test_closed_violation () =
  let rel = Lazy.force queue_static in
  (* Selecting the Deq (index 2) without the Enqs it depends on is not
     closed: Deq ≽ Enq;Ok. *)
  check_bool "deq without enq not closed" false
    (Closed_subhistory.is_closed_history rel sample_history ~keep:(fun i -> i = 2))

(* Every closed selection of [sample_history]'s three executions, by
   enumeration over [is_closed_history]. *)
let closed_selections rel =
  List.filter
    (fun s -> Closed_subhistory.is_closed_history rel sample_history ~keep:(fun i -> List.mem i s))
    [ []; [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 0; 1; 2 ] ]

let test_closure_pulls_dependencies () =
  let rel = Lazy.force queue_static in
  (* The Deq pulls in both earlier Enqs: the only closed selection holding
     it is the whole history. *)
  Alcotest.(check (list (list int))) "closed selections with the Deq" [ [ 0; 1; 2 ] ]
    (List.filter (List.mem 2) (closed_selections rel))

let test_closure_already_closed () =
  let rel = Lazy.force queue_static in
  check_bool "enq alone is closed" true
    (Closed_subhistory.is_closed_history rel sample_history ~keep:(fun i -> i = 0))

let test_closed_selections_count () =
  let rel = Lazy.force queue_static in
  (* Closed subsets of {Enq x, Enq y, Deq x}: {}, {0}, {1}, {0,1}, {0,1,2}.
     ({2} alone, {0,2}, {1,2} are not closed.) *)
  Alcotest.(check (list (list int))) "five closed selections"
    [ []; [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 0; 1; 2 ] ]
    (closed_selections rel)

let test_closed_events_array () =
  (* The array form is the same predicate over the executions themselves. *)
  let rel = Lazy.force queue_static in
  let events = Array.of_list (List.map fst (Behavioral.all_events sample_history)) in
  List.iter
    (fun mask ->
      let keep i = mask land (1 lsl i) <> 0 in
      check_bool "agrees with the history form"
        (Closed_subhistory.is_closed_history rel sample_history ~keep)
        (Closed_subhistory.is_closed rel events ~keep))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_closed_aborted_exempt () =
  let h =
    Behavioral.of_script
      [
        ("A", `Begin);
        ("A", `Exec (Queue_type.enq "x"));
        ("A", `Abort);
        ("B", `Begin);
        ("B", `Exec Queue_type.deq_empty);
      ]
  in
  let rel = Lazy.force queue_static in
  (* Selecting the Deq;Empty without A's aborted Enq is fine: aborted
     actions are exempt from the closure condition. *)
  check_bool "aborted exempt" true
    (Closed_subhistory.is_closed_history rel h ~keep:(fun i -> i = 1))

let test_subhistory_drops_bookkeeping () =
  let g = Closed_subhistory.subhistory sample_history ~keep:(fun i -> i = 0) in
  (* Keeps only A's Enq — B's Begin/Commit disappear with its events. *)
  check_bool "well-formed" true (Behavioral.well_formed g);
  check_int "A's entries only" 3 (List.length g)

(* --- Compare (figures 1-1 / 1-2 programmatically) --- *)

let test_compare_concurrency_queue () =
  let report = Atomrep_experiments.Compare.concurrency ~histories:800 Queue_type.spec in
  check_bool "hybrid strictly contains dynamic" true
    (report.Atomrep_experiments.Compare.hybrid_vs_dynamic
     = Atomrep_experiments.Compare.Left_strictly_contains);
  check_bool "static and hybrid incomparable" true
    (report.Atomrep_experiments.Compare.static_vs_hybrid
     = Atomrep_experiments.Compare.Incomparable);
  check_bool "witness provided" true
    (Option.is_some report.Atomrep_experiments.Compare.witness_hybrid_not_static)

let test_compare_availability_prom () =
  let report =
    Atomrep_experiments.Compare.availability
      ~hybrid_relations:[ Paper.prom_hybrid_relation ] ~n_sites:3 Prom.spec
  in
  check_bool "hybrid admits strictly more (Thm 4+5)" true
    (report.Atomrep_experiments.Compare.static_vs_hybrid
     = Atomrep_experiments.Compare.Right_strictly_contains);
  check_bool "counts ordered" true
    (report.Atomrep_experiments.Compare.hybrid_count
     > report.Atomrep_experiments.Compare.static_count)

let test_compare_availability_doublebuffer () =
  let report =
    Atomrep_experiments.Compare.availability
      ~hybrid_relations:[ Static_dep.minimal Double_buffer.spec ~max_len:4 ]
      ~n_sites:3 Double_buffer.spec
  in
  check_bool "hybrid/dynamic incomparable (Thm 12)" true
    (report.Atomrep_experiments.Compare.hybrid_vs_dynamic
     = Atomrep_experiments.Compare.Incomparable)

(* --- Availability under partitions --- *)

let prom_hybrid_assignment n =
  Assignment.make ~n_sites:n
    (List.map
       (fun (op, (i, f)) -> (op, { Assignment.initial = i; final = f }))
       (Paper.prom_hybrid_quorums ~n))

let test_partition_availability_agrees_with_binomial () =
  let n = 5 in
  let a = prom_hybrid_assignment n in
  let model = Partition_availability.uniform ~n ~p:0.9 in
  (* The availability conditions on the client's own site being up (the
     front-end runs there); the binomial formula does not. For Write (1
     site) the client's site alone suffices, so it is exactly p. *)
  let avail = Partition_availability.exact model ~client_site:0 a ~op:"Write" in
  check_bool "write availability is p" true (avail = 0.9)

let test_partition_availability_kills_full_quorum () =
  let n = 5 in
  let a =
    Assignment.make ~n_sites:n [ ("Seal", { Assignment.initial = n; final = n }) ]
  in
  let model =
    {
      Partition_availability.p_up = Array.make n 1.0;
      partition_probability = 1.0;
      groups = [ [ 0; 1 ]; [ 2; 3; 4 ] ];
    }
  in
  let avail = Partition_availability.exact model ~client_site:0 a ~op:"Seal" in
  check_bool "always partitioned, never all-sites" true (avail = 0.0)

let test_partition_availability_unlisted_sites_are_isolated () =
  (* Regression: sites absent from [groups] used to share one implicit
     group, so a permanently-partitioned model still let two unlisted
     sites reach each other. Each unlisted site is its own singleton. *)
  let n = 4 in
  let a =
    Assignment.make ~n_sites:n [ ("Write", { Assignment.initial = 2; final = 2 }) ]
  in
  let model =
    {
      Partition_availability.p_up = Array.make n 1.0;
      partition_probability = 1.0;
      groups = [ [ 0; 1 ] ];
    }
  in
  (* Client at unlisted site 2: it must not reach unlisted site 3, so no
     2-of-4 quorum is ever available. *)
  let avail = Partition_availability.exact model ~client_site:2 a ~op:"Write" in
  check_bool "unlisted sites cannot reach each other" true (avail = 0.0);
  (* Client inside the listed group still finds its quorum. *)
  let avail = Partition_availability.exact model ~client_site:0 a ~op:"Write" in
  check_bool "listed group unaffected" true (avail = 1.0)

let test_partition_availability_spares_singleton () =
  let n = 4 in
  let a =
    Assignment.make ~n_sites:n [ ("Write", { Assignment.initial = 1; final = 1 }) ]
  in
  let model =
    {
      Partition_availability.p_up = Array.make n 1.0;
      partition_probability = 1.0;
      groups = [ [ 0 ]; [ 1; 2; 3 ] ];
    }
  in
  let avail = Partition_availability.exact model ~client_site:0 a ~op:"Write" in
  check_bool "singleton quorum survives partition" true (avail = 1.0)

(* --- Weighted enumeration --- *)

let test_weighted_enumerate_respects_constraints () =
  let constraints =
    [ { Op_constraint.dependent = "Read"; supplier = "Write"; labels = [ "Ok" ] } ]
  in
  let all = Weighted.enumerate ~weights:[| 2; 1; 1 |] ~ops:[ "Read"; "Write" ] constraints in
  check_bool "nonempty" true (all <> []);
  List.iter
    (fun w -> check_bool "satisfies" true (Weighted.satisfies w constraints))
    all

let test_weighted_beats_uniform_on_reliable_site () =
  let constraints =
    Op_constraint.of_relation (Static_dep.minimal Register.spec ~max_len:3)
  in
  let ops = [ "Read"; "Write" ] in
  let p_up = [| 0.99; 0.6; 0.6 |] in
  let mix = [ ("Read", 1.0); ("Write", 1.0) ] in
  let score all =
    match Weighted.best_for_mix ~p_up ~mix all with
    | None -> 0.0
    | Some best ->
      0.5 *. Weighted.availability_hetero best ~p_up "Read"
      +. 0.5 *. Weighted.availability_hetero best ~p_up "Write"
  in
  let uniform = score (Weighted.enumerate ~weights:[| 1; 1; 1 |] ~ops constraints) in
  let weighted = score (Weighted.enumerate ~weights:[| 3; 1; 1 |] ~ops constraints) in
  check_bool "weighted at least as good" true (weighted >= uniform -. 1e-9);
  check_bool "strictly better here" true (weighted > uniform +. 1e-6)

(* --- Log GC and anti-entropy --- *)

let ts n = { Lamport.Timestamp.counter = n; site = 0 }

let entry n action seq event =
  Atomrep_replica.Log.Entry
    {
      Atomrep_replica.Log.ets = ts n;
      action = Action.of_string action;
      begin_ts = ts n;
      seq;
      event;
    }

let test_log_gc_drops_aborted_entries () =
  let open Atomrep_replica in
  let a = Action.of_string "A" in
  let log =
    List.fold_left Log.add Log.empty
      [ entry 1 "A" 0 (Queue_type.enq "x"); entry 2 "B" 0 (Queue_type.enq "y");
        Log.Abort_record a ]
  in
  let compacted = Log.gc log in
  check_int "entry dropped" 1 (List.length (Log.entries compacted));
  check_bool "tombstone kept" true (Log.is_aborted compacted a)

let test_log_gc_tombstone_blocks_resurrection () =
  let open Atomrep_replica in
  let a = Action.of_string "A" in
  let stale = Log.add Log.empty (entry 1 "A" 0 (Queue_type.enq "x")) in
  let compacted = Log.gc (Log.add stale (Log.Abort_record a)) in
  (* Merging the stale replica back reintroduces the entry, but the
     tombstone still classifies it as aborted. *)
  let merged = Log.merge compacted stale in
  let view = View.of_log Queue_type.spec merged in
  check_int "no tentative resurrection" 0 (List.length (View.tentative view))

let test_repository_ingest () =
  let open Atomrep_replica in
  let r1 = Repository.create ~site:0 () and r2 = Repository.create ~site:1 () in
  Repository.append r1 [ entry 1 "A" 0 (Queue_type.enq "x") ];
  Repository.append r2 [ Log.Commit_record (Action.of_string "A", ts 2) ];
  Repository.ingest r2 (Repository.read r1);
  check_bool "entry arrived" true
    (List.length (Log.entries (Repository.read r2)) = 1);
  (* And the commit record classifies it. *)
  let view = View.of_log Queue_type.spec (Repository.read r2) in
  check_int "committed" 1 (List.length (View.committed view))

let test_anti_entropy_propagates () =
  let open Atomrep_replica in
  let open Atomrep_sim in
  let engine = Engine.create ~seed:3 in
  let net = Network.create engine ~n_sites:3 () in
  let obj =
    Replicated.create ~name:"q" ~spec:Queue_type.spec ~scheme:Replicated.Hybrid
      ~relation:(Static_dep.minimal Queue_type.spec ~max_len:3)
      ~assignment:
        (Assignment.make ~n_sites:3
           [ ("Enq", { Assignment.initial = 2; final = 2 });
             ("Deq", { Assignment.initial = 2; final = 2 }) ])
      ~net ()
  in
  (* Seed one repository only; gossip must spread the record everywhere. *)
  Replicated.broadcast_status obj
    (Log.Commit_record (Action.of_string "T0", ts 5))
    ~reachable_from:0;
  Replicated.start_anti_entropy obj ~rng:(Atomrep_stats.Rng.create 77) ~every:10.0;
  Engine.run ~until:2_000.0 engine;
  List.iter
    (fun site ->
      check_bool
        (Printf.sprintf "record at site %d" site)
        true
        (Option.is_some
           (Log.commit_ts (Replicated.repository_log obj ~site) (Action.of_string "T0"))))
    [ 0; 1; 2 ]

let test_runtime_with_anti_entropy_still_atomic () =
  let open Atomrep_replica in
  let cfg =
    {
      Runtime.default_config with
      seed = 31;
      n_txns = 40;
      anti_entropy_every = Some 20.0;
      install_faults =
        (fun net -> Atomrep_sim.Fault.crash_recover_all net ~mtbf:300.0 ~mttr:100.0);
    }
  in
  let outcome = Runtime.run cfg in
  Alcotest.(check (list (pair string string)))
    "atomic with gossip under faults" []
    (Runtime.check_atomicity cfg outcome)

let suites =
  [
    ( "extensions",
      [
        Alcotest.test_case "bounded buffer capacity" `Quick test_bounded_buffer_capacity;
        Alcotest.test_case "bounded buffer FIFO" `Quick test_bounded_buffer_fifo;
        Alcotest.test_case "bounded buffer dependencies" `Quick test_bounded_buffer_dependencies;
        Alcotest.test_case "rset semantics" `Quick test_rset_semantics;
        Alcotest.test_case "rset per-item independence" `Quick test_rset_per_item_independence;
        Alcotest.test_case "closed: full and empty" `Quick test_closed_full_and_empty;
        Alcotest.test_case "closed: violation" `Quick test_closed_violation;
        Alcotest.test_case "closure pulls dependencies" `Quick test_closure_pulls_dependencies;
        Alcotest.test_case "closure of closed set" `Quick test_closure_already_closed;
        Alcotest.test_case "closed selections" `Quick test_closed_selections_count;
        Alcotest.test_case "closed: aborted exempt" `Quick test_closed_aborted_exempt;
        Alcotest.test_case "closed: event-array form" `Quick test_closed_events_array;
        Alcotest.test_case "subhistory bookkeeping" `Quick test_subhistory_drops_bookkeeping;
        Alcotest.test_case "compare: queue concurrency" `Slow test_compare_concurrency_queue;
        Alcotest.test_case "compare: PROM availability" `Quick test_compare_availability_prom;
        Alcotest.test_case "compare: DoubleBuffer incomparable" `Quick
          test_compare_availability_doublebuffer;
        Alcotest.test_case "partition availability vs binomial" `Quick
          test_partition_availability_agrees_with_binomial;
        Alcotest.test_case "partition availability: partition kills full quorum" `Quick
          test_partition_availability_kills_full_quorum;
        Alcotest.test_case "partition availability: singleton survives" `Quick
          test_partition_availability_spares_singleton;
        Alcotest.test_case "partition availability: unlisted sites isolated" `Quick
          test_partition_availability_unlisted_sites_are_isolated;
        Alcotest.test_case "weighted enumerate" `Quick test_weighted_enumerate_respects_constraints;
        Alcotest.test_case "weighted beats uniform" `Quick test_weighted_beats_uniform_on_reliable_site;
        Alcotest.test_case "log gc" `Quick test_log_gc_drops_aborted_entries;
        Alcotest.test_case "gc tombstones" `Quick test_log_gc_tombstone_blocks_resurrection;
        Alcotest.test_case "repository ingest" `Quick test_repository_ingest;
        Alcotest.test_case "anti-entropy propagates" `Quick test_anti_entropy_propagates;
        Alcotest.test_case "anti-entropy run atomic" `Slow test_runtime_with_anti_entropy_still_atomic;
      ] );
  ]
