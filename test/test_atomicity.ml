open Atomrep_history
open Atomrep_spec
open Atomrep_atomicity

let check_bool = Alcotest.(check bool)

let enq = Queue_type.enq
let deq_ok = Queue_type.deq_ok

let script = Behavioral.of_script

(* The §3.1 behavioral history: A enqueues x, B enqueues y, A commits, B
   dequeues x and commits. Commit order A,B gives Enq(x) Enq(y) Deq;Ok(x):
   legal. Begin order is also A,B — static atomic too. *)
let paper_history =
  script
    [
      ("A", `Begin);
      ("A", `Exec (enq "x"));
      ("B", `Begin);
      ("B", `Exec (enq "y"));
      ("A", `Commit);
      ("B", `Exec (deq_ok "x"));
      ("B", `Commit);
    ]

let test_paper_history_hybrid () =
  check_bool "hybrid" true (Atomicity.is_hybrid_atomic Queue_type.spec paper_history)

let test_paper_history_static () =
  check_bool "static" true (Atomicity.is_static_atomic Queue_type.spec paper_history)

(* B dequeues y — only legal if B serializes before A, but B commits after
   A: not hybrid atomic. *)
let inverted =
  script
    [
      ("A", `Begin);
      ("A", `Exec (enq "x"));
      ("B", `Begin);
      ("B", `Exec (enq "y"));
      ("A", `Commit);
      ("B", `Exec (deq_ok "y"));
      ("B", `Commit);
    ]

let test_inverted_not_hybrid () =
  check_bool "not hybrid" false (Atomicity.is_hybrid_atomic Queue_type.spec inverted)

let test_inverted_not_static () =
  check_bool "not static" false (Atomicity.is_static_atomic Queue_type.spec inverted)

(* Static vs hybrid divergence: begin order A,B but commit order B,A.
   A enqueues x; B enqueues y; B commits first; a later reader C dequeues
   y — consistent with commit order (hybrid) but not with begin order
   (static). *)
let commit_vs_begin =
  script
    [
      ("A", `Begin);
      ("B", `Begin);
      ("A", `Exec (enq "x"));
      ("B", `Exec (enq "y"));
      ("B", `Commit);
      ("A", `Commit);
      ("C", `Begin);
      ("C", `Exec (deq_ok "y"));
      ("C", `Commit);
    ]

let test_commit_order_wins_hybrid () =
  check_bool "hybrid accepts" true (Atomicity.is_hybrid_atomic Queue_type.spec commit_vs_begin)

let test_begin_order_rejects_static () =
  check_bool "static rejects" false (Atomicity.is_static_atomic Queue_type.spec commit_vs_begin)

(* And the mirror image: dequeue follows begin order, violating commit
   order. *)
let begin_vs_commit =
  script
    [
      ("A", `Begin);
      ("B", `Begin);
      ("A", `Exec (enq "x"));
      ("B", `Exec (enq "y"));
      ("B", `Commit);
      ("A", `Commit);
      ("C", `Begin);
      ("C", `Exec (deq_ok "x"));
      ("C", `Commit);
    ]

let test_begin_vs_commit_static () =
  check_bool "static accepts" true (Atomicity.is_static_atomic Queue_type.spec begin_vs_commit)

let test_begin_vs_commit_hybrid () =
  check_bool "hybrid rejects" false (Atomicity.is_hybrid_atomic Queue_type.spec begin_vs_commit)

(* Dynamic ⊆ Hybrid (the paper: strong dynamic atomicity is a special case
   of hybrid atomicity). The commit_vs_begin history is hybrid; is it
   dynamic? A and B ran concurrently, so both serialization orders must be
   equivalent — enqueues of different items do not commute, so no. *)
let test_concurrent_enqs_not_dynamic () =
  check_bool "not dynamic" false (Atomicity.is_dynamic_atomic Queue_type.spec commit_vs_begin)

(* With commuting operations (same item), concurrency is dynamic-atomic. *)
let test_commuting_enqs_dynamic () =
  let h =
    script
      [
        ("A", `Begin);
        ("B", `Begin);
        ("A", `Exec (enq "x"));
        ("B", `Exec (enq "x"));
        ("B", `Commit);
        ("A", `Commit);
      ]
  in
  check_bool "dynamic" true (Atomicity.is_dynamic_atomic Queue_type.spec h)

(* The precedes order matters: once A commits before B executes, only the
   A-then-B serialization is demanded. *)
let test_precedes_limits_orders () =
  let h =
    script
      [
        ("A", `Begin);
        ("A", `Exec (enq "x"));
        ("A", `Commit);
        ("B", `Begin);
        ("B", `Exec (enq "y"));
        ("B", `Commit);
      ]
  in
  check_bool "sequential non-commuting ops are dynamic" true
    (Atomicity.is_dynamic_atomic Queue_type.spec h)

(* On-line requirement: an active action's events must stay serializable
   if it commits now. *)
let test_online_active_rejected () =
  let h =
    script
      [
        ("A", `Begin);
        ("A", `Exec (deq_ok "x"));
        (* queue is empty: no serialization justifies this *)
      ]
  in
  check_bool "hybrid rejects" false (Atomicity.is_hybrid_atomic Queue_type.spec h);
  check_bool "static rejects" false (Atomicity.is_static_atomic Queue_type.spec h);
  check_bool "dynamic rejects" false (Atomicity.is_dynamic_atomic Queue_type.spec h)

(* Aborted actions are invisible (recoverability). *)
let test_aborted_invisible () =
  let h =
    script
      [
        ("A", `Begin);
        ("A", `Exec (enq "x"));
        ("A", `Abort);
        ("B", `Begin);
        ("B", `Exec (deq_ok "x"));
        ("B", `Commit);
      ]
  in
  check_bool "deq of aborted enq is not atomic" false
    (Atomicity.is_hybrid_atomic Queue_type.spec h);
  let h' =
    script
      [
        ("A", `Begin);
        ("A", `Exec (enq "x"));
        ("A", `Abort);
        ("B", `Begin);
        ("B", `Exec Queue_type.deq_empty);
        ("B", `Commit);
      ]
  in
  check_bool "empty after aborted enq is atomic" true
    (Atomicity.is_hybrid_atomic Queue_type.spec h')

(* Empty and trivial histories. *)
let test_trivial_histories () =
  List.iter
    (fun property ->
      check_bool "empty history" true (Atomicity.satisfies Queue_type.spec property []);
      check_bool "begin only" true
        (Atomicity.satisfies Queue_type.spec property (script [ ("A", `Begin) ])))
    Atomicity.all_properties

(* PROM: the dirty-read pattern static atomicity is built to prevent. *)
let test_prom_static_example () =
  (* Same shape as Theorem 5's history — static atomic as it stands. *)
  check_bool "thm5 base history static" true
    (Atomicity.is_static_atomic Atomrep_spec.Prom.spec Atomrep_core.Paper.theorem5_history)

let test_failure_reporting () =
  match Atomicity.check Queue_type.spec Atomicity.Hybrid inverted with
  | Ok () -> Alcotest.fail "expected a counterexample"
  | Error f ->
    check_bool "order nonempty" true (f.Atomicity.order <> []);
    check_bool "serial nonempty" true (f.Atomicity.serial <> [])

(* Dynamic equivalence requirement: all precedes-compatible serializations
   must be EQUIVALENT, not merely legal. Two concurrent counter actions:
   Inc and Read — both orders legal from 0 (Read returns 0 in one order
   only... Read;Ok(0) illegal after Inc) — use Inc vs Inc: equivalent; use
   Read;Ok(0) vs Inc: order matters, not dynamic. *)
let test_dynamic_equivalence_requirement () =
  let open Atomrep_spec in
  let h =
    script
      [
        ("A", `Begin);
        ("B", `Begin);
        ("A", `Exec Counter.inc);
        ("B", `Exec (Counter.read 0));
        ("A", `Commit);
        ("B", `Commit);
      ]
  in
  (* Read;Ok(0) is only legal before the Inc: serialization B,A is legal,
     A,B is not — not all orders legal, hence not dynamic. *)
  check_bool "not dynamic" false (Atomicity.is_dynamic_atomic Counter.spec h);
  (* But it is hybrid atomic when commit order matches (B read before A's
     effect in commit order? commit order A,B puts Inc first — illegal;
     so this history is not hybrid either). *)
  check_bool "not hybrid (commit order A,B)" false
    (Atomicity.is_hybrid_atomic Counter.spec h)

(* The on-line check commits every subset of the actives, however many
   there are: T leaves two x's, D1-D3 each dequeue one and stay active,
   E1-E4 only begin. Committing D1-D3 takes three x's from a queue of
   two. *)
let test_online_past_six_actives () =
  let h =
    script
      ([ ("T", `Begin); ("T", `Exec (enq "x")); ("T", `Exec (enq "x")); ("T", `Commit) ]
      @ List.concat_map
          (fun d -> [ (d, `Begin); (d, `Exec (deq_ok "x")) ])
          [ "D1"; "D2"; "D3" ]
      @ List.map (fun e -> (e, `Begin)) [ "E1"; "E2"; "E3"; "E4" ])
  in
  List.iter
    (fun property ->
      check_bool (Atomicity.property_name property ^ " rejects") false
        (Atomicity.satisfies Queue_type.spec property h))
    Atomicity.all_properties

(* [serializable] asks for some order of the committed actions, in any
   order and ignoring actives. *)
let test_serializable_some_order () =
  check_bool "commit order not needed" true
    (Atomicity.serializable Queue_type.spec inverted);
  check_bool "no order fits" false
    (Atomicity.serializable Queue_type.spec
       (script
          [
            ("A", `Begin);
            ("A", `Exec (enq "x"));
            ("A", `Commit);
            ("B", `Begin);
            ("B", `Exec (deq_ok "y"));
            ("B", `Commit);
          ]));
  check_bool "actives ignored" true
    (Atomicity.serializable Queue_type.spec
       (script [ ("A", `Begin); ("A", `Exec (deq_ok "x")) ]))

let suites =
  [
    ( "atomicity properties",
      [
        Alcotest.test_case "paper history is hybrid" `Quick test_paper_history_hybrid;
        Alcotest.test_case "paper history is static" `Quick test_paper_history_static;
        Alcotest.test_case "inverted deq not hybrid" `Quick test_inverted_not_hybrid;
        Alcotest.test_case "inverted deq not static" `Quick test_inverted_not_static;
        Alcotest.test_case "commit order satisfies hybrid" `Quick test_commit_order_wins_hybrid;
        Alcotest.test_case "commit order violates static" `Quick test_begin_order_rejects_static;
        Alcotest.test_case "begin order satisfies static" `Quick test_begin_vs_commit_static;
        Alcotest.test_case "begin order violates hybrid" `Quick test_begin_vs_commit_hybrid;
        Alcotest.test_case "concurrent enqueues not dynamic" `Quick test_concurrent_enqs_not_dynamic;
        Alcotest.test_case "commuting enqueues dynamic" `Quick test_commuting_enqs_dynamic;
        Alcotest.test_case "precedes limits demanded orders" `Quick test_precedes_limits_orders;
        Alcotest.test_case "on-line check rejects bad active" `Quick test_online_active_rejected;
        Alcotest.test_case "aborted actions invisible" `Quick test_aborted_invisible;
        Alcotest.test_case "trivial histories" `Quick test_trivial_histories;
        Alcotest.test_case "theorem 5 base history static" `Quick test_prom_static_example;
        Alcotest.test_case "failures carry counterexamples" `Quick test_failure_reporting;
        Alcotest.test_case "dynamic requires equivalence" `Quick test_dynamic_equivalence_requirement;
        Alcotest.test_case "on-line check past six actives" `Quick test_online_past_six_actives;
        Alcotest.test_case "serializable in some order" `Quick test_serializable_some_order;
      ] );
  ]
