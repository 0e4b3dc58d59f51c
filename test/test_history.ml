open Atomrep_history
open Atomrep_spec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let enq = Queue_type.enq
let deq_ok = Queue_type.deq_ok

let sample =
  (* The paper's §3.1 behavioral history for a Queue. *)
  Behavioral.of_script
    [
      ("A", `Begin);
      ("A", `Exec (enq "x"));
      ("B", `Begin);
      ("B", `Exec (enq "y"));
      ("A", `Commit);
      ("B", `Exec (deq_ok "x"));
      ("B", `Commit);
    ]

let test_well_formed_sample () = check_bool "sample ok" true (Behavioral.well_formed sample)

let test_well_formed_rejects_exec_before_begin () =
  let h = Behavioral.of_script [ ("A", `Exec (enq "x")); ("A", `Begin) ] in
  check_bool "exec before begin" false (Behavioral.well_formed h)

let test_well_formed_rejects_double_begin () =
  let h = Behavioral.of_script [ ("A", `Begin); ("A", `Begin) ] in
  check_bool "double begin" false (Behavioral.well_formed h)

let test_well_formed_rejects_exec_after_commit () =
  let h =
    Behavioral.of_script [ ("A", `Begin); ("A", `Commit); ("A", `Exec (enq "x")) ]
  in
  check_bool "exec after commit" false (Behavioral.well_formed h)

let test_well_formed_rejects_commit_and_abort () =
  let h = Behavioral.of_script [ ("A", `Begin); ("A", `Commit); ("A", `Abort) ] in
  check_bool "commit then abort" false (Behavioral.well_formed h)

let test_committed_order () =
  Alcotest.(check (list string))
    "commit order" [ "A"; "B" ]
    (List.map Action.to_string (Behavioral.committed sample))

let test_active () =
  let h = Behavioral.of_script [ ("A", `Begin); ("B", `Begin); ("A", `Commit) ] in
  Alcotest.(check (list string))
    "active" [ "B" ]
    (List.map Action.to_string (Behavioral.active h))

let test_events_of () =
  check_int "B executed 2 events" 2
    (List.length (Action.Map.find (Action.of_string "B") (Behavioral.events_by_action sample)))

let test_serialize_order () =
  let serial =
    Behavioral.serialize sample [ Action.of_string "A"; Action.of_string "B" ]
  in
  Alcotest.(check (list string))
    "A then B"
    [ "Enq(x);Ok()"; "Enq(y);Ok()"; "Deq();Ok(x)" ]
    (List.map Event.to_string serial)

let test_serialize_excludes_unlisted () =
  let serial = Behavioral.serialize sample [ Action.of_string "B" ] in
  check_int "only B's events" 2 (List.length serial)

let test_precedes () =
  (* A commits before B's Deq, so A precedes B: B's predecessors are the
     first action of commit order, A's are none. *)
  let counts = Behavioral.precedes_counts sample in
  check_int "A precedes B" 1 (Action.Map.find (Action.of_string "B") counts);
  check_int "B does not precede A" 0 (Action.Map.find (Action.of_string "A") counts)

let test_precedes_empty_when_concurrent () =
  let h =
    Behavioral.of_script
      [
        ("A", `Begin);
        ("B", `Begin);
        ("A", `Exec (enq "x"));
        ("B", `Exec (enq "y"));
        ("A", `Commit);
        ("B", `Commit);
      ]
  in
  check_bool "no precedes" true
    (Action.Map.for_all (fun _ k -> k = 0) (Behavioral.precedes_counts h))

let test_strip_aborted () =
  let h =
    Behavioral.of_script
      [
        ("A", `Begin);
        ("A", `Exec (enq "x"));
        ("B", `Begin);
        ("B", `Exec (enq "y"));
        ("B", `Abort);
        ("A", `Commit);
      ]
  in
  let stripped = Behavioral.strip_aborted h in
  check_int "B fully removed" 3 (List.length stripped);
  check_bool "no B events" true
    (List.for_all
       (fun (_, a) -> Action.to_string a <> "B")
       (Behavioral.all_events stripped))

let test_live_events_excludes_aborted () =
  let h =
    Behavioral.of_script
      [ ("A", `Begin); ("A", `Exec (enq "x")); ("A", `Abort) ]
  in
  check_int "live excludes aborted" 0 (List.length (Behavioral.live_events h));
  check_int "all includes aborted" 1 (List.length (Behavioral.all_events h))

let test_begin_order_excludes_aborted () =
  let h =
    Behavioral.of_script
      [ ("A", `Begin); ("B", `Begin); ("A", `Abort) ]
  in
  Alcotest.(check (list string))
    "begin order" [ "B" ]
    (List.map Action.to_string (Behavioral.begin_order h))

let suites =
  [
    ( "behavioral history",
      [
        Alcotest.test_case "paper sample is well-formed" `Quick test_well_formed_sample;
        Alcotest.test_case "rejects exec before begin" `Quick test_well_formed_rejects_exec_before_begin;
        Alcotest.test_case "rejects double begin" `Quick test_well_formed_rejects_double_begin;
        Alcotest.test_case "rejects exec after commit" `Quick test_well_formed_rejects_exec_after_commit;
        Alcotest.test_case "rejects commit and abort" `Quick test_well_formed_rejects_commit_and_abort;
        Alcotest.test_case "commit order" `Quick test_committed_order;
        Alcotest.test_case "active actions" `Quick test_active;
        Alcotest.test_case "per-action events" `Quick test_events_of;
        Alcotest.test_case "serialization order" `Quick test_serialize_order;
        Alcotest.test_case "serialization excludes unlisted" `Quick test_serialize_excludes_unlisted;
        Alcotest.test_case "precedes order" `Quick test_precedes;
        Alcotest.test_case "precedes empty for concurrent" `Quick test_precedes_empty_when_concurrent;
        Alcotest.test_case "strip aborted" `Quick test_strip_aborted;
        Alcotest.test_case "live events" `Quick test_live_events_excludes_aborted;
        Alcotest.test_case "begin order excludes aborted" `Quick test_begin_order_excludes_aborted;
      ] );
  ]
