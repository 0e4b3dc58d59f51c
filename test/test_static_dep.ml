open Atomrep_spec
open Atomrep_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Theorem 11 / §3: the minimal static dependency relation for Queue is
   exactly the paper's four schemas. *)
let test_queue_matches_paper () =
  let computed = Static_dep.minimal Queue_type.spec ~max_len:5 in
  check_bool "equals paper relation" true
    (Relation.equal computed Paper.queue_static_relation)

let test_queue_no_enq_enq () =
  let computed = Static_dep.minimal Queue_type.spec ~max_len:5 in
  check_bool "Enq does not depend on Enq under static" false
    (Relation.mem (Queue_type.enq_inv "x", Queue_type.enq "y") computed)

(* §4: PROM's minimal static relation = hybrid relation + the two extra
   schemas. *)
let test_prom_matches_paper () =
  let computed = Static_dep.minimal Prom.spec ~max_len:4 in
  let expected =
    List.fold_left
      (fun acc p -> Relation.add p acc)
      Paper.prom_hybrid_relation Paper.prom_static_extras
  in
  check_bool "equals hybrid + extras" true (Relation.equal computed expected)

let test_prom_extras_present () =
  let computed = Static_dep.minimal Prom.spec ~max_len:4 in
  check_bool "Read >= Write(x);Ok" true
    (Relation.mem (Prom.read_inv, Prom.write "x") computed);
  check_bool "Write(x) >= Read();Ok(y)" true
    (Relation.mem (Prom.write_inv "x", Prom.read_ok "y") computed);
  (* Same-item writes do not invalidate reads. *)
  check_bool "Write(x) >= Read();Ok(x) absent" false
    (Relation.mem (Prom.write_inv "x", Prom.read_ok "x") computed)

(* Register: the read/write data type yields the classical table. *)
let test_register_relation () =
  let computed = Static_dep.minimal Register.spec ~max_len:4 in
  check_bool "Read >= Write" true
    (Relation.mem (Register.read_inv, Register.write "x") computed);
  check_bool "Write >= Read(other)" true
    (Relation.mem (Register.write_inv "x", Register.read "y") computed);
  check_bool "blind writes independent" false
    (Relation.mem (Register.write_inv "x", Register.write "y") computed)

(* Counter: commuting increments impose no mutual constraints. *)
let test_counter_relation () =
  let computed = Static_dep.minimal Counter.spec ~max_len:4 in
  check_bool "Inc independent of Inc" false
    (Relation.mem (Counter.inc_inv, Counter.inc) computed);
  check_bool "Inc independent of Dec" false
    (Relation.mem (Counter.inc_inv, Counter.dec) computed);
  check_bool "Read depends on Inc" true
    (Relation.mem (Counter.read_inv, Counter.inc) computed);
  check_bool "Inc constrains later Reads" true
    (Relation.mem (Counter.inc_inv, Counter.read 0) computed)

(* WSet: idempotent inserts are independent even of themselves. *)
let test_wset_relation () =
  let computed = Static_dep.minimal Wset.spec ~max_len:4 in
  check_bool "Insert x independent of Insert x" false
    (Relation.mem (Wset.insert_inv "x", Wset.insert "x") computed);
  check_bool "Member depends on Insert of same item" true
    (Relation.mem (Wset.member_inv "x", Wset.insert "x") computed);
  check_bool "Member independent of other item's Insert" false
    (Relation.mem (Wset.member_inv "y", Wset.insert "x") computed)

(* Monotonicity in the bound: growing the bound can only add pairs. *)
let test_monotone_in_bound () =
  let r3 = Static_dep.minimal Queue_type.spec ~max_len:3 in
  let r5 = Static_dep.minimal Queue_type.spec ~max_len:5 in
  check_bool "monotone" true (Relation.subset r3 r5)

(* Saturation: Queue's relation does not grow from length 4 to 6. *)
let test_saturation_queue () =
  let r4 = Static_dep.minimal Queue_type.spec ~max_len:4 in
  let r6 = Static_dep.minimal Queue_type.spec ~max_len:6 in
  check_bool "saturated at 4" true (Relation.equal r4 r6)

let test_witness_exists_for_pair () =
  match
    Static_dep.witness Queue_type.spec ~max_len:4 Queue_type.deq_inv (Queue_type.enq "x")
  with
  | None -> Alcotest.fail "expected a witness for Deq >= Enq(x)"
  | Some (h1, ev, h2, h3) ->
    check_bool "witness invocation is Deq" true
      (Atomrep_history.Event.Invocation.equal ev.Atomrep_history.Event.inv Queue_type.deq_inv);
    check_bool "witness within bound" true
      (List.length h1 + List.length h2 + List.length h3 <= 4);
    (* The base history h1·h2·h3 must itself be legal. *)
    check_bool "base history legal" true
      (Serial_spec.legal Queue_type.spec (h1 @ h2 @ h3))

let test_witness_absent_for_non_pair () =
  check_bool "no witness for Enq >= Enq" true
    (Option.is_none
       (Static_dep.witness Queue_type.spec ~max_len:4 (Queue_type.enq_inv "x")
          (Queue_type.enq "y")))

(* Directory: cross-key independence. *)
let test_directory_cross_key () =
  let spec = Directory.spec_with ~keys:[ "k"; "l" ] ~values:[ "x" ] in
  let computed = Static_dep.minimal spec ~max_len:3 in
  check_bool "same-key lookup/insert related" true
    (Relation.mem (Directory.lookup_inv "k", Directory.insert_ok "k" "x") computed);
  check_bool "cross-key lookup/insert unrelated" false
    (Relation.mem (Directory.lookup_inv "k", Directory.insert_ok "l" "x") computed)

let suites =
  [
    ( "static dependency (Theorem 6)",
      [
        Alcotest.test_case "queue equals paper" `Quick test_queue_matches_paper;
        Alcotest.test_case "queue lacks Enq-Enq" `Quick test_queue_no_enq_enq;
        Alcotest.test_case "prom equals paper" `Quick test_prom_matches_paper;
        Alcotest.test_case "prom extras" `Quick test_prom_extras_present;
        Alcotest.test_case "register table" `Quick test_register_relation;
        Alcotest.test_case "counter commutativity" `Quick test_counter_relation;
        Alcotest.test_case "wset idempotence" `Quick test_wset_relation;
        Alcotest.test_case "monotone in bound" `Quick test_monotone_in_bound;
        Alcotest.test_case "saturates (queue)" `Quick test_saturation_queue;
        Alcotest.test_case "witness exists" `Quick test_witness_exists_for_pair;
        Alcotest.test_case "witness absent" `Quick test_witness_absent_for_non_pair;
        Alcotest.test_case "directory cross-key independence" `Quick test_directory_cross_key;
      ] );
  ]
