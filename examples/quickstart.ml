(* Quickstart: the analysis pipeline on one data type, end to end.

     dune exec examples/quickstart.exe

   1. Define (or pick) a serial specification.
   2. Check behavioral histories against the three local atomicity
      properties.
   3. Compute the minimal dependency relations (Theorems 6 and 10).
   4. Turn a relation into quorum constraints and pick an assignment. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_atomicity
open Atomrep_core
open Atomrep_quorum

let () =
  (* 1. The paper's FIFO queue over items x, y. *)
  let spec = Queue_type.spec in
  Printf.printf "type: %s\n\n" spec.Serial_spec.name;

  (* A serial history is legal iff the state machine accepts it. *)
  let serial = [ Queue_type.enq "x"; Queue_type.enq "y"; Queue_type.deq_ok "x" ] in
  Printf.printf "serial [Enq x; Enq y; Deq->x] legal: %b\n"
    (Serial_spec.legal spec serial);

  (* 2. A behavioral history interleaves actions; atomicity properties ask
     whether committed actions serialize in the right order. *)
  let history =
    Behavioral.of_script
      [
        ("A", `Begin);
        ("A", `Exec (Queue_type.enq "x"));
        ("B", `Begin);
        ("B", `Exec (Queue_type.enq "y"));
        ("B", `Commit);
        ("A", `Commit);
        ("C", `Begin);
        ("C", `Exec (Queue_type.deq_ok "y"));
        ("C", `Commit);
      ]
  in
  Printf.printf "\nhistory: B's enqueue commits before A's; C dequeues y\n";
  Printf.printf "  hybrid atomic (commit order):  %b\n"
    (Atomicity.is_hybrid_atomic spec history);
  Printf.printf "  static atomic (begin order):   %b\n"
    (Atomicity.is_static_atomic spec history);
  Printf.printf "  strong dynamic atomic:         %b\n"
    (Atomicity.is_dynamic_atomic spec history);

  (* 3. Minimal dependency relations, computed from the specification. *)
  let static_rel = Static_dep.minimal spec in
  let dynamic_rel = Dynamic_dep.minimal spec in
  let universe = Serial_spec.event_universe spec ~max_len:Relation.default_max_len in
  Format.printf "@.minimal static dependency relation (Theorem 6):@.%a@."
    (Relation.pp_schematic ~universe ~invocations:spec.Serial_spec.invocations)
    static_rel;
  Format.printf "@.minimal dynamic dependency relation (Theorem 10):@.%a@."
    (Relation.pp_schematic ~universe ~invocations:spec.Serial_spec.invocations)
    dynamic_rel;

  (* 4. Relations become quorum-intersection constraints; enumerate the
     valid threshold assignments on five sites and pick the best one for a
     dequeue-heavy workload. *)
  let constraints = Op_constraint.of_relation static_rel in
  let assignments = Assignment.enumerate ~n_sites:5 ~ops:[ "Enq"; "Deq" ] constraints in
  Printf.printf "\nvalid assignments on 5 sites under static atomicity: %d\n"
    (List.length assignments);
  match
    Assignment.best_for_mix ~p:0.9 ~mix:[ ("Enq", 1.0); ("Deq", 3.0) ] assignments
  with
  | None -> print_endline "none"
  | Some best ->
    Format.printf "best for a dequeue-heavy mix: %a@." Assignment.pp best;
    List.iter
      (fun op ->
        Printf.printf "  availability(%s) at p=0.9: %.4f\n" op
          (Assignment.availability best ~p:0.9 op))
      [ "Enq"; "Deq" ]
