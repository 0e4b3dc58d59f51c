(* Figure 3-1: a queue replicated among three repositories.

     dune exec examples/replicated_queue.exe

   Reproduces the paper's running scenario on the simulator: front-ends
   merge initial-quorum logs into views, append timestamped entries, and
   write final quorums; the resulting per-object behavioral history is
   checked against hybrid atomicity. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_stats
open Atomrep_replica

let () =
  let n_sites = 3 in
  let relation = Static_dep.minimal Queue_type.spec in
  (* Majority quorums for both operations: 2 + 2 > 3 covers every
     dependency pair. *)
  let assignment =
    Assignment.make ~n_sites
      [
        ("Enq", { Assignment.initial = 2; final = 2 });
        ("Deq", { Assignment.initial = 2; final = 2 });
      ]
  in
  let cfg =
    {
      Runtime.default_config with
      seed = 1985;
      n_sites;
      scheme = Replicated.Hybrid;
      n_txns = 30;
      arrival_mean = 40.0;
      objects =
        [
          {
            Runtime.obj_name = "queue";
            obj_spec = Queue_type.spec;
            obj_relation = relation;
            obj_assignment = assignment;
            obj_members = None;
          };
        ];
      script =
        (fun rng i ->
          (* Producers enqueue, consumers dequeue, roughly alternating. *)
          if i mod 2 = 0 then
            [ { Runtime.target = "queue";
                invocation = Queue_type.enq_inv (Rng.pick_list rng [ "x"; "y" ]) } ]
          else [ { Runtime.target = "queue"; invocation = Queue_type.deq_inv } ]);
    }
  in
  let outcome = Runtime.run cfg in
  let m = outcome.Runtime.metrics in
  Printf.printf
    "30 producer/consumer transactions on a queue replicated at %d sites\n\n" n_sites;
  Printf.printf "committed: %d   aborted: %d   blocked-then-retried: %d\n\n"
    m.Runtime.committed m.Runtime.aborted m.Runtime.blocked_waits;
  (match outcome.Runtime.histories with
   | [ (_, history) ] ->
     print_endline "the queue's behavioral history (model order):";
     print_endline (Behavioral.to_string history);
     Printf.printf "\nhybrid atomic: %b\n"
       (Atomrep_atomicity.Atomicity.is_hybrid_atomic Queue_type.spec history)
   | _ -> ());
  match Runtime.check_common_order cfg outcome with
  | [] -> print_endline "system-wide serialization order: consistent"
  | failures ->
    List.iter (fun (o, f) -> Printf.printf "ORDER FAILURE %s: %s\n" o f) failures
