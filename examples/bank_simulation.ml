(* A replicated bank: two accounts, three sites, all three concurrency
   control schemes, with crash faults.

     dune exec examples/bank_simulation.exe

   Transactions deposit, withdraw and audit across two replicated
   accounts. Every run's per-object histories are checked against the
   scheme's local atomicity property, and balances are audited at the end
   by replaying the committed serialization. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_replica

let balance_of scheme spec history =
  let h = Behavioral.strip_aborted history in
  let committed = Behavioral.committed h in
  (* The audit replays committed actions in the scheme's serialization
     order: Begin-timestamp order for static, commit order otherwise. *)
  let order =
    match scheme with
    | Replicated.Static ->
      let committed = Action.Set.of_list committed in
      List.filter (fun a -> Action.Set.mem a committed) (Behavioral.begin_order h)
    | Replicated.Hybrid | Replicated.Locking -> committed
  in
  match Serial_spec.run spec (Behavioral.serialize h order) with
  | Some (Value.Int n) -> Some n
  | Some _ | None -> None

let () =
  let n_sites = 3 in
  let majority op_list =
    Assignment.make ~n_sites
      (List.map (fun op -> (op, { Assignment.initial = 2; final = 2 })) op_list)
  in
  let relation = Static_dep.minimal Bank_account.spec in
  let account name =
    {
      Runtime.obj_name = name;
      obj_spec = Bank_account.spec;
      obj_relation = relation;
      obj_assignment = majority [ "Deposit"; "Withdraw"; "Balance" ];
      obj_members = None;
    }
  in
  List.iter
    (fun scheme ->
      let cfg =
        {
          Runtime.default_config with
          seed = 2024;
          n_sites;
          scheme;
          n_txns = 60;
          arrival_mean = 80.0;
          objects = [ account "checking"; account "savings" ];
          script = Atomrep_workload.Mixes.bank_mix ~targets:[ "checking"; "savings" ] ();
          install_faults =
            (fun net -> Atomrep_sim.Fault.crash_recover net ~site:2 ~mtbf:500.0 ~mttr:100.0);
        }
      in
      let outcome = Runtime.run cfg in
      let m = outcome.Runtime.metrics in
      Printf.printf "--- %s ---\n" (Replicated.scheme_name scheme);
      Printf.printf
        "committed %d / aborted %d (unavailable %d, conflict %d, rejected %d)\n"
        m.Runtime.committed m.Runtime.aborted m.Runtime.unavailable_aborts
        m.Runtime.conflict_aborts m.Runtime.rejected_aborts;
      List.iter
        (fun (name, history) ->
          match balance_of scheme Bank_account.spec history with
          | Some n -> Printf.printf "final %s balance: %d\n" name n
          | None -> Printf.printf "final %s balance: (unreplayable!)\n" name)
        outcome.Runtime.histories;
      (match Runtime.check_atomicity cfg outcome with
       | [] -> print_endline "atomicity: OK"
       | failures ->
         List.iter (fun (o, f) -> Printf.printf "ATOMICITY FAIL %s: %s\n" o f) failures);
      print_newline ())
    [ Replicated.Hybrid; Replicated.Static; Replicated.Locking ]
