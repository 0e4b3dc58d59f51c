(* Availability explorer: how replication degree, site reliability and the
   choice of local atomicity property interact, for one data type.

     dune exec examples/availability_explorer.exe [type]

   For each replication degree n and site-up probability p, the best valid
   threshold assignment (uniform operation mix) is chosen under the static
   and under the dynamic minimal dependency relations, and its workload
   availability printed side by side — a miniature of the design space a
   system architect would explore before fixing quorums. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_stats

let () =
  let type_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "queue" in
  let spec =
    match Type_registry.find type_name with
    | Some s -> s
    | None ->
      Printf.eprintf "unknown type %s; one of: %s\n" type_name
        (String.concat ", " Type_registry.names);
      exit 1
  in
  let ops =
    List.sort_uniq String.compare
      (List.map (fun (inv : Event.Invocation.t) -> inv.op) spec.Serial_spec.invocations)
  in
  let mix = List.map (fun op -> (op, 1.0)) ops in
  Printf.printf "type %s, operations: %s\n\n" spec.Serial_spec.name
    (String.concat ", " ops);
  let static_cs = Op_constraint.of_relation (Static_dep.minimal spec) in
  let dynamic_cs = Op_constraint.of_relation (Dynamic_dep.minimal spec) in
  List.iter
    (fun (label, constraints) ->
      Printf.printf "constraints (%s):\n" label;
      List.iter (fun c -> Format.printf "  %a@." Op_constraint.pp c) constraints;
      print_newline ())
    [ ("static", static_cs); ("dynamic", dynamic_cs) ];
  let table =
    Table.create ~title:"best workload availability (uniform mix)"
      ~columns:[ "n"; "p"; "static"; "dynamic"; "single site" ]
  in
  List.iter
    (fun n ->
      let static_assignments = Assignment.enumerate ~n_sites:n ~ops static_cs in
      let dynamic_assignments = Assignment.enumerate ~n_sites:n ~ops dynamic_cs in
      List.iter
        (fun p ->
          let best assignments =
            match Assignment.best_for_mix ~p ~mix assignments with
            | None -> "-"
            | Some a -> Table.cell_float (Assignment.workload_availability a ~p ~mix)
          in
          Table.add_row table
            [
              Table.cell_int n;
              Printf.sprintf "%.2f" p;
              best static_assignments;
              best dynamic_assignments;
              Table.cell_float p;
            ])
        [ 0.80; 0.90; 0.99 ])
    [ 1; 3; 5 ];
  Table.print table;
  print_endline
    "The \"single site\" column is the unreplicated baseline: replication\n\
     beats it exactly when the type's constraints leave room for quorums\n\
     smaller than all-sites. Compare types: `counter` profits most, the\n\
     `boundedbuffer` least (every operation pair conflicts)."
