(* The PROM example of section 4: how the choice of local atomicity
   property constrains quorum assignment, and what that costs in
   availability.

     dune exec examples/prom_availability.exe *)

open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_stats

let () =
  let n = 5 in
  let static_rel = Static_dep.minimal Prom.spec in
  let universe = Serial_spec.event_universe Prom.spec ~max_len:Relation.default_max_len in
  let pp_rel =
    Relation.pp_schematic ~universe ~invocations:Prom.spec.Serial_spec.invocations
  in
  Format.printf "PROM hybrid dependency relation:@.%a@.@." pp_rel
    Paper.prom_hybrid_relation;
  Format.printf "PROM static adds:@.%a@.@." pp_rel
    (Relation.diff static_rel Paper.prom_hybrid_relation);

  let mk quorums =
    Assignment.make ~n_sites:n
      (List.map (fun (op, (i, f)) -> (op, { Assignment.initial = i; final = f })) quorums)
  in
  let hybrid = mk (Paper.prom_hybrid_quorums ~n) in
  let static = mk (Paper.prom_static_quorums ~n) in
  Printf.printf
    "maximizing Read availability on %d sites (paper, end of section 4):\n" n;
  Format.printf "  hybrid atomicity permits: %a@." Assignment.pp hybrid;
  Format.printf "  static atomicity forces:  %a@.@." Assignment.pp static;

  let table =
    Table.create ~title:"Write availability vs per-site up probability"
      ~columns:[ "p"; "hybrid (1 site)"; "static (all 5)"; "ratio" ]
  in
  List.iter
    (fun p ->
      let h = Assignment.availability hybrid ~p "Write" in
      let s = Assignment.availability static ~p "Write" in
      Table.add_row table
        [
          Printf.sprintf "%.2f" p;
          Table.cell_float h;
          Table.cell_float s;
          Printf.sprintf "%.1fx" (h /. s);
        ])
    [ 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 0.99 ];
  Table.print table;

  (* The trade-off is real in both directions: enumerate everything the two
     properties allow and compare the Pareto frontiers. *)
  let ops = [ "Read"; "Seal"; "Write" ] in
  let count rel =
    Assignment.count ~n_sites:3 ~ops (Op_constraint.of_relation rel)
  in
  Printf.printf "valid assignments on 3 sites: hybrid %d, static %d\n"
    (count Paper.prom_hybrid_relation) (count static_rel);
  print_endline
    "every static-valid assignment is hybrid-valid (Theorem 4), never the\n\
     other way around (Theorem 5): hybrid atomicity strictly widens the\n\
     available quorum trade-offs for the PROM."
