open Atomrep_history
open Atomrep_spec
open Atomrep_atomicity
open Atomrep_core
open Atomrep_quorum
open Atomrep_stats
open Atomrep_replica

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let print_relation ?(max_len = Relation.default_max_len) spec name rel =
  let universe = Serial_spec.event_universe spec ~max_len in
  Format.printf "%s (%d pairs):@.%a@.@." name (Relation.cardinal rel)
    (Relation.pp_schematic ~universe ~invocations:spec.Serial_spec.invocations)
    rel

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1-1: concurrency comparison                              *)
(* ------------------------------------------------------------------ *)

let e1_concurrency () =
  section "E1 (Figure 1-1): concurrency permitted by each local atomicity property";
  print_endline
    "Random well-formed histories classified by the three properties.\n\
     Expected shape: Dynamic-accepted is a strict subset of Hybrid-accepted;\n\
     Static is incomparable with both (nonzero counts in every difference\n\
     column except dynamic-only).\n";
  let table =
    Table.create ~title:"acceptance counts (2000 random histories per type)"
      ~columns:
        [ "type"; "static"; "hybrid"; "dynamic"; "hyb-not-sta"; "sta-not-hyb";
          "hyb-not-dyn"; "dyn-not-hyb" ]
  in
  let specs =
    [ Queue_type.spec; Prom.spec; Counter.spec; Register.spec; Double_buffer.spec ]
  in
  List.iter
    (fun spec ->
      let r = Compare.concurrency ~histories:2000 spec in
      Table.add_row table
        (spec.Serial_spec.name
         :: List.map Table.cell_int
              [
                r.static_accepted; r.hybrid_accepted; r.dynamic_accepted;
                r.hybrid_not_static; r.static_not_hybrid; r.hybrid_not_dynamic;
                r.dynamic_not_hybrid;
              ]))
    specs;
  Table.print table;
  print_endline
    "dyn-not-hyb = 0 everywhere confirms: strong dynamic atomicity is a\n\
     special case of hybrid atomicity (paper, section 5)."

(* ------------------------------------------------------------------ *)
(* E2 — Figure 1-2: availability comparison                             *)
(* ------------------------------------------------------------------ *)

let ops_of spec =
  List.sort_uniq String.compare
    (List.map (fun (inv : Event.Invocation.t) -> inv.op) spec.Serial_spec.invocations)

(* The type's minimal hybrid relations, searched from its static relation
   (a sound start by Theorem 4). *)
let hybrid_minimals spec =
  Hybrid_dep.minimal_hybrids
    (Hybrid_dep.make_checker spec ~max_events:4 ~max_actions:3)
    ~base:(Static_dep.minimal spec)

let e2_availability () =
  section "E2 (Figure 1-2): quorum assignments admitted by each property";
  print_endline
    "Valid threshold assignments on n identical sites. An assignment is\n\
     hybrid-valid when its intersection relation contains SOME minimal\n\
     hybrid dependency relation (found by bounded search), static-valid\n\
     when it contains the unique minimal static relation (Theorem 6),\n\
     dynamic-valid via Theorem 10.\n";
  let table =
    Table.create ~title:"valid assignment counts"
      ~columns:
        [ "type"; "n"; "static"; "hybrid"; "dynamic"; "sta<=hyb";
          "hyb/dyn incomparable" ]
  in
  List.iter
    (fun spec ->
      let hybrid_relations = hybrid_minimals spec in
      List.iter
        (fun n_sites ->
          let r = Compare.availability ~hybrid_relations ~n_sites spec in
          Table.add_row table
            [
              spec.Serial_spec.name;
              Table.cell_int n_sites;
              Table.cell_int r.static_count;
              Table.cell_int r.hybrid_count;
              Table.cell_int r.dynamic_count;
              string_of_bool
                (match r.static_vs_hybrid with
                 | Compare.Equal | Compare.Right_strictly_contains -> true
                 | Compare.Left_strictly_contains | Compare.Incomparable -> false);
              string_of_bool (r.hybrid_vs_dynamic = Compare.Incomparable);
            ])
        [ 3; 4 ])
    [ Queue_type.spec; Prom.spec; Register.spec; Double_buffer.spec ];
  Table.print table;
  print_endline
    "Reading: hybrid >= static everywhere with sta<=hyb=true (Theorem 4 and\n\
     Theorem 5: maximizing concurrency under hybrid atomicity permits a\n\
     wider range of availability trade-offs than static). DoubleBuffer\n\
     shows hybrid and dynamic incomparable (Theorem 12): its dynamic\n\
     relation constrains Produce against Produce, which hybrid does not,\n\
     while hybrid constrains Consume against Produce, which dynamic does\n\
     not. Queue-like types project to comparable op-level constraints even\n\
     though the event-level relations are incomparable (Theorem 11)."

(* ------------------------------------------------------------------ *)
(* E3 — PROM quorum example                                             *)
(* ------------------------------------------------------------------ *)

let e3_prom () =
  section "E3 (section 4): PROM replicated among n identical sites";
  let n = 5 in
  let mk quorums =
    Assignment.make ~n_sites:n
      (List.map
         (fun (op, (i, f)) -> (op, { Assignment.initial = i; final = f }))
         quorums)
  in
  let hybrid_assignment = mk (Paper.prom_hybrid_quorums ~n) in
  let static_assignment = mk (Paper.prom_static_quorums ~n) in
  let static_cs = Op_constraint.of_relation (Static_dep.minimal Prom.spec) in
  let hybrid_cs = Op_constraint.of_relation Paper.prom_hybrid_relation in
  Printf.printf
    "paper hybrid assignment  (Read 1, Seal %d, Write 1): hybrid-valid=%b static-valid=%b\n"
    n
    (Assignment.satisfies hybrid_assignment hybrid_cs)
    (Assignment.satisfies hybrid_assignment static_cs);
  Printf.printf
    "paper static assignment  (Read 1, Seal %d, Write %d): static-valid=%b\n\n" n n
    (Assignment.satisfies static_assignment static_cs);
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "operation availability, n=%d (hybrid: Write quorum 1 site; static: %d sites)"
           n n)
      ~columns:[ "p(site up)"; "Read hyb"; "Read sta"; "Write hyb"; "Write sta"; "Seal (both)" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Printf.sprintf "%.2f" p;
          Table.cell_float (Assignment.availability hybrid_assignment ~p "Read");
          Table.cell_float (Assignment.availability static_assignment ~p "Read");
          Table.cell_float (Assignment.availability hybrid_assignment ~p "Write");
          Table.cell_float (Assignment.availability static_assignment ~p "Write");
          Table.cell_float (Assignment.availability hybrid_assignment ~p "Seal");
        ])
    [ 0.50; 0.70; 0.80; 0.90; 0.95; 0.99 ];
  Table.print table;
  print_endline
    "Shape check (paper): static atomicity significantly reduces Write\n\
     availability — Write under hybrid needs 1 site, under static all n."

(* ------------------------------------------------------------------ *)
(* E4 — Theorems 4/5/6 on PROM                                          *)
(* ------------------------------------------------------------------ *)

let e4_static_vs_hybrid () =
  section "E4 (Theorems 4, 5, 6): static vs hybrid dependency on PROM";
  let static_rel = Static_dep.minimal Prom.spec in
  print_relation Prom.spec "minimal static dependency relation (Theorem 6)"
    static_rel;
  print_relation Prom.spec "paper hybrid dependency relation"
    Paper.prom_hybrid_relation;
  let checker = Hybrid_dep.make_checker Prom.spec ~max_events:4 ~max_actions:3 in
  Printf.printf "hybrid relation verifies as hybrid dependency relation: %b\n"
    (Hybrid_dep.is_hybrid_dependency checker Paper.prom_hybrid_relation);
  Printf.printf
    "hybrid relation contains the minimal static relation (static-valid): %b\n"
    (Relation.subset static_rel Paper.prom_hybrid_relation);
  Printf.printf "static relation verifies as hybrid dependency relation (Thm 4): %b\n\n"
    (Hybrid_dep.is_hybrid_dependency checker static_rel);
  (* Theorem 5's witness. *)
  let h = Paper.theorem5_history in
  let extended =
    h @ [ Behavioral.Exec (Paper.theorem5_appended, Action.of_string "B") ]
  in
  Printf.printf "Theorem 5 witness history H:\n%s\n\n" (Behavioral.to_string h);
  Printf.printf "H static atomic: %b\n" (Atomicity.is_static_atomic Prom.spec h);
  Printf.printf "H + [Write(y);Ok() B] static atomic: %b  (the static violation)\n"
    (Atomicity.is_static_atomic Prom.spec extended);
  Printf.printf "H + [Write(y);Ok() B] hybrid atomic: %b  (hybrid front-ends never emit it)\n"
    (Atomicity.is_hybrid_atomic Prom.spec extended)

(* ------------------------------------------------------------------ *)
(* E5 — FlagSet                                                         *)
(* ------------------------------------------------------------------ *)

let e5_flagset () =
  section "E5 (section 4): FlagSet has two distinct minimal hybrid relations";
  let checker =
    Hybrid_dep.make_checker Flag_set.spec ~universe:Paper.flagset_core_universe
      ~max_events:5 ~max_actions:3
  in
  let report name rel =
    match Hybrid_dep.verify checker rel with
    | Ok () -> Printf.printf "%-34s VERIFIED\n" name
    | Error ce ->
      Format.printf "%-34s rejected: %a@." name Hybrid_dep.pp_counterexample ce
  in
  report "base relation (paper: must fail)" Paper.flagset_base_relation;
  report "base + Shift(3)>=Shift(1)" Paper.flagset_alternative_31;
  report "base + Shift(2)>=Shift(1)" Paper.flagset_alternative_21;
  print_newline ();
  let minimal rel added =
    Hybrid_dep.is_hybrid_dependency checker rel
    && not (Hybrid_dep.is_hybrid_dependency checker (Relation.remove added rel))
  in
  Printf.printf "alternative 1 minimal over its added pair: %b\n"
    (minimal Paper.flagset_alternative_31 (Flag_set.shift_inv 3, Flag_set.shift_ok 1));
  Printf.printf "alternative 2 minimal over its added pair: %b\n"
    (minimal Paper.flagset_alternative_21 (Flag_set.shift_inv 2, Flag_set.shift_ok 1));
  Printf.printf "alternatives distinct: %b\n"
    (not (Relation.equal Paper.flagset_alternative_31 Paper.flagset_alternative_21));
  print_endline
    "\nConsequence: quorum assignments may let Shift(1) reach Shift(3) views\n\
     either directly or indirectly through Shift(2) — two incomparable\n\
     availability trade-offs for the same type."

(* ------------------------------------------------------------------ *)
(* E6 — Queue (Theorem 11)                                              *)
(* ------------------------------------------------------------------ *)

let cheapest_assignments ~n_sites ~ops constraints ~mix ~p =
  let assignments = Assignment.enumerate ~n_sites ~ops constraints in
  Assignment.best_for_mix ~p ~mix assignments

let e6_queue () =
  section "E6 (Theorem 11): Queue under static vs dynamic atomicity";
  let static_rel = Static_dep.minimal Queue_type.spec ~max_len:5 in
  let dynamic_rel = Dynamic_dep.minimal Queue_type.spec ~max_len:5 in
  print_relation ~max_len:5 Queue_type.spec "minimal static dependency relation"
    static_rel;
  print_relation ~max_len:5 Queue_type.spec "minimal dynamic dependency relation"
    dynamic_rel;
  Printf.printf "static is a dynamic dependency relation: %b (Theorem 11: no)\n"
    (Relation.subset dynamic_rel static_rel);
  Printf.printf "dynamic is a static dependency relation: %b (incomparable: no)\n\n"
    (Relation.subset static_rel dynamic_rel);
  let n = 5 in
  let mix = [ ("Enq", 1.0); ("Deq", 1.0) ] in
  let table =
    Table.create ~title:"cheapest balanced assignments, n=5, p=0.9"
      ~columns:[ "property"; "Enq (i,f)"; "Deq (i,f)"; "workload availability" ]
  in
  List.iter
    (fun (name, rel) ->
      let constraints = Op_constraint.of_relation rel in
      match
        cheapest_assignments ~n_sites:n ~ops:[ "Enq"; "Deq" ] constraints ~mix ~p:0.9
      with
      | None -> Table.add_row table [ name; "-"; "-"; "-" ]
      | Some a ->
        let s op =
          let z = Assignment.sizes_of a op in
          Printf.sprintf "(%d,%d)" z.Assignment.initial z.Assignment.final
        in
        Table.add_row table
          [
            name; s "Enq"; s "Deq";
            Table.cell_float (Assignment.workload_availability a ~p:0.9 ~mix);
          ])
    [ ("static", static_rel); ("dynamic", dynamic_rel) ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E7 — DoubleBuffer (Theorem 12)                                       *)
(* ------------------------------------------------------------------ *)

let e7_doublebuffer () =
  section "E7 (Theorem 12): DoubleBuffer's dynamic relation is not hybrid";
  let dynamic_rel = Dynamic_dep.minimal Double_buffer.spec in
  print_relation Double_buffer.spec "minimal dynamic dependency relation"
    dynamic_rel;
  Printf.printf "computed relation equals the paper's: %b\n\n"
    (Relation.equal dynamic_rel Paper.doublebuffer_dynamic_relation);
  let checker =
    Hybrid_dep.make_checker Double_buffer.spec ~max_events:4 ~max_actions:3
  in
  (match Hybrid_dep.verify checker dynamic_rel with
   | Ok () -> print_endline "UNEXPECTED: dynamic relation verified as hybrid"
   | Error ce ->
     Format.printf "dynamic relation rejected as hybrid, counterexample:@.  %a@.@."
       Hybrid_dep.pp_counterexample ce);
  let static_rel = Static_dep.minimal Double_buffer.spec in
  Printf.printf "static relation verifies as hybrid (Thm 4): %b\n"
    (Hybrid_dep.is_hybrid_dependency checker static_rel);
  (* The paper's own witness history through the atomicity checkers. *)
  let extended =
    Behavioral.Begin (Action.of_string "D")
    :: (Paper.theorem12_history
       @ [ Behavioral.Exec (Paper.theorem12_appended, Action.of_string "D") ])
  in
  Printf.printf "paper witness H hybrid atomic: %b; H+[Consume();Ok(x) D]: %b\n"
    (Atomicity.is_hybrid_atomic Double_buffer.spec Paper.theorem12_history)
    (Atomicity.is_hybrid_atomic Double_buffer.spec extended)

(* ------------------------------------------------------------------ *)
(* E8 — replicated-object simulation under faults                        *)
(* ------------------------------------------------------------------ *)

let e8_simulation () =
  section "E8 (section 3.2): replicated queue on the simulator, under faults";
  let table =
    Table.create ~title:"crash/recover faults: 120 transactions, 3 sites, majority quorums"
      ~columns:
        [ "scheme"; "mtbf"; "committed"; "aborted"; "unavailable"; "conflict";
          "mean latency" ]
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun mtbf ->
          let faults net =
            if mtbf > 0.0 then
              Atomrep_sim.Fault.crash_recover_all net ~mtbf ~mttr:150.0
          in
          let cfg =
            {
              Runtime.default_config with
              scheme;
              n_txns = 120;
              seed = 1985;
              install_faults = faults;
            }
          in
          let outcome = Runtime.run cfg in
          let m = outcome.Runtime.metrics in
          let atomic = Runtime.check_atomicity cfg outcome = [] in
          Table.add_row table
            [
              Replicated.scheme_name scheme ^ (if atomic then "" else " (VIOLATION!)");
              (if mtbf > 0.0 then Printf.sprintf "%.0f" mtbf else "none");
              Table.cell_int m.Runtime.committed;
              Table.cell_int m.Runtime.aborted;
              Table.cell_int m.Runtime.unavailable_aborts;
              Table.cell_int m.Runtime.conflict_aborts;
              Printf.sprintf "%.1f" (Summary.mean m.Runtime.txn_latency);
            ])
        [ 0.0; 800.0; 400.0; 200.0 ])
    [ Replicated.Hybrid; Replicated.Static; Replicated.Locking ];
  Table.print table;
  (* Partition comparison: §2's claim about available copies. *)
  let ac =
    Available_copies.run ~seed:3 ~n_sites:4 ~txns_per_side:2 ~partition_at:100.0
      ~heal_at:200.0 ()
  in
  let qc_committed, qc_aborted, qc_serializable =
    Available_copies.quorum_reference ~seed:3 ~n_sites:4 ~txns_per_side:2
      ~partition_at:100.0 ~heal_at:200.0 ()
  in
  let table2 =
    Table.create ~title:"partition (two halves) — available copies vs quorum consensus"
      ~columns:[ "method"; "committed"; "aborted"; "serializable" ]
  in
  Table.add_row table2
    [
      "available copies";
      Table.cell_int ac.Available_copies.committed;
      "0";
      string_of_bool ac.Available_copies.serializable;
    ];
  Table.add_row table2
    [
      "quorum consensus (hybrid)";
      Table.cell_int qc_committed;
      Table.cell_int qc_aborted;
      string_of_bool qc_serializable;
    ];
  Table.print table2;
  print_endline
    "Shape check: available copies commits on both sides of the partition\n\
     and loses serializability; quorum consensus sacrifices the minority\n\
     side's transactions and stays serializable (paper, section 2)."

(* ------------------------------------------------------------------ *)
(* E9 — concurrency under contention                                    *)
(* ------------------------------------------------------------------ *)

let e9_concurrency_sim () =
  section "E9: scheme concurrency under contention (simulator)";
  let run scheme spec relation assignment script label table =
    let cfg =
      {
        Runtime.default_config with
        scheme;
        n_txns = 100;
        seed = 77;
        arrival_mean = 6.0;
        (* high contention: arrivals faster than one txn's round trips *)
        objects =
          [
            {
              Runtime.obj_name = "obj";
              obj_spec = spec;
              obj_relation = relation;
              obj_assignment = assignment;
            obj_members = None;
            };
          ];
        script;
      }
    in
    let outcome = Runtime.run cfg in
    let m = outcome.Runtime.metrics in
    let atomic = Runtime.check_atomicity cfg outcome = [] in
    Table.add_row table
      [
        label;
        Replicated.scheme_name scheme ^ (if atomic then "" else " (VIOLATION!)");
        Table.cell_int m.Runtime.committed;
        Table.cell_int m.Runtime.conflict_aborts;
        Table.cell_int m.Runtime.rejected_aborts;
        Table.cell_int m.Runtime.blocked_waits;
        Printf.sprintf "%.1f" (Summary.mean m.Runtime.txn_latency);
      ]
  in
  let table =
    Table.create ~title:"100 transactions, 3 sites, high contention"
      ~columns:
        [ "workload"; "scheme"; "committed"; "conflict ab."; "rejected ab.";
          "blocked waits"; "mean latency" ]
  in
  let majority op_list =
    Assignment.make ~n_sites:3
      (List.map (fun op -> (op, { Assignment.initial = 2; final = 2 })) op_list)
  in
  let workload label spec ops script =
    let relation = Static_dep.minimal spec in
    List.iter
      (fun scheme -> run scheme spec relation (majority ops) script label table)
      [ Replicated.Hybrid; Replicated.Static; Replicated.Locking ]
  in
  (* PROM write-heavy workload: hybrid's Write/Write freedom shows. *)
  workload "PROM writes" Prom.spec [ "Read"; "Seal"; "Write" ]
    (Atomrep_workload.Mixes.prom_mix ~seal_every:1000 ~target:"obj" ());
  (* Counter workload: commuting increments — all lock-free under
     type-specific analysis. *)
  workload "Counter inc/dec" Counter.spec [ "Inc"; "Dec"; "Read" ]
    (Atomrep_workload.Mixes.counter_mix ~read_ratio:0.2 ~target:"obj" ());
  (* Queue workload: every pair of operations conflicts somewhere. *)
  workload "Queue enq/deq" Queue_type.spec [ "Enq"; "Deq" ]
    (Atomrep_workload.Mixes.queue_mix ~enq_ratio:0.6 ~target:"obj" ());
  Table.print table;
  print_endline
    "Shape check (paper, sections 1 and 6): hybrid atomicity permits more\n\
     concurrency than strong dynamic atomicity — on PROM writes and on the\n\
     enqueue-heavy queue, locking's commutativity conflicts (Write/Write,\n\
     Enq/Enq) collapse throughput while hybrid sails through. On the\n\
     commuting counter all three are conflict-free. Static is incomparable\n\
     with hybrid: it avoids some blocking but pays timestamp-order\n\
     rejections (visible in the counter row)."

(* ------------------------------------------------------------------ *)
(* E10 — type-specific vs read/write classification                     *)
(* ------------------------------------------------------------------ *)

let read_write_classification spec =
  (* An operation is a Read iff no reachable invocation of it changes the
     state (bounded exploration); otherwise Update (read-modify-write) —
     the conservative classical classification. *)
  let states = Serial_spec.reachable spec ~max_len:3 in
  let changes op =
    List.exists
      (fun (_, state) ->
        List.exists
          (fun (inv : Event.Invocation.t) ->
            String.equal inv.op op
            && List.exists
                 (fun (_, state') -> not (Value.equal state state'))
                 (Serial_spec.responses spec state inv))
          spec.Serial_spec.invocations)
      states
  in
  List.map (fun op -> (op, if changes op then `Update else `Read)) (ops_of spec)

let e10_read_write_ablation () =
  section "E10: type-specific constraints vs read/write classification";
  print_endline
    "The same types analyzed (a) with the paper's type-specific minimal\n\
     static relation and (b) with the classical read/write classification\n\
     (every operation must see every state-modifying operation).\n";
  let table =
    Table.create ~title:"n=4, p=0.9, uniform operation mix"
      ~columns:
        [ "type"; "assignments (typed)"; "assignments (r/w)"; "best avail (typed)";
          "best avail (r/w)" ]
  in
  List.iter
    (fun spec ->
      let ops = ops_of spec in
      let mix = List.map (fun op -> (op, 1.0)) ops in
      let typed_cs = Op_constraint.of_relation (Static_dep.minimal spec) in
      let rw_cs = Op_constraint.read_write ~ops:(read_write_classification spec) in
      let typed = Assignment.enumerate ~n_sites:4 ~ops typed_cs in
      let rw = Assignment.enumerate ~n_sites:4 ~ops rw_cs in
      let best l =
        match Assignment.best_for_mix ~p:0.9 ~mix l with
        | None -> 0.0
        | Some a -> Assignment.workload_availability a ~p:0.9 ~mix
      in
      Table.add_row table
        [
          spec.Serial_spec.name;
          Table.cell_int (List.length typed);
          Table.cell_int (List.length rw);
          Table.cell_float (best typed);
          Table.cell_float (best rw);
        ])
    [ Counter.spec; Wset.spec; Queue_type.spec; Prom.spec; Register.spec ];
  Table.print table;
  print_endline
    "Shape check: the assignment counts are not directly comparable (the\n\
     two analyses constrain different quorum pairs), but the best\n\
     achievable availability under type-specific constraints is at least\n\
     that of the read/write classification, strictly better where the\n\
     type's structure helps (Counter's commuting increments, Queue's\n\
     Enq/Enq freedom); the Register is the degenerate case where the\n\
     classifications coincide (paper, section 2)."

(* ------------------------------------------------------------------ *)
(* E11 — weighted voting on heterogeneous sites                         *)
(* ------------------------------------------------------------------ *)

let e11_weighted_voting () =
  section "E11 (extension, Gifford): weighted voting on unreliable sites";
  print_endline
    "Five sites; site 0 is reliable (p=0.99), the rest flaky (p=0.70).\n\
     Register under its type-specific static constraints. Weighted voting\n\
     (weights 3,1,1,1,1) can concentrate quorums on the reliable site.\n";
  let constraints = Op_constraint.of_relation (Static_dep.minimal Register.spec) in
  let ops = [ "Read"; "Write" ] in
  let p_up = [| 0.99; 0.7; 0.7; 0.7; 0.7 |] in
  let mix = [ ("Read", 1.0); ("Write", 1.0) ] in
  (* Uniform thresholds = weighted voting with unit weights. *)
  let uniform_all = Weighted.enumerate ~weights:(Array.make 5 1) ~ops constraints in
  let weighted_all = Weighted.enumerate ~weights:[| 3; 1; 1; 1; 1 |] ~ops constraints in
  let table =
    Table.create ~title:"best assignment per vote structure (p0=0.99, others 0.70)"
      ~columns:[ "votes"; "Read (vi,vf)"; "Write (vi,vf)"; "avail Read"; "avail Write"; "mix avail" ]
  in
  let report label all =
    match Weighted.best_for_mix ~p_up ~mix all with
    | None -> Table.add_row table [ label; "-"; "-"; "-"; "-"; "-" ]
    | Some best ->
      let show op =
        let vi, vf = List.assoc op best.Weighted.ops in
        Printf.sprintf "(%d,%d)" vi vf
      in
      let avail op = Weighted.availability_hetero best ~p_up op in
      let mix_avail =
        0.5 *. avail "Read" +. 0.5 *. avail "Write"
      in
      Table.add_row table
        [
          label; show "Read"; show "Write";
          Table.cell_float (avail "Read");
          Table.cell_float (avail "Write");
          Table.cell_float mix_avail;
        ]
  in
  report "1,1,1,1,1 (uniform)" uniform_all;
  report "3,1,1,1,1 (weighted)" weighted_all;
  Table.print table;
  print_endline
    "Shape check: weighting the reliable site raises availability over the\n\
     best uniform threshold assignment — the refinement the paper's\n\
     section 2 credits to Gifford, expressed in the same constraint\n\
     language as the type-specific analysis."

(* ------------------------------------------------------------------ *)
(* E12 — availability under partitions                                  *)
(* ------------------------------------------------------------------ *)

let e12_partition_availability () =
  section "E12 (extension, section 3 fault model): PROM availability under partitions";
  let n = 5 in
  let mk quorums =
    Assignment.make ~n_sites:n
      (List.map (fun (op, (i, f)) -> (op, { Assignment.initial = i; final = f })) quorums)
  in
  let hybrid_assignment = mk (Paper.prom_hybrid_quorums ~n) in
  let static_assignment = mk (Paper.prom_static_quorums ~n) in
  let table =
    Table.create
      ~title:
        "Exact availability, p(site up)=0.95, client at site 0"
      ~columns:
        [ "p(partition {0,1}|{2,3,4})"; "Write hyb"; "Write sta"; "Read hyb";
          "Seal (both)" ]
  in
  List.iter
    (fun p_part ->
      let model =
        {
          Partition_availability.p_up = Array.make n 0.95;
          partition_probability = p_part;
          groups = [ [ 0; 1 ]; [ 2; 3; 4 ] ];
        }
      in
      let est a op = Partition_availability.exact model ~client_site:0 a ~op in
      Table.add_row table
        [
          Printf.sprintf "%.2f" p_part;
          Table.cell_float (est hybrid_assignment "Write");
          Table.cell_float (est static_assignment "Write");
          Table.cell_float (est hybrid_assignment "Read");
          Table.cell_float (est hybrid_assignment "Seal");
        ])
    [ 0.0; 0.2; 0.5; 0.9 ];
  Table.print table;
  print_endline
    "Shape check: hybrid's one-site Write quorum is indifferent to\n\
     partitions (the client's own side always suffices), while static's\n\
     all-sites Write quorum fails whenever the network splits — quorum\n\
     consensus degrades gracefully but asymmetrically across operations,\n\
     and Seal pays the price under both properties."

(* ------------------------------------------------------------------ *)
(* E13 — anti-entropy ablation                                          *)
(* ------------------------------------------------------------------ *)

let e13_anti_entropy () =
  section "E13 (extension): status gossip (anti-entropy) under faults";
  print_endline
    "Quorum intersection makes gossip unnecessary for safety; it shortens\n\
     the window in which commit/abort records are missing at some sites\n\
     (lost broadcasts, recovered repositories), which shows up as blocked\n\
     waits and conflict aborts. Hybrid scheme, crash/recover faults.\n";
  let table =
    Table.create ~title:"120 transactions, 3 sites, mtbf=300 mttr=150"
      ~columns:
        [ "gossip period"; "committed"; "aborted"; "conflict ab."; "blocked waits";
          "mean latency" ]
  in
  List.iter
    (fun anti_entropy_every ->
      let cfg =
        {
          Runtime.default_config with
          scheme = Replicated.Hybrid;
          n_txns = 120;
          seed = 4242;
          anti_entropy_every;
          install_faults =
            (fun net -> Atomrep_sim.Fault.crash_recover_all net ~mtbf:300.0 ~mttr:150.0);
        }
      in
      let outcome = Runtime.run cfg in
      let m = outcome.Runtime.metrics in
      let atomic = Runtime.check_atomicity cfg outcome = [] in
      Table.add_row table
        [
          (match anti_entropy_every with
           | None -> "none"
           | Some t -> Printf.sprintf "%.0f" t)
          ^ (if atomic then "" else " (VIOLATION!)");
          Table.cell_int m.Runtime.committed;
          Table.cell_int m.Runtime.aborted;
          Table.cell_int m.Runtime.conflict_aborts;
          Table.cell_int m.Runtime.blocked_waits;
          Printf.sprintf "%.1f" (Summary.mean m.Runtime.txn_latency);
        ])
    [ None; Some 100.0; Some 25.0 ];
  Table.print table;
  print_endline
    "Shape check: gossip never changes the atomicity verdict (safety is\n\
     the quorums' job) and tends to reduce blocking by resolving stale\n\
     tentative entries sooner."

(* ------------------------------------------------------------------ *)

let all =
  [
    ("e1", "Figure 1-1: concurrency comparison", e1_concurrency);
    ("e2", "Figure 1-2: availability comparison", e2_availability);
    ("e3", "PROM quorum example (section 4)", e3_prom);
    ("e4", "Theorems 4/5/6 on PROM", e4_static_vs_hybrid);
    ("e5", "FlagSet minimal hybrid relations (section 4)", e5_flagset);
    ("e6", "Queue, Theorem 11", e6_queue);
    ("e7", "DoubleBuffer, Theorem 12", e7_doublebuffer);
    ("e8", "replication under faults (section 3.2, section 2)", e8_simulation);
    ("e9", "scheme concurrency under contention", e9_concurrency_sim);
    ("e10", "type-specific vs read/write ablation", e10_read_write_ablation);
    ("e11", "weighted voting on heterogeneous sites", e11_weighted_voting);
    ("e12", "availability under partitions (exact)", e12_partition_availability);
    ("e13", "anti-entropy ablation", e13_anti_entropy);
  ]

let run_by_id id =
  match List.find_opt (fun (i, _, _) -> String.equal i id) all with
  | Some (_, _, run) ->
    run ();
    true
  | None -> false
