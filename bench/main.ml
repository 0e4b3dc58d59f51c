(* Benchmark harness.

   Usage:
     dune exec bench/main.exe              — run every experiment (E1..E10)
                                             and the Bechamel micro-benchmarks
     dune exec bench/main.exe -- e3 e5     — run selected experiments only
     dune exec bench/main.exe -- micro     — micro-benchmarks only
     dune exec bench/main.exe -- chaos     — timed chaos campaign sweep
     dune exec bench/main.exe -- reconfig  — reconfiguration campaign + on/off
                                             committed-throughput comparison
     dune exec bench/main.exe -- json      — machine-readable BENCH_3.json
                                             (per-scheme throughput, abort
                                             breakdown, latency percentiles,
                                             tracing on/off wall-clock)
     dune exec bench/main.exe -- storage   — machine-readable BENCH_4.json
                                             (per-durability-mode throughput
                                             under crash+amnesia, recovery
                                             replay/cost percentiles, and the
                                             checkpoint-compaction ablation)
     dune exec bench/main.exe -- termination — machine-readable BENCH_5.json
                                             (per-termination-mode throughput,
                                             stranded tentative entries, and
                                             blocked-latency percentiles under
                                             the coordinator-killer nemesis)
     dune exec bench/main.exe -- takeover  — machine-readable BENCH_6.json
                                             (cooperative vs takeover mode under
                                             the coordinator-killer nemesis:
                                             adopted commits, lease/fence
                                             counters, and a monitor-gated
                                             takeover_storm campaign)
     dune exec bench/main.exe -- perf      — machine-readable BENCH_8.json
                                             (per-scheme committed/s, the
                                             profiling / tracing / sampled
                                             tracing overhead ratios, the
                                             zero-monitor-loss fidelity
                                             check, profile and time-series
                                             snapshots)
     dune exec bench/main.exe -- explore   — machine-readable BENCH_7.json
                                             (monitored seed-sweep explorer:
                                             healthy hardened sweep, 1-domain
                                             vs N-domain wall-clock, the
                                             ungated-rejoin sweep's shrunk
                                             reproducer, fixture replays)
     dune exec bench/main.exe -- load      — machine-readable BENCH_9.json
                                             (open-loop offered-load-vs-goodput
                                             curves, admission on vs off, the
                                             goodput-at-the-knee headline)
     dune exec bench/main.exe -- gray      — machine-readable BENCH_10.json
                                             (gray-failure mitigation: p50/p99
                                             commit latency and goodput under
                                             one and three fail-slow sites,
                                             hedging x demotion ablation grid,
                                             the p99-speedup headline)

   Each experiment regenerates one of the paper's figures or worked
   examples (see DESIGN.md's experiment index and EXPERIMENTS.md for the
   paper-vs-measured record). The micro section times the analysis kernels
   with Bechamel, one Test.make per experiment family. *)

open Atomrep_spec
open Atomrep_core

let run_experiments ids =
  match ids with
  | [] -> List.iter (fun (_, _, run) -> run ()) Atomrep_experiments.Experiments.all
  | ids ->
    List.iter
      (fun id ->
        if not (Atomrep_experiments.Experiments.run_by_id id) then
          Printf.eprintf "unknown experiment %S; known: %s\n" id
            (String.concat ", "
               (List.map (fun (i, _, _) -> i) Atomrep_experiments.Experiments.all)))
      ids

(* --- Bechamel micro-benchmarks: one Test.make per experiment family --- *)

let micro_tests () =
  let open Bechamel in
  let legality =
    (* E1/E4 kernel: serial-history legality checking. *)
    let history =
      [
        Queue_type.enq "x"; Queue_type.enq "y"; Queue_type.deq_ok "x";
        Queue_type.enq "x"; Queue_type.deq_ok "y"; Queue_type.deq_ok "x";
        Queue_type.deq_empty;
      ]
    in
    Test.make ~name:"legality: 7-event queue history"
      (Staged.stage (fun () -> ignore (Serial_spec.legal Queue_type.spec history)))
  in
  let atomicity_check =
    let h = Paper.theorem5_history in
    Test.make ~name:"atomicity: hybrid check, Thm5 history"
      (Staged.stage (fun () ->
           ignore (Atomrep_atomicity.Atomicity.is_hybrid_atomic Prom.spec h)))
  in
  let static_minimal =
    Test.make ~name:"Theorem 6: minimal static relation (queue, len 4)"
      (Staged.stage (fun () -> ignore (Static_dep.minimal Queue_type.spec ~max_len:4)))
  in
  let dynamic_minimal =
    Test.make ~name:"Theorem 10: minimal dynamic relation (queue, len 4)"
      (Staged.stage (fun () -> ignore (Dynamic_dep.minimal Queue_type.spec ~max_len:4)))
  in
  let hybrid_checker =
    Test.make ~name:"Definition 2: hybrid checker build (PROM, e3 a2)"
      (Staged.stage (fun () ->
           ignore (Hybrid_dep.make_checker Prom.spec ~max_events:3 ~max_actions:2)))
  in
  let hybrid_verify =
    let checker = Hybrid_dep.make_checker Prom.spec ~max_events:4 ~max_actions:3 in
    Test.make ~name:"Definition 2: verify one relation (PROM, e4 a3)"
      (Staged.stage (fun () ->
           ignore (Hybrid_dep.is_hybrid_dependency checker Paper.prom_hybrid_relation)))
  in
  let availability =
    let open Atomrep_quorum in
    let constraints = Op_constraint.of_relation Paper.prom_hybrid_relation in
    Test.make ~name:"E2/E3 kernel: enumerate assignments (PROM, n=4)"
      (Staged.stage (fun () ->
           ignore
             (Assignment.enumerate ~n_sites:4 ~ops:[ "Read"; "Seal"; "Write" ]
                constraints)))
  in
  let simulator =
    Test.make ~name:"E8/E9 kernel: 20-txn simulation run"
      (Staged.stage (fun () ->
           ignore
             (Atomrep_replica.Runtime.run
                { Atomrep_replica.Runtime.default_config with n_txns = 20 })))
  in
  let log_merge =
    let open Atomrep_replica in
    let open Atomrep_clock in
    let mk offset =
      List.fold_left
        (fun log i ->
          Log.add log
            (Log.Entry
               {
                 Log.ets = { Lamport.Timestamp.counter = offset + i; site = 0 };
                 action = Atomrep_history.Action.of_int (i mod 5);
                 begin_ts = { Lamport.Timestamp.counter = offset + i; site = 0 };
                 seq = i;
                 event = Queue_type.enq "x";
               }))
        Log.empty
        (List.init 50 Fun.id)
    in
    let l1 = mk 0 and l2 = mk 25 in
    Test.make ~name:"replica kernel: 50-entry log merge"
      (Staged.stage (fun () -> ignore (Log.merge l1 l2)))
  in
  [
    legality; atomicity_check; static_minimal; dynamic_minimal; hybrid_checker;
    hybrid_verify; availability; simulator; log_merge;
  ]

let run_micro () =
  let open Bechamel in
  print_newline ();
  print_endline "Bechamel micro-benchmarks";
  print_endline "=========================";
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    Benchmark.all cfg instances test
  in
  let analyze raw =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-55s %14.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-55s (no estimate)\n%!" name)
        results)
    (micro_tests ())

(* Chaos campaign entry: a wall-clock-timed sweep over every scheme and
   fault profile — the throughput number to watch when optimizing the
   simulator or the atomicity checkers. *)
let run_chaos () =
  let module Campaign = Atomrep_chaos.Campaign in
  print_newline ();
  print_endline "Chaos campaign (3 schemes x all profiles x 5 seeds)";
  print_endline "===================================================";
  let t0 = Unix.gettimeofday () in
  let report =
    Campaign.run_campaign
      ~schemes:
        Atomrep_replica.Replicated.[ Static; Hybrid; Locking ]
      ~profiles:Campaign.builtin_profiles ~seeds:5 ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Format.printf "%a" Campaign.pp_report report;
  Printf.printf "campaign wall time: %.2f s (%.1f runs/s)\n" elapsed
    (float_of_int report.Campaign.total_runs /. elapsed)

(* Reconfiguration entry: (1) a >= 400-run campaign with the staggered-kill
   and crash-storm nemeses under the reconfiguration base, gating on zero
   violations; (2) a committed-throughput comparison with the coordinator
   on vs. off while a majority-breaking subset of the original five sites
   is permanently killed — the availability payoff of Theorems 10-12. *)
let run_reconfig () =
  let module Campaign = Atomrep_chaos.Campaign in
  let module Runtime = Atomrep_replica.Runtime in
  print_newline ();
  print_endline "Reconfiguration campaign (3 schemes x {crashes,kills} x 67 seeds)";
  print_endline "==================================================================";
  let profiles =
    List.filter
      (fun p -> List.mem p.Campaign.profile_name [ "crashes"; "kills" ])
      Campaign.builtin_profiles
  in
  let t0 = Unix.gettimeofday () in
  let report =
    Campaign.run_campaign ~base:Campaign.reconfig_base
      ~schemes:Atomrep_replica.Replicated.[ Static; Hybrid; Locking ]
      ~profiles ~seeds:67 ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Format.printf "%a" Campaign.pp_report report;
  Printf.printf "campaign wall time: %.2f s (%.1f runs/s)\n" elapsed
    (float_of_int report.Campaign.total_runs /. elapsed);
  print_newline ();
  print_endline "Committed throughput under majority-breaking site loss (hybrid)";
  print_endline "---------------------------------------------------------------";
  let kills =
    Atomrep_chaos.Nemesis.Staggered_kill
      { start = 3000.0; gap = 4000.0; victims = [ 4; 3; 2 ] }
  in
  let base_cfg reconfig =
    {
      Campaign.reconfig_base with
      Runtime.scheme = Atomrep_replica.Replicated.Hybrid;
      n_txns = 200;
      arrival_mean = 100.0;
      horizon = 25_000.0;
      install_faults = (fun net -> Atomrep_chaos.Nemesis.install kills net);
      reconfig = (if reconfig then Some Runtime.default_reconfig else None);
    }
  in
  let totals reconfig =
    List.fold_left
      (fun (c, e) seed ->
        let outcome = Runtime.run { (base_cfg reconfig) with Runtime.seed } in
        let m = outcome.Runtime.metrics in
        (c + m.Runtime.committed, max e m.Runtime.final_epoch))
      (0, 0)
      [ 0; 1; 2; 3; 4 ]
  in
  let off, _ = totals false in
  let on, epochs = totals true in
  Printf.printf
    "  kills at t=3000/7000/11000 of horizon 25000 (majority of 5 dead by \
     t=11000), 200 txns x 5 seeds\n";
  Printf.printf "  reconfiguration off: %d committed\n" off;
  Printf.printf "  reconfiguration on:  %d committed (deepest epoch %d)\n" on epochs;
  if on > off then print_endline "  => reconfiguration strictly improves committed ops"
  else print_endline "  => WARNING: no improvement measured"

(* Machine-readable benchmark record: one fixed-seed run of the default
   3-site replicated queue per scheme (committed ops, abort breakdown,
   transaction-latency percentiles) plus the tracing on/off wall-clock
   comparison. Written to BENCH_<n_sites>.json; the schema is documented in
   EXPERIMENTS.md. *)
let run_json () =
  let module Runtime = Atomrep_replica.Runtime in
  let module Replicated = Atomrep_replica.Replicated in
  let module Json = Atomrep_obs.Json in
  let module Summary = Atomrep_stats.Summary in
  let seed = 42 and n_txns = 200 in
  let n_sites = Runtime.default_config.Runtime.n_sites in
  (* Per-scheme conflict relations: the locking scheme's conflict tables
     come from its dynamic dependency relation (Theorem 10), the timestamp
     schemes from the static one (Theorem 6). Giving every scheme the
     static relation — the old behavior — made the hybrid and locking rows
     byte-identical, because the drivers only differ in their conflict
     tables on this fault-free workload. *)
  let relation_for scheme =
    match scheme with
    | Replicated.Locking -> Dynamic_dep.minimal Queue_type.spec ~max_len:4
    | Replicated.Hybrid | Replicated.Static ->
      Static_dep.minimal Queue_type.spec ~max_len:4
  in
  let cfg scheme trace =
    let objects =
      List.map
        (fun o -> { o with Runtime.obj_relation = relation_for scheme })
        Runtime.default_config.Runtime.objects
    in
    { Runtime.default_config with Runtime.seed; n_txns; scheme; trace; objects }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let scheme_entry scheme =
    let outcome, wall = time (fun () -> Runtime.run (cfg scheme None)) in
    let m = outcome.Runtime.metrics in
    let lat = m.Runtime.txn_latency in
    Json.Obj
      [
        ("scheme", Json.Str (Replicated.scheme_name scheme));
        ("wall_s", Json.Num wall);
        ( "committed_per_s",
          Json.Num
            (if wall > 0.0 then float_of_int m.Runtime.committed /. wall else 0.0) );
        ("committed", Json.int m.Runtime.committed);
        ("aborted", Json.int m.Runtime.aborted);
        ( "aborts",
          Json.Obj
            [
              ("unavailable", Json.int m.Runtime.unavailable_aborts);
              ("rejected", Json.int m.Runtime.rejected_aborts);
              ("conflict", Json.int m.Runtime.conflict_aborts);
            ] );
        ("ops_done", Json.int m.Runtime.ops_done);
        ("blocked_waits", Json.int m.Runtime.blocked_waits);
        ( "txn_latency",
          Json.Obj
            [
              ("count", Json.int (Summary.count lat));
              ("mean", Json.Num (Summary.mean lat));
              ("p50", Json.Num (Summary.percentile lat 0.5));
              ("p95", Json.Num (Summary.percentile lat 0.95));
              ("p99", Json.Num (Summary.percentile lat 0.99));
              ("max", Json.Num (Summary.max_value lat));
            ] );
        ("msgs_sent", Json.int m.Runtime.msgs_sent);
        ("sim_duration", Json.Num m.Runtime.duration);
      ]
  in
  let hybrid = Replicated.Hybrid in
  let _, off_s = time (fun () -> Runtime.run (cfg hybrid None)) in
  let tr = Atomrep_obs.Trace.create ~n_sites () in
  let _, on_s = time (fun () -> Runtime.run (cfg hybrid (Some tr))) in
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "replicated-queue");
        ("n_sites", Json.int n_sites);
        ("seed", Json.int seed);
        ("n_txns", Json.int n_txns);
        ( "schemes",
          Json.List (List.map scheme_entry Replicated.[ Static; Hybrid; Locking ]) );
        ( "tracing_overhead",
          Json.Obj
            [
              ("off_s", Json.Num off_s);
              ("on_s", Json.Num on_s);
              ("ratio", Json.Num (if off_s > 0.0 then on_s /. off_s else 0.0));
              ("trace_events", Json.int (Atomrep_obs.Trace.length tr));
            ] );
      ]
  in
  let path = Printf.sprintf "BENCH_%d.json" n_sites in
  Atomrep_obs.Export.write_file path (Json.to_string doc);
  Printf.printf "wrote %s (tracing overhead: %.3fs off, %.3fs on, %d events)\n" path
    off_s on_s (Atomrep_obs.Trace.length tr)

(* Storage benchmark record: the durability-mode cost/benefit sheet.
   (1) per-mode (none / wal / wal-group-commit) committed throughput under
   an amnesia-heavy fixed-seed crash workload, with WAL flush/checkpoint
   counters and recovery replay-length and modeled-recovery-time
   percentiles aggregated over the seeds; (2) a checkpoint-compaction
   on/off ablation showing how compaction bounds replay length. Written to
   BENCH_4.json; the schema is documented in EXPERIMENTS.md. *)
let run_storage () =
  let module Runtime = Atomrep_replica.Runtime in
  let module Repository = Atomrep_replica.Repository in
  let module Json = Atomrep_obs.Json in
  let module Summary = Atomrep_stats.Summary in
  let n_txns = 120 and seeds = [ 0; 1; 2; 3; 4 ] in
  let cfg ~seed durability =
    {
      Runtime.default_config with
      Runtime.seed;
      n_txns;
      scheme = Atomrep_replica.Replicated.Hybrid;
      horizon = 40_000.0;
      install_faults =
        (fun net ->
          Atomrep_sim.Fault.crash_amnesia_recover_all net ~mtbf:600.0 ~mttr:120.0);
      durability;
    }
  in
  let summary_json s =
    Json.Obj
      [
        ("count", Json.int (Summary.count s));
        ("mean", Json.Num (Summary.mean s));
        ("p50", Json.Num (Summary.percentile s 0.5));
        ("p95", Json.Num (Summary.percentile s 0.95));
        ("max", Json.Num (Summary.max_value s));
      ]
  in
  (* Run one durability mode over every seed and aggregate: counters are
     summed, the per-run recovery summaries are pooled observation-wise. *)
  let measure durability =
    let committed = ref 0 and aborted = ref 0 in
    let flushes = ref 0 and flushed = ref 0 and ckpts = ref 0 in
    let recoveries = ref 0 and corrupt = ref 0 in
    let replay = Summary.create () and cost = Summary.create () in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun seed ->
        let m = (Runtime.run (cfg ~seed durability)).Runtime.metrics in
        committed := !committed + m.Runtime.committed;
        aborted := !aborted + m.Runtime.aborted;
        flushes := !flushes + m.Runtime.wal_flushes;
        flushed := !flushed + m.Runtime.wal_flushed_records;
        ckpts := !ckpts + m.Runtime.wal_checkpoints;
        recoveries := !recoveries + m.Runtime.recoveries;
        corrupt := !corrupt + m.Runtime.recoveries_corrupt;
        List.iter (Summary.add replay) (Summary.observations m.Runtime.recovery_replay);
        List.iter (Summary.add cost) (Summary.observations m.Runtime.recovery_cost))
      seeds;
    let wall = Unix.gettimeofday () -. t0 in
    ( !committed,
      Json.Obj
        [
          ("committed", Json.int !committed);
          ("aborted", Json.int !aborted);
          ("wall_s", Json.Num wall);
          ( "committed_per_s",
            Json.Num (if wall > 0.0 then float_of_int !committed /. wall else 0.0) );
          ("wal_flushes", Json.int !flushes);
          ("wal_flushed_records", Json.int !flushed);
          ("wal_checkpoints", Json.int !ckpts);
          ("recoveries", Json.int !recoveries);
          ("recoveries_corrupt", Json.int !corrupt);
          ("recovery_replay", summary_json replay);
          ("recovery_cost_ms", summary_json cost);
        ] )
  in
  print_newline ();
  print_endline "Storage benchmark (amnesia-heavy workload, 5 seeds per mode)";
  print_endline "============================================================";
  let mode_entry (name, durability) =
    let committed, entry = measure durability in
    Printf.printf "  %-16s committed=%d\n%!" name committed;
    (name, entry)
  in
  let modes =
    [
      ("none", Repository.Volatile);
      ("wal", Repository.durable ~segment_records:16 ~checkpoint_every:48 ());
      ( "wal-group-commit",
        Repository.durable ~group_commit:true ~segment_records:16
          ~checkpoint_every:48 () );
    ]
  in
  let mode_entries = List.map mode_entry modes in
  (* Compaction ablation: same WAL, checkpointing effectively disabled vs
     the aggressive period above — the delta is the replay length (and
     modeled recovery time) that checkpoint compaction buys. *)
  let ablation =
    List.map
      (fun (name, checkpoint_every) ->
        let _, entry =
          measure
            (Repository.durable ~segment_records:16 ~checkpoint_every ())
        in
        Printf.printf "  compaction %-4s (checkpoint_every=%d)\n%!" name
          checkpoint_every;
        (name, entry))
      [ ("on", 48); ("off", 1_000_000) ]
  in
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "durability-modes");
        ("n_sites", Json.int Runtime.default_config.Runtime.n_sites);
        ("seeds", Json.List (List.map Json.int seeds));
        ("n_txns", Json.int n_txns);
        ("workload", Json.Str "hybrid, crash+amnesia mtbf=600 mttr=120");
        ("modes", Json.Obj (List.map (fun (n, e) -> (n, e)) mode_entries));
        ("compaction_ablation", Json.Obj ablation);
      ]
  in
  Atomrep_obs.Export.write_file "BENCH_4.json" (Json.to_string doc);
  print_endline "wrote BENCH_4.json"

(* Termination benchmark record: what crash-safe termination buys (and
   costs) under the coordinator-killer nemesis — commit-window ambushes of
   coordinator home sites. Per termination mode (none / presumed-abort-only
   / cooperative, the last with deadlock detection) over fixed seeds:
   committed throughput, the abort breakdown including presumed and
   cooperative aborts, stranded tentative entries left at the horizon (the
   headline: nonzero under `none', zero under `cooperative'), decision-log
   and redrive counters, blocked-operation latency percentiles, and the
   oracle verdict for every run. Written to BENCH_5.json; the schema is
   documented in EXPERIMENTS.md. *)
let run_termination () =
  let module Runtime = Atomrep_replica.Runtime in
  let module Campaign = Atomrep_chaos.Campaign in
  let module Json = Atomrep_obs.Json in
  let module Summary = Atomrep_stats.Summary in
  let n_txns = 120 and seeds = [ 0; 1; 2; 3; 4 ] in
  let profile =
    match Campaign.find_profile "coordinator_killer" with
    | Some p -> p
    | None -> failwith "coordinator_killer profile missing"
  in
  let cfg ~seed ~termination ~deadlock =
    {
      Runtime.default_config with
      Runtime.seed;
      n_txns;
      scheme = Atomrep_replica.Replicated.Hybrid;
      horizon = 40_000.0;
      install_faults =
        (fun net -> Atomrep_chaos.Nemesis.install profile.Campaign.nemesis net);
      termination;
      deadlock;
    }
  in
  let summary_json s =
    Json.Obj
      [
        ("count", Json.int (Summary.count s));
        ("mean", Json.Num (Summary.mean s));
        ("p50", Json.Num (Summary.percentile s 0.5));
        ("p95", Json.Num (Summary.percentile s 0.95));
        ("p99", Json.Num (Summary.percentile s 0.99));
        ("max", Json.Num (Summary.max_value s));
      ]
  in
  let measure ~termination ~deadlock =
    let committed = ref 0 and aborted = ref 0 in
    let stranded = ref 0 and violations = ref 0 in
    let coop_c = ref 0 and coop_a = ref 0 and presumed = ref 0 in
    let deadlocks = ref 0 and redrives = ref 0 and orphans = ref 0 in
    let decisions = ref 0 in
    let blocked = Summary.create () in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun seed ->
        let outcome, failures =
          Atomrep_chaos.Monitors.check_run (cfg ~seed ~termination ~deadlock)
        in
        let m = outcome.Runtime.metrics in
        committed := !committed + m.Runtime.committed;
        aborted := !aborted + m.Runtime.aborted;
        stranded := !stranded + m.Runtime.stranded_entries;
        coop_c := !coop_c + m.Runtime.coop_commits;
        coop_a := !coop_a + m.Runtime.coop_aborts;
        presumed := !presumed + m.Runtime.presumed_aborts;
        deadlocks := !deadlocks + m.Runtime.deadlock_aborts;
        redrives := !redrives + m.Runtime.redrives;
        orphans := !orphans + m.Runtime.orphans_reaped;
        decisions := !decisions + m.Runtime.decision_log_writes;
        List.iter (Summary.add blocked)
          (Summary.observations m.Runtime.blocked_latency);
        violations := !violations + List.length failures)
      seeds;
    let wall = Unix.gettimeofday () -. t0 in
    ( (!committed, !stranded, !violations),
      Json.Obj
        [
          ("committed", Json.int !committed);
          ("aborted", Json.int !aborted);
          ("stranded_entries", Json.int !stranded);
          ("coop_commits", Json.int !coop_c);
          ("coop_aborts", Json.int !coop_a);
          ("presumed_aborts", Json.int !presumed);
          ("deadlock_aborts", Json.int !deadlocks);
          ("redrives", Json.int !redrives);
          ("orphans_reaped", Json.int !orphans);
          ("decision_log_writes", Json.int !decisions);
          ("blocked_latency_ms", summary_json blocked);
          ("oracle_violations", Json.int !violations);
          ("wall_s", Json.Num wall);
          ( "committed_per_s",
            Json.Num (if wall > 0.0 then float_of_int !committed /. wall else 0.0) );
        ] )
  in
  print_newline ();
  print_endline "Termination benchmark (coordinator-killer ambush, 5 seeds per mode)";
  print_endline "===================================================================";
  let modes =
    [
      ("none", Atomrep_txn.Termination.Disabled, Runtime.No_deadlock);
      ( "presumed-abort-only",
        Atomrep_txn.Termination.Presumed_abort_only,
        Runtime.No_deadlock );
      ("cooperative", Atomrep_txn.Termination.Cooperative, Runtime.Detect);
    ]
  in
  let mode_entries =
    List.map
      (fun (name, termination, deadlock) ->
        let (committed, stranded, violations), entry =
          measure ~termination ~deadlock
        in
        Printf.printf "  %-20s committed=%d stranded=%d violations=%d\n%!" name
          committed stranded violations;
        (name, entry))
      modes
  in
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "crash-safe-termination");
        ("n_sites", Json.int Runtime.default_config.Runtime.n_sites);
        ("seeds", Json.List (List.map Json.int seeds));
        ("n_txns", Json.int n_txns);
        ( "workload",
          Json.Str
            "hybrid, coordinator_killer profile (commit-window ambush p=0.25 \
             mttr=400 + 2% link flake)" );
        ("modes", Json.Obj mode_entries);
      ]
  in
  Atomrep_obs.Export.write_file "BENCH_5.json" (Json.to_string doc);
  print_endline "wrote BENCH_5.json"

(* Takeover benchmark record: what epoch-fenced coordinator takeover buys
   on top of cooperative termination under the coordinator-killer nemesis —
   certifiable in-doubt transactions that cooperative termination could
   only preabort (or leave to the dead coordinator's own recovery) are
   adopted and committed by a surviving lease holder. Per mode (cooperative
   / takeover) over fixed seeds: committed throughput, adopted commits,
   lease/fence/contention counters, the rebroadcast-dedup counter, stranded
   entries (must stay zero), blocked-latency percentiles, and both the
   oracle and the no-divergence-monitor verdicts. A monitor-gated
   takeover_storm campaign (all three schemes) closes the record. Written
   to BENCH_6.json; the schema is documented in EXPERIMENTS.md. *)
let run_takeover () =
  let module Runtime = Atomrep_replica.Runtime in
  let module Campaign = Atomrep_chaos.Campaign in
  let module Json = Atomrep_obs.Json in
  let module Summary = Atomrep_stats.Summary in
  let n_txns = 120 and seeds = [ 0; 1; 2; 3; 4 ] in
  let profile =
    match Campaign.find_profile "coordinator_killer" with
    | Some p -> p
    | None -> failwith "coordinator_killer profile missing"
  in
  let cfg ~seed ~takeover =
    {
      Runtime.default_config with
      Runtime.seed;
      n_txns;
      scheme = Atomrep_replica.Replicated.Hybrid;
      horizon = 40_000.0;
      install_faults =
        (fun net -> Atomrep_chaos.Nemesis.install profile.Campaign.nemesis net);
      termination = Atomrep_txn.Termination.Cooperative;
      deadlock = Runtime.Detect;
      takeover;
    }
  in
  let monitors =
    match
      Atomrep_chaos.Monitors.of_names "commit_atomicity,common_order,no_divergence"
    with
    | Ok ms -> ms
    | Error e -> failwith e
  in
  let summary_json s =
    Json.Obj
      [
        ("count", Json.int (Summary.count s));
        ("mean", Json.Num (Summary.mean s));
        ("p50", Json.Num (Summary.percentile s 0.5));
        ("p95", Json.Num (Summary.percentile s 0.95));
        ("p99", Json.Num (Summary.percentile s 0.99));
        ("max", Json.Num (Summary.max_value s));
      ]
  in
  let measure ~takeover =
    let committed = ref 0 and aborted = ref 0 and stranded = ref 0 in
    let coop_c = ref 0 and coop_a = ref 0 and redrives = ref 0 in
    let leases = ref 0 and adoptions = ref 0 and fenced = ref 0 in
    let contended = ref 0 and suppressed = ref 0 and stranded_live = ref 0 in
    let violations = ref 0 and divergences = ref 0 in
    let blocked = Summary.create () in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun seed ->
        let outcome, failures =
          Atomrep_chaos.Monitors.check_run ~monitors (cfg ~seed ~takeover)
        in
        let m = outcome.Runtime.metrics in
        committed := !committed + m.Runtime.committed;
        aborted := !aborted + m.Runtime.aborted;
        stranded := !stranded + m.Runtime.stranded_entries;
        coop_c := !coop_c + m.Runtime.coop_commits;
        coop_a := !coop_a + m.Runtime.coop_aborts;
        redrives := !redrives + m.Runtime.redrives;
        leases := !leases + m.Runtime.takeover_leases;
        adoptions := !adoptions + m.Runtime.takeover_adoptions;
        fenced := !fenced + m.Runtime.takeover_fenced;
        contended := !contended + m.Runtime.takeover_contended;
        suppressed := !suppressed + m.Runtime.rebroadcasts_suppressed;
        stranded_live := !stranded_live + m.Runtime.stranded_live;
        List.iter (Summary.add blocked)
          (Summary.observations m.Runtime.blocked_latency);
        (* The history oracles and the no-divergence monitor keep separate
           tallies: the monitor is the takeover-specific property. *)
        let diverged, broken =
          List.partition
            (fun (monitor, _) -> String.starts_with ~prefix:"no_divergence" monitor)
            failures
        in
        violations := !violations + List.length broken;
        divergences := !divergences + List.length diverged)
      seeds;
    let wall = Unix.gettimeofday () -. t0 in
    ( (!committed, !adoptions, !stranded, !violations + !divergences),
      Json.Obj
        [
          ("committed", Json.int !committed);
          ("aborted", Json.int !aborted);
          ("stranded_entries", Json.int !stranded);
          ("coop_commits", Json.int !coop_c);
          ("coop_aborts", Json.int !coop_a);
          ("redrives", Json.int !redrives);
          ("takeover_leases", Json.int !leases);
          ("takeover_adoptions", Json.int !adoptions);
          ("takeover_fenced", Json.int !fenced);
          ("takeover_contended", Json.int !contended);
          ("rebroadcasts_suppressed", Json.int !suppressed);
          ("stranded_live", Json.int !stranded_live);
          ("blocked_latency_ms", summary_json blocked);
          ("oracle_violations", Json.int !violations);
          ("monitor_violations", Json.int !divergences);
          ("wall_s", Json.Num wall);
          ( "committed_per_s",
            Json.Num (if wall > 0.0 then float_of_int !committed /. wall else 0.0) );
        ] )
  in
  print_newline ();
  print_endline "Takeover benchmark (coordinator-killer ambush, 5 seeds per mode)";
  print_endline "================================================================";
  let mode_entries =
    List.map
      (fun (name, takeover) ->
        let (committed, adoptions, stranded, bad), entry = measure ~takeover in
        Printf.printf "  %-12s committed=%d adoptions=%d stranded=%d violations=%d\n%!"
          name committed adoptions stranded bad;
        (name, entry))
      [ ("cooperative", false); ("takeover", true) ]
  in
  (* Monitor-gated takeover-storm campaign: every driver of the same
     transaction dies or returns at the worst moment, across all three
     schemes; the record is the violation count (gate: zero). *)
  let storm =
    match Campaign.find_profile "takeover_storm" with
    | Some p -> p
    | None -> failwith "takeover_storm profile missing"
  in
  let t0 = Unix.gettimeofday () in
  let report =
    Campaign.run_campaign ~base:Campaign.takeover_base ~n_txns:40
      ~monitors
      ~schemes:Atomrep_replica.Replicated.[ Static; Hybrid; Locking ]
      ~profiles:[ storm ] ~seeds:10 ()
  in
  let storm_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "  takeover_storm campaign: %d runs, %d violation(s)\n%!"
    report.Campaign.total_runs
    (List.length report.Campaign.violations);
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "coordinator-takeover");
        ("n_sites", Json.int Runtime.default_config.Runtime.n_sites);
        ("seeds", Json.List (List.map Json.int seeds));
        ("n_txns", Json.int n_txns);
        ( "workload",
          Json.Str
            "hybrid, coordinator_killer profile (commit-window ambush p=0.25 \
             mttr=400 + 2% link flake), cooperative termination + deadlock \
             detection in both modes" );
        ("modes", Json.Obj mode_entries);
        ( "storm_campaign",
          Json.Obj
            [
              ("profile", Json.Str "takeover_storm");
              ( "schemes",
                Json.List
                  (List.map (fun s -> Json.Str s) [ "static"; "hybrid"; "locking" ]) );
              ("seeds", Json.int 10);
              ("n_txns", Json.int 40);
              ("monitor", Json.Bool true);
              ("total_runs", Json.int report.Campaign.total_runs);
              ("violations", Json.int (List.length report.Campaign.violations));
              ("wall_s", Json.Num storm_wall);
            ] );
      ]
  in
  Atomrep_obs.Export.write_file "BENCH_6.json" (Json.to_string doc);
  print_endline "wrote BENCH_6.json"

(* E17: the monitored seed-sweep explorer. Part one sweeps a hardened
   configuration (cooperative termination, deadlock detection, takeover)
   across two schemes x two adversarial profiles x 64 seeds — 256 runs,
   every one judged by the full monitor catalogue, expected clean. The
   same sweep runs once on a single domain and once on the recommended
   domain count to record the parallel speedup (bounded by the machine:
   on a single-core container the honest ratio is ~1). Part two flips
   [ungated_rejoin] on and sweeps the storm profile so the explorer has a
   real bug to find: the record keeps the violation count and the first
   shrunk reproducer. Fixture replays close the record. Written to
   BENCH_7.json; the schema is documented in EXPERIMENTS.md. *)
let run_explore () =
  let module Runtime = Atomrep_replica.Runtime in
  let module Campaign = Atomrep_chaos.Campaign in
  let module Monitors = Atomrep_chaos.Monitors in
  let module Explore = Atomrep_chaos.Explore in
  let module Json = Atomrep_obs.Json in
  let profile name =
    match Campaign.find_profile name with
    | Some p -> p
    | None -> failwith (name ^ " profile missing")
  in
  let hardened =
    {
      Campaign.default_base with
      Runtime.termination = Atomrep_txn.Termination.Cooperative;
      deadlock = Runtime.Detect;
      takeover = true;
    }
  in
  let healthy_schemes = [ Atomrep_replica.Replicated.Static; Hybrid ] in
  let healthy_profiles = [ profile "storm"; profile "coordinator_killer" ] in
  let seeds = 64 and n_txns = 40 in
  Printf.printf "explore: healthy hardened sweep (%d seeds/cell)...\n%!" seeds;
  let healthy ~domains =
    Explore.sweep ~domains ~n_txns ~base:hardened ~schemes:healthy_schemes
      ~profiles:healthy_profiles ~seeds ~intensities:[ 1.0 ] ()
  in
  let seq = healthy ~domains:1 in
  let rec_domains = max 1 (Domain.recommended_domain_count ()) in
  let par = if rec_domains = 1 then seq else healthy ~domains:rec_domains in
  Printf.printf
    "  %d runs: %d violation(s); wall 1 domain %.2fs, %d domain(s) %.2fs \
     (speedup %.2fx)\n%!"
    seq.Explore.x_tasks
    (List.length seq.Explore.x_violations)
    seq.Explore.x_wall_s rec_domains par.Explore.x_wall_s
    (seq.Explore.x_wall_s /. par.Explore.x_wall_s);
  Printf.printf "explore: ungated-rejoin sweep...\n%!";
  let ungated_base = { Campaign.default_base with Runtime.ungated_rejoin = true } in
  let ungated =
    Explore.sweep ~domains:rec_domains ~n_txns:60 ~max_shrinks:1
      ~base:ungated_base
      ~schemes:[ Atomrep_replica.Replicated.Static ]
      ~profiles:[ profile "storm" ]
      ~seeds:64 ~intensities:[ 2.0 ] ()
  in
  Printf.printf "  %d runs: %d violation(s), %d shrunk, wall %.2fs\n%!"
    ungated.Explore.x_tasks
    (List.length ungated.Explore.x_violations)
    ungated.Explore.x_shrunk ungated.Explore.x_wall_s;
  let replays = List.map Explore.replay Explore.fixtures in
  List.iter
    (fun (r : Explore.replay_result) ->
      Printf.printf "  fixture %s: %s\n%!" r.Explore.rr_fixture.Explore.f_name
        (if r.Explore.rr_ok then "ok" else "REGRESSION"))
    replays;
  let violation_json (v : Campaign.violation) =
    Json.Obj
      [
        ("scheme", Json.Str (Atomrep_replica.Replicated.scheme_name v.Campaign.v_scheme));
        ("profile", Json.Str v.Campaign.v_profile.Campaign.profile_name);
        ("seed", Json.int v.Campaign.v_seed);
        ("txns", Json.int v.Campaign.v_n_txns);
        ("intensity", Json.Num v.Campaign.v_intensity);
        ("repro", Json.Str (Campaign.reproducer_line v));
        ( "failures",
          Json.List
            (List.map
               (fun (m, why) ->
                 Json.Obj [ ("monitor", Json.Str m); ("message", Json.Str why) ])
               v.Campaign.v_failures) );
      ]
  in
  let sweep_json (r : Explore.report) =
    Json.Obj
      [
        ("runs", Json.int r.Explore.x_tasks);
        ("committed", Json.int r.Explore.x_committed);
        ("aborted", Json.int r.Explore.x_aborted);
        ("violations", Json.int (List.length r.Explore.x_violations));
        ("shrunk", Json.int r.Explore.x_shrunk);
        ("domains", Json.int r.Explore.x_domains);
        ("wall_s", Json.Num r.Explore.x_wall_s);
      ]
  in
  let doc =
    Json.Obj
      [
        ( "explore",
          Json.Obj
            [
              ( "monitors",
                Json.List
                  (List.map
                     (fun (e : Monitors.entry) -> Json.Str e.Monitors.e_name)
                     Monitors.registry) );
              ( "healthy",
                Json.Obj
                  [
                    ( "schemes",
                      Json.List (List.map (fun s -> Json.Str s) [ "static"; "hybrid" ]) );
                    ( "profiles",
                      Json.List
                        (List.map
                           (fun s -> Json.Str s)
                           [ "storm"; "coordinator_killer" ]) );
                    ("seeds", Json.int seeds);
                    ("n_txns", Json.int n_txns);
                    ("sweep", sweep_json seq);
                  ] );
              ( "parallel",
                Json.Obj
                  [
                    ("cores", Json.int rec_domains);
                    ("wall_1_domain_s", Json.Num seq.Explore.x_wall_s);
                    ("domains", Json.int par.Explore.x_domains);
                    ("wall_n_domains_s", Json.Num par.Explore.x_wall_s);
                    ( "speedup",
                      Json.Num (seq.Explore.x_wall_s /. par.Explore.x_wall_s) );
                  ] );
              ( "ungated_rejoin",
                Json.Obj
                  [
                    ("seeds", Json.int 64);
                    ("n_txns", Json.int 60);
                    ("intensity", Json.Num 2.0);
                    ("sweep", sweep_json ungated);
                    ( "first_shrunk",
                      match ungated.Explore.x_violations with
                      | v :: _ -> violation_json v
                      | [] -> Json.Null );
                  ] );
              ( "fixtures",
                Json.List
                  (List.map
                     (fun (r : Explore.replay_result) ->
                       Json.Obj
                         [
                           ("name", Json.Str r.Explore.rr_fixture.Explore.f_name);
                           ( "expect_violation",
                             Json.Bool r.Explore.rr_fixture.Explore.f_expect_violation
                           );
                           ("ok", Json.Bool r.Explore.rr_ok);
                           ( "failures",
                             Json.List
                               (List.map
                                  (fun (m, why) ->
                                    Json.Obj
                                      [
                                        ("monitor", Json.Str m);
                                        ("message", Json.Str why);
                                      ])
                                  r.Explore.rr_failures) );
                         ])
                     replays) );
            ] );
      ]
  in
  Atomrep_obs.Export.write_file "BENCH_7.json" (Json.to_string doc);
  print_endline "wrote BENCH_7.json"

(* Performance-observability benchmark record: what the profiling hooks,
   the sim-time time-series and per-kind trace sampling cost and buy.
   (1) per-scheme committed/s with no observability attached — the
   headline the `atomrep bench-diff` gate tracks under kind "perf";
   (2) observability overhead: wall clock for bare / profiled /
   traced-full / traced-sampled runs of the same fixed-seed hybrid
   workload (both traced rungs include the monitor catalogue's fold over
   the run), with the sampled tracing ratio expected below the
   full-fidelity one (BENCH_3's ~1.11); (3) the zero-loss check: with
   sampling forced to keep every kind the monitor catalogue subscribes
   to, the per-kind monitor-event counts and the monitor verdicts must
   be identical sampled or not; (4) hot-phase profile and time-series
   snapshots. Written to BENCH_8.json; the schema is documented in
   EXPERIMENTS.md. *)
let run_perf () =
  let module Runtime = Atomrep_replica.Runtime in
  let module Replicated = Atomrep_replica.Replicated in
  let module Monitors = Atomrep_chaos.Monitors in
  let module Trace = Atomrep_obs.Trace in
  let module Profile = Atomrep_obs.Profile in
  let module Timeseries = Atomrep_obs.Timeseries in
  let module Json = Atomrep_obs.Json in
  let seed = 42 and n_txns = 200 and reps = 5 and sample_every = 8 in
  let n_sites = Runtime.default_config.Runtime.n_sites in
  let cfg ?trace ?(profile = Profile.null) ?(timeseries = Timeseries.null)
      scheme =
    {
      Runtime.default_config with
      Runtime.seed;
      n_txns;
      scheme;
      trace;
      profile;
      timeseries;
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  print_newline ();
  print_endline "Performance-observability benchmark (fixed seed, 5 reps)";
  print_endline "========================================================";
  (* (1) Per-scheme baseline throughput, no observability attached. *)
  let scheme_rows =
    List.map
      (fun scheme ->
        let committed = ref 0 in
        let _, wall =
          time (fun () ->
              for _ = 1 to reps do
                let m = (Runtime.run (cfg scheme)).Runtime.metrics in
                committed := !committed + m.Runtime.committed
              done)
        in
        let per_s =
          if wall > 0.0 then float_of_int !committed /. wall else 0.0
        in
        Printf.printf "  %-8s committed=%d (%.0f/s)\n%!"
          (Replicated.scheme_name scheme)
          !committed per_s;
        ( Replicated.scheme_name scheme,
          Json.Obj
            [
              ("committed", Json.int !committed);
              ("wall_s", Json.Num wall);
              ("committed_per_s", Json.Num per_s);
            ] ))
      Replicated.[ Static; Hybrid; Locking ]
  in
  (* (2) Observability overhead on the hybrid workload. *)
  let monitors = Monitors.registry in
  (* Interleaved timing: one run of each configuration per round, so
     clock drift, GC state and cache warmth spread evenly across the four
     accumulators instead of biasing whichever ran last. *)
  let bare_s = ref 0.0 and profiled_s = ref 0.0 in
  let full_s = ref 0.0 and sampled_s = ref 0.0 in
  let profile = Profile.create () in
  Profile.set_clock profile Unix.gettimeofday;
  (* A traced run judged by the whole catalogue; sampling forces every
     monitor-observed kind to full fidelity. *)
  let traced ~sample () =
    let tr = Trace.create ~n_sites () in
    let _, failures =
      Monitors.check_run ~monitors ~sample (cfg ~trace:tr Replicated.Hybrid)
    in
    (tr, failures)
  in
  let tally acc f =
    let r, dt = time f in
    acc := !acc +. dt;
    r
  in
  let last = ref None in
  for _ = 1 to reps do
    ignore (tally bare_s (fun () -> Runtime.run (cfg Replicated.Hybrid)));
    ignore (tally profiled_s (fun () -> Runtime.run (cfg ~profile Replicated.Hybrid)));
    let full = tally full_s (traced ~sample:1) in
    let sampled = tally sampled_s (traced ~sample:sample_every) in
    last := Some (full, sampled)
  done;
  let (full_tr, full_failures), (sampled_tr, sampled_failures) =
    match !last with Some r -> r | None -> assert false
  in
  let bare_s = !bare_s and profiled_s = !profiled_s in
  let full_s = !full_s and sampled_s = !sampled_s in
  let ratio x = if bare_s > 0.0 then x /. bare_s else 0.0 in
  Printf.printf
    "  overhead: bare %.3fs, profiled %.3fs (x%.3f), traced %.3fs (x%.3f), \
     sampled 1/%d %.3fs (x%.3f)\n%!"
    bare_s profiled_s (ratio profiled_s) full_s (ratio full_s) sample_every
    sampled_s (ratio sampled_s);
  if ratio sampled_s >= ratio full_s then
    print_endline "  WARNING: sampling did not reduce the tracing overhead";
  (* (3) Zero monitor-visible loss: per-kind counts over the monitored
     labels, and the verdicts, from the last full vs last sampled run
     (same seed, same workload). *)
  let monitor_labels = Monitors.observed_labels monitors in
  let counts tr =
    let per_tag = Array.make Trace.n_kind_tags 0 in
    for id = 0 to Trace.length tr - 1 do
      let tag = Trace.kind_tag (Trace.get tr id).Trace.kind in
      per_tag.(tag) <- per_tag.(tag) + 1
    done;
    List.map
      (fun label ->
        ( label,
          match Trace.tag_of_label label with
          | Some tag -> per_tag.(tag)
          | None -> 0 ))
      monitor_labels
  in
  let full_counts = counts full_tr and sampled_counts = counts sampled_tr in
  let counts_equal = full_counts = sampled_counts in
  let verdicts_equal = full_failures = sampled_failures in
  Printf.printf
    "  fidelity: %d monitored kinds, counts %s, verdicts %s (%d trace events \
     kept of %d emitted)\n%!"
    (List.length monitor_labels)
    (if counts_equal then "identical" else "DIFFER")
    (if verdicts_equal then "identical" else "DIFFER")
    (Trace.length sampled_tr)
    (Trace.length sampled_tr + Trace.sampled_out sampled_tr);
  (* (4) Snapshots: the hot-phase table and a time-series run. *)
  let ts = Timeseries.create ~width:500.0 () in
  let _ = Runtime.run (cfg ~timeseries:ts Replicated.Hybrid) in
  let phase_json (p : Profile.phase) =
    Json.Obj
      [
        ("subsystem", Json.Str p.Profile.p_subsystem);
        ("phase", Json.Str p.Profile.p_phase);
        ("count", Json.int p.Profile.p_count);
        ("wall_s", Json.Num p.Profile.p_wall);
        ("minor_words", Json.Num p.Profile.p_minor_words);
      ]
  in
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "perf");
        ("n_sites", Json.int n_sites);
        ("seed", Json.int seed);
        ("n_txns", Json.int n_txns);
        ("reps", Json.int reps);
        ("schemes", Json.Obj scheme_rows);
        ( "overhead",
          Json.Obj
            [
              ("bare_s", Json.Num bare_s);
              ("profiled_s", Json.Num profiled_s);
              ("traced_full_s", Json.Num full_s);
              ("traced_sampled_s", Json.Num sampled_s);
              ("profile_ratio", Json.Num (ratio profiled_s));
              ("tracing_full_ratio", Json.Num (ratio full_s));
              ("tracing_sampled_ratio", Json.Num (ratio sampled_s));
              ("sample_every", Json.int sample_every);
              ("full_events", Json.int (Trace.length full_tr));
              ("sampled_kept", Json.int (Trace.length sampled_tr));
              ("sampled_out", Json.int (Trace.sampled_out sampled_tr));
            ] );
        ( "monitor_fidelity",
          Json.Obj
            [
              ( "labels",
                Json.List (List.map (fun l -> Json.Str l) monitor_labels) );
              ( "full_counts",
                Json.Obj
                  (List.map (fun (l, n) -> (l, Json.int n)) full_counts) );
              ( "sampled_counts",
                Json.Obj
                  (List.map (fun (l, n) -> (l, Json.int n)) sampled_counts) );
              ("counts_equal", Json.Bool counts_equal);
              ("verdicts_equal", Json.Bool verdicts_equal);
              ("full_violations", Json.int (List.length full_failures));
              ("sampled_violations", Json.int (List.length sampled_failures));
            ] );
        ("profile_top", Json.List (List.map phase_json (Profile.top profile ~n:5)));
        ( "timeseries",
          Json.Obj
            [
              ("width", Json.Num (Timeseries.width ts));
              ("windows", Json.int (List.length (Timeseries.windows ts)));
              ("dropped", Json.int (Timeseries.dropped ts));
              ( "series",
                Json.List
                  (List.map (fun s -> Json.Str s) (Timeseries.series_names ts))
              );
            ] );
      ]
  in
  Atomrep_obs.Export.write_file "BENCH_8.json" (Json.to_string doc);
  print_endline "wrote BENCH_8.json"

(* Overload bench: offered-load-vs-goodput curves per scheme, admission
   on vs off, on identical open-loop arrival plans. Goodput counts only
   timely commits (arrival-to-commit sojourn within the admission
   deadline): an open-loop client has abandoned a late response, so a
   late commit is wasted work. Every point is monitor-gated (the full
   catalogue, shed-safety included). The headline the `atomrep
   bench-diff` gate tracks under kind "load" is the goodput at the knee:
   the admission-on goodput at the highest offered load — the plateau a
   gracefully degrading system must hold while the ungated baseline
   collapses. Written to BENCH_9.json; schema in EXPERIMENTS.md. *)
let run_load () =
  let module Runtime = Atomrep_replica.Runtime in
  let module Replicated = Atomrep_replica.Replicated in
  let module Monitors = Atomrep_chaos.Monitors in
  let module Json = Atomrep_obs.Json in
  let module Openloop = Atomrep_workload.Openloop in
  let module Summary = Atomrep_stats.Summary in
  let plan_seed = 97 and engine_seed = 42 in
  let base_rate = 0.010 (* txns per simulated ms: 10/s at mult 1 *) in
  let horizon = 12_000.0 and deadline = 1_000.0 in
  let mults = [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let schemes = Replicated.[ Static; Hybrid; Locking ] in
  let monitors = Monitors.registry in
  print_newline ();
  print_endline "Overload benchmark: open-loop goodput, admission on vs off";
  print_endline "==========================================================";
  Printf.printf
    "  one hot queue, plan seed %d, %.0f/s base offered load, %.0f ms \
     deadline\n%!"
    plan_seed (base_rate *. 1000.0) deadline;
  let point scheme mult admission_on =
    (* The plan depends only on the multiplier: every scheme and both
       admission settings replay byte-identical arrivals and scripts. *)
    let plan =
      Openloop.plan ~profile:Openloop.Queue_fanout ~n_objects:1 ~n_sites:3
        ~n_sessions:6 ~seed:plan_seed ~rate:(base_rate *. mult) ~horizon ()
    in
    let base =
      {
        Runtime.default_config with
        Runtime.scheme;
        seed = engine_seed;
        horizon = horizon +. 28_000.0 (* drain: let the ungated pile finish *);
        timely_bound = deadline;
      }
    in
    let cfg =
      if admission_on then
        {
          (Openloop.apply plan base) with
          Runtime.admission =
            Some
              {
                Runtime.max_in_flight = 8;
                queue_limit = 16;
                deadline;
                adm_shed_policy = Runtime.Shed_reads_first;
                adm_breaker = Some Runtime.default_breaker;
              };
          retry_budget = 12;
        }
      else Openloop.apply plan base
    in
    let outcome, violations = Monitors.check_run ~monitors cfg in
    let m = outcome.Runtime.metrics in
    let goodput =
      if m.Runtime.duration > 0.0 then
        float_of_int m.Runtime.timely_commits /. m.Runtime.duration *. 1000.0
      else 0.0
    in
    let offered = float_of_int (Openloop.n_txns plan) /. horizon *. 1000.0 in
    Printf.printf
      "  %-8s x%-4.1f adm=%-3s offered=%6.1f/s goodput=%6.2f/s committed=%d \
       timely=%d shed=%d retries=%d%s\n%!"
      (Replicated.scheme_name scheme)
      mult
      (if admission_on then "on" else "off")
      offered goodput m.Runtime.committed m.Runtime.timely_commits
      m.Runtime.shed m.Runtime.retries_spent
      (if violations = [] then ""
       else Printf.sprintf "  VIOLATIONS=%d" (List.length violations));
    let json =
      Json.Obj
        [
          ( "name",
            Json.Str
              (Printf.sprintf "%s/%s/x%g"
                 (Replicated.scheme_name scheme)
                 (if admission_on then "on" else "off")
                 mult) );
          ("mult", Json.Num mult);
          ("offered_per_s", Json.Num offered);
          ("arrivals", Json.int (Openloop.n_txns plan));
          ("committed", Json.int m.Runtime.committed);
          ("timely", Json.int m.Runtime.timely_commits);
          ("committed_per_s", Json.Num goodput);
          ("aborted", Json.int m.Runtime.aborted);
          ("shed", Json.int m.Runtime.shed);
          ("retries_spent", Json.int m.Runtime.retries_spent);
          ( "retries_budget_exhausted",
            Json.int m.Runtime.retries_budget_exhausted );
          ("breaker_trips", Json.int m.Runtime.breaker_trips);
          ( "sojourn_p50_ms",
            Json.Num (Summary.percentile m.Runtime.sojourn 0.5) );
          ( "sojourn_p99_ms",
            Json.Num (Summary.percentile m.Runtime.sojourn 0.99) );
          ("violations", Json.int (List.length violations));
        ]
    in
    (goodput, List.length violations, json)
  in
  let total_violations = ref 0 in
  let scheme_sections =
    List.map
      (fun scheme ->
        let rows_on = ref [] and rows_off = ref [] in
        let curve admission_on acc =
          List.map
            (fun mult ->
              let gp, viols, json = point scheme mult admission_on in
              total_violations := !total_violations + viols;
              acc := json :: !acc;
              (mult, gp))
            mults
        in
        let on_curve = curve true rows_on in
        let off_curve = curve false rows_off in
        let peak c = List.fold_left (fun a (_, g) -> Float.max a g) 0.0 c in
        let at_top c = snd (List.nth c (List.length c - 1)) in
        let on_peak = peak on_curve and off_peak = peak off_curve in
        let retention =
          if on_peak > 0.0 then at_top on_curve /. on_peak else 0.0
        in
        let collapse =
          if off_peak > 0.0 then at_top off_curve /. off_peak else 0.0
        in
        Printf.printf
          "  %-8s admission-on holds %.0f%% of its %.2f/s peak at x%g; \
           ungated falls to %.0f%% of %.2f/s\n%!"
          (Replicated.scheme_name scheme)
          (100.0 *. retention) on_peak
          (List.nth mults (List.length mults - 1))
          (100.0 *. collapse) off_peak;
        ( Replicated.scheme_name scheme,
          Json.Obj
            [
              ("admission_on", Json.List (List.rev !rows_on));
              ("admission_off", Json.List (List.rev !rows_off));
              ("on_peak_goodput", Json.Num on_peak);
              ("off_peak_goodput", Json.Num off_peak);
              ("on_retention_at_top", Json.Num retention);
              ("off_retention_at_top", Json.Num collapse);
            ] ))
      schemes
  in
  (* The knee headline: admission-on goodput at the top multiplier for
     the locking scheme — the scheme whose ungated baseline collapses
     hardest, so the number the admission machinery earns. *)
  let goodput_at_knee =
    match List.assoc_opt "locking" scheme_sections with
    | Some (Json.Obj fields) ->
      (match List.assoc_opt "on_peak_goodput" fields with
       | Some (Json.Num n) ->
         (match List.assoc_opt "on_retention_at_top" fields with
          | Some (Json.Num r) -> n *. r
          | _ -> n)
       | _ -> 0.0)
    | _ -> 0.0
  in
  Printf.printf "  goodput at knee (locking, admission on): %.2f/s, %d \
                 monitor violations\n%!"
    goodput_at_knee !total_violations;
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "load");
        ("headline", Json.Num goodput_at_knee);
        ("plan_seed", Json.int plan_seed);
        ("engine_seed", Json.int engine_seed);
        ("base_rate_per_s", Json.Num (base_rate *. 1000.0));
        ("horizon_ms", Json.Num horizon);
        ("deadline_ms", Json.Num deadline);
        ("multipliers", Json.List (List.map (fun m -> Json.Num m) mults));
        ("monitor_violations", Json.int !total_violations);
        ("schemes", Json.Obj scheme_sections);
      ]
  in
  Atomrep_obs.Export.write_file "BENCH_9.json" (Json.to_string doc);
  print_endline "wrote BENCH_9.json"

(* Gray-failure bench: commit latency and goodput under persistent
   fail-slow sites, across the hedging x demotion ablation grid, at
   equal open-loop offered load (one fixed arrival plan per slow-site
   count — every arm replays byte-identical arrivals). A fail-slow site
   answers, slowly: binary up/down masking never fires, so the round's
   tail is the slow site's tail unless hedged re-issues and slow-site
   demotion steer around it. Every point is monitor-gated (the full
   catalogue, hedge_safety included). The headline the `atomrep
   bench-diff` gate tracks under kind "gray" is the p99 commit-latency
   speedup of hedge+demote over the unmitigated baseline for the hybrid
   scheme under one fail-slow site — the paper's general scheme, the
   issue's acceptance scenario. Written to BENCH_10.json; schema in
   EXPERIMENTS.md. *)
let run_gray () =
  let module Runtime = Atomrep_replica.Runtime in
  let module Replicated = Atomrep_replica.Replicated in
  let module Monitors = Atomrep_chaos.Monitors in
  let module Json = Atomrep_obs.Json in
  let module Network = Atomrep_sim.Network in
  let module Openloop = Atomrep_workload.Openloop in
  let module Summary = Atomrep_stats.Summary in
  let plan_seed = 131 and engine_seed = 42 in
  let rate = 0.012 (* txns per simulated ms: 12/s offered *) in
  let horizon = 12_000.0 in
  let n_sites = 5 in
  let slow_factor = 8.0 and slow_onset = 1_000.0 in
  let slow_sets = [ ("one_slow", [ 2 ]); ("three_slow", [ 1; 2; 3 ]) ] in
  let arms =
    [
      ("baseline", None);
      ("hedge", Some { Runtime.default_gray with Runtime.demote = false });
      ("demote", Some { Runtime.default_gray with Runtime.hedge = false });
      ("hedge_demote", Some Runtime.default_gray);
    ]
  in
  let schemes = Replicated.[ Static; Hybrid; Locking ] in
  let monitors = Monitors.registry in
  print_newline ();
  print_endline "Gray-failure benchmark: fail-slow sites, hedging x demotion";
  print_endline "===========================================================";
  Printf.printf
    "  %d sites, plan seed %d, %.0f/s offered, slow factor %.0fx from %.0f \
     ms\n%!"
    n_sites plan_seed (rate *. 1000.0) slow_factor slow_onset;
  let total_violations = ref 0 in
  let point scheme arm_name gray slow_sites =
    (* One plan per slow-site count: the plan depends only on the load
       shape, so all four arms and all three schemes replay identical
       arrivals and scripts. *)
    let plan =
      Openloop.plan ~profile:Openloop.Queue_fanout ~n_objects:3 ~n_sites
        ~n_sessions:6 ~seed:plan_seed ~rate ~horizon ()
    in
    let base =
      {
        Runtime.default_config with
        Runtime.scheme;
        seed = engine_seed;
        n_sites;
        horizon = horizon +. 8_000.0 (* drain: let late rounds settle *);
        gray;
        fail_slow =
          List.map
            (fun s -> (s, slow_onset, Network.Slow_constant slow_factor))
            slow_sites;
      }
    in
    let outcome, violations =
      Monitors.check_run ~monitors (Openloop.apply plan base)
    in
    let m = outcome.Runtime.metrics in
    total_violations := !total_violations + List.length violations;
    (* Goodput over the fixed offered window, not the run's duration: a
       gray arm's detector probes keep the engine busy to the horizon,
       and dividing by a longer idle tail would flatter the baseline. *)
    let goodput = float_of_int m.Runtime.committed /. horizon *. 1000.0 in
    let p50 = Summary.percentile m.Runtime.txn_latency 0.5 in
    let p99 = Summary.percentile m.Runtime.txn_latency 0.99 in
    Printf.printf
      "  %-8s %-12s slow=%d committed=%3d aborted=%3d p50=%7.1f ms p99=%8.1f \
       ms hedges=%d wins=%d demoted=%d%s\n%!"
      (Replicated.scheme_name scheme)
      arm_name
      (List.length slow_sites)
      m.Runtime.committed m.Runtime.aborted p50 p99 m.Runtime.hedges
      m.Runtime.hedge_wins m.Runtime.demoted_rounds
      (if violations = [] then ""
       else Printf.sprintf "  VIOLATIONS=%d" (List.length violations));
    let json =
      Json.Obj
        [
          ("arrivals", Json.int (Openloop.n_txns plan));
          ("committed", Json.int m.Runtime.committed);
          ("aborted", Json.int m.Runtime.aborted);
          ("committed_per_s", Json.Num goodput);
          ("latency_p50_ms", Json.Num p50);
          ("latency_p99_ms", Json.Num p99);
          ("hedges", Json.int m.Runtime.hedges);
          ("hedge_wins", Json.int m.Runtime.hedge_wins);
          ("hedge_late", Json.int m.Runtime.hedge_late);
          ("demoted_rounds", Json.int m.Runtime.demoted_rounds);
          ("slow_suspicions", Json.int m.Runtime.slow_suspicions);
          ("violations", Json.int (List.length violations));
        ]
    in
    (p99, json)
  in
  let headline = ref 0.0 in
  let grid_sections =
    List.map
      (fun (set_name, slow_sites) ->
        let scheme_objs =
          List.map
            (fun scheme ->
              let baseline_p99 = ref 0.0 in
              let arm_objs =
                List.map
                  (fun (arm_name, gray) ->
                    let p99, json = point scheme arm_name gray slow_sites in
                    if arm_name = "baseline" then baseline_p99 := p99;
                    if
                      arm_name = "hedge_demote" && set_name = "one_slow"
                      && scheme = Replicated.Hybrid && p99 > 0.0
                    then headline := !baseline_p99 /. p99;
                    (arm_name, json))
                  arms
              in
              (Replicated.scheme_name scheme, Json.Obj arm_objs))
            schemes
        in
        (set_name, Json.Obj scheme_objs))
      slow_sets
  in
  Printf.printf
    "  p99 speedup, hedge+demote vs baseline (hybrid, one slow site): \
     %.2fx, %d monitor violations\n%!"
    !headline !total_violations;
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "gray");
        ("headline", Json.Num !headline);
        ("plan_seed", Json.int plan_seed);
        ("engine_seed", Json.int engine_seed);
        ("offered_per_s", Json.Num (rate *. 1000.0));
        ("horizon_ms", Json.Num horizon);
        ("n_sites", Json.int n_sites);
        ("slow_factor", Json.Num slow_factor);
        ("slow_onset_ms", Json.Num slow_onset);
        ("monitor_violations", Json.int !total_violations);
        ("grid", Json.Obj grid_sections);
      ]
  in
  Atomrep_obs.Export.write_file "BENCH_10.json" (Json.to_string doc);
  print_endline "wrote BENCH_10.json"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let micro_only = args = [ "micro" ] in
  let chaos_only = args = [ "chaos" ] in
  let reconfig_only = args = [ "reconfig" ] in
  let json_only = args = [ "json" ] in
  let storage_only = args = [ "storage" ] in
  let termination_only = args = [ "termination" ] in
  let takeover_only = args = [ "takeover" ] in
  let explore_only = args = [ "explore" ] in
  let perf_only = args = [ "perf" ] in
  let load_only = args = [ "load" ] in
  let gray_only = args = [ "gray" ] in
  let micro = List.mem "micro" args || args = [] || List.mem "all" args in
  let chaos = List.mem "chaos" args in
  let reconfig = List.mem "reconfig" args in
  let json = List.mem "json" args in
  let storage = List.mem "storage" args in
  let termination = List.mem "termination" args in
  let takeover = List.mem "takeover" args in
  let explore = List.mem "explore" args in
  let perf = List.mem "perf" args in
  let load = List.mem "load" args in
  let gray = List.mem "gray" args in
  let ids =
    List.filter
      (fun a ->
        a <> "micro" && a <> "all" && a <> "chaos" && a <> "reconfig" && a <> "json"
        && a <> "storage" && a <> "termination" && a <> "takeover"
        && a <> "explore" && a <> "perf" && a <> "load" && a <> "gray")
      args
  in
  if
    (not micro_only) && (not chaos_only) && (not reconfig_only) && (not json_only)
    && (not storage_only) && (not termination_only) && (not takeover_only)
    && (not explore_only) && (not perf_only) && (not load_only)
    && not gray_only
  then run_experiments ids;
  if micro then run_micro ();
  if chaos then run_chaos ();
  if reconfig then run_reconfig ();
  if json then run_json ();
  if storage then run_storage ();
  if termination then run_termination ();
  if takeover then run_takeover ();
  if explore then run_explore ();
  if perf then run_perf ();
  if load then run_load ();
  if gray then run_gray ()
