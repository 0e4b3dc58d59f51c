(* Benchmark harness: a table of named entries (see [entries] at the end),
   run in the order given on the command line.

     dune exec bench/main.exe                  — every experiment, then micro
     dune exec bench/main.exe -- e3 storage    — the named entries only

   Each experiment regenerates one of the paper's figures or worked
   examples (see DESIGN.md's experiment index and EXPERIMENTS.md for the
   paper-vs-measured record); the micro entry times the analysis kernels
   with Bechamel. The other entries compare arms of one workload and most
   write a BENCH_<n>.json record (schemas in EXPERIMENTS.md); their
   seed-summed grids all go through [grid]. An unknown name prints the
   table to stderr and exits 2 before anything runs; an entry whose gate
   fails (a monitor violation, a fixture regression, a judge-only bus
   that loses a monitored event, no reconfiguration gain) makes the
   process exit 1. *)

open Atomrep_spec
open Atomrep_core
module Runtime = Atomrep_replica.Runtime
module Replicated = Atomrep_replica.Replicated
module Campaign = Atomrep_chaos.Campaign
module Monitors = Atomrep_chaos.Monitors
module Json = Atomrep_obs.Json
module Summary = Atomrep_stats.Summary
module Openloop = Atomrep_workload.Openloop

let schemes = Replicated.[ Static; Hybrid; Locking ]

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let heading ?(rule = '=') title =
  print_newline ();
  print_endline title;
  print_endline (String.make (String.length title) rule)

let strs l = Json.List (List.map (fun s -> Json.Str s) l)

let write_record ?(note = "") path doc =
  Atomrep_obs.Export.write_file path (Json.to_string doc);
  Printf.printf "wrote %s%s\n" path note

(* --- The arm grid: arms x seeds, one record row per arm --- *)

(* One column of an arm's row. Counts and values are summed over the
   arm's seeds; a pooled summary gathers every seed's observations. *)
type field =
  | Count of string * (Runtime.metrics -> int)
  | Peak of string * (Runtime.metrics -> int)  (** maximum over the seeds *)
  | Value of string * (Runtime.metrics -> float)
  | Pooled of string * float list * (Runtime.metrics -> Summary.t)
      (** count, mean, the listed quantiles, max *)
  | Group of string * field list
  | Failed of string * (string -> bool)
      (** judged failures whose monitor name passes the filter *)
  | Wall  (** "wall_s": the arm's wall-clock over all its seeds *)
  | Per_s  (** "committed_per_s": committed per wall-clock second *)

type arm = { arm : string; row : (string * Json.t) list; failures : int }

let summary_json quantiles s =
  Json.Obj
    ([ ("count", Json.int (Summary.count s)); ("mean", Json.Num (Summary.mean s)) ]
    @ List.map
        (fun q -> (Printf.sprintf "p%g" (100.0 *. q), Json.Num (Summary.percentile s q)))
        quantiles
    @ [ ("max", Json.Num (Summary.max_value s)) ])

(* The quantiles a [Pooled] field reports: up to p95, or up to p99. *)
let p95 = [ 0.5; 0.95 ]
let p99 = [ 0.5; 0.95; 0.99 ]
let committed m = m.Runtime.committed
let any _ = true
let unjudged cfg = (Runtime.run cfg, [])

(* Run every arm over every seed through [judge], in order, and project
   each arm's metrics through [fields]. *)
let grid ?(judge = unjudged) ~seeds ~fields arms =
  List.map
    (fun (arm, config) ->
      let runs, wall = timed (fun () -> List.map (fun seed -> judge (config seed)) seeds) in
      let ms = List.map (fun (outcome, _) -> outcome.Runtime.metrics) runs in
      let failures = List.concat_map snd runs in
      let sum f = List.fold_left (fun a m -> a + f m) 0 ms in
      let rec column = function
        | Count (key, f) -> (key, Json.int (sum f))
        | Peak (key, f) -> (key, Json.int (List.fold_left (fun a m -> max a (f m)) 0 ms))
        | Value (key, f) -> (key, Json.Num (List.fold_left (fun a m -> a +. f m) 0.0 ms))
        | Pooled (key, quantiles, f) ->
          let s = Summary.create () in
          List.iter (fun m -> List.iter (Summary.add s) (Summary.observations (f m))) ms;
          (key, summary_json quantiles s)
        | Group (key, fields) -> (key, Json.Obj (List.map column fields))
        | Failed (key, keep) ->
          (key, Json.int (List.length (List.filter (fun (m, _) -> keep m) failures)))
        | Wall -> ("wall_s", Json.Num wall)
        | Per_s ->
          ( "committed_per_s",
            Json.Num (if wall > 0.0 then float_of_int (sum committed) /. wall else 0.0) )
      in
      { arm; row = List.map column fields; failures = List.length failures })
    arms

let num r key =
  match List.assoc_opt key r.row with
  | Some (Json.Num x) -> x
  | _ -> invalid_arg ("no numeric column " ^ key)

let count r key = int_of_float (num r key)
let find rows arm = List.find (fun r -> r.arm = arm) rows
let rows_json rows = Json.Obj (List.map (fun r -> (r.arm, Json.Obj r.row)) rows)
let clean rows = List.for_all (fun r -> r.failures = 0) rows

let marker r =
  if r.failures = 0 then "" else Printf.sprintf "  VIOLATIONS=%d" r.failures

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
      (Staged.stage (fun () -> ignore (Static_dep.minimal Queue_type.spec)))
  in
  let dynamic_minimal =
    Test.make ~name:"Theorem 10: minimal dynamic relation (queue, len 4)"
      (Staged.stage (fun () -> ignore (Dynamic_dep.minimal Queue_type.spec)))
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
           ignore (Runtime.run { Runtime.default_config with n_txns = 20 })))
  in
  (* The run judges every simulation ends with, on one 240-transaction
     run of the default replicated queue. *)
  let judge =
    let cfg = { Runtime.default_config with n_txns = 240 } in
    let outcome = Runtime.run cfg in
    Test.make ~name:"judge kernel: check_atomicity + check_common_order"
      (Staged.stage (fun () ->
           ignore (Runtime.check_atomicity cfg outcome);
           ignore (Runtime.check_common_order cfg outcome)))
  in
  (* The gather a front-end runs per operation: a queue log of committed
     Enq transactions (an entry and a commit record each) read into a
     cached view. The hit folds 6 new records into the view of a
     1,000-record log, walking a chain of 1,000 successive versions; at
     the chain's end one run rebuilds the view at its first version, a
     miss amortized over the chain. The miss builds the view of a
     1,006-record log from empty. *)
  let view_hit, view_miss =
    let open Atomrep_replica in
    let open Atomrep_clock in
    let txn log k =
      let ts = { Lamport.Timestamp.counter = k; site = 0 } in
      let action = Atomrep_history.Action.of_int k in
      let entry =
        { Log.ets = ts; action; begin_ts = ts; seq = 0; event = Queue_type.enq "x" }
      in
      Log.add (Log.add log (Log.Entry entry)) (Log.Commit_record (action, ts))
    in
    let grow log from n = List.fold_left txn log (List.init n (fun i -> from + i)) in
    let base = grow Log.empty 0 500 in
    let versions = Array.make 1000 base in
    for i = 1 to 999 do
      versions.(i) <- grow versions.(i - 1) (500 + (3 * i)) 3
    done;
    let cache = ref (View.cache Queue_type.spec) and next = ref 0 in
    let hit () =
      if !next = 0 then begin
        cache := View.cache Queue_type.spec;
        ignore (View.gather !cache [ (0, versions.(0)) ]);
        next := 1
      end;
      ignore (View.gather !cache [ (0, versions.(!next)) ]);
      next := (!next + 1) mod 1000
    in
    ( Test.make ~name:"replica kernel: view update, 1000 records + 6" (Staged.stage hit),
      Test.make ~name:"replica kernel: view build, 1006 records"
        (Staged.stage (fun () ->
             ignore (View.gather (View.cache Queue_type.spec) [ (0, versions.(1)) ]))) )
  in
  [
    legality; atomicity_check; static_minimal; dynamic_minimal; hybrid_checker;
    hybrid_verify; availability; simulator; judge; view_hit; view_miss;
  ]

let run_micro () =
  let open Bechamel in
  heading "Bechamel micro-benchmarks";
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
    (micro_tests ());
  true

(* A timed campaign over every scheme, reported as the CLI's table; clean
   iff it recorded no violation. It runs on one domain, so its runs/s
   stay comparable across the BENCH trajectory. *)
let campaign ?(base = Campaign.default_base) ?(flags = []) ~profiles ~seeds () =
  let report, wall =
    timed (fun () ->
        Campaign.report
          (Campaign.sweep ~domains:1 ~flags
             (Campaign.grid ~base ~schemes ~profiles ~seeds ~intensities:[ 1.0 ] ~n_txns:30)))
  in
  Format.printf "%a" Campaign.pp_report report;
  Printf.printf "campaign wall time: %.2f s (%.1f runs/s)\n" wall
    (float_of_int report.Campaign.total_runs /. wall);
  report.Campaign.violations = []

(* Chaos campaign entry: a wall-clock-timed sweep over every scheme and
   fault profile — the throughput number to watch when optimizing the
   simulator or the atomicity checkers. *)
let run_chaos () =
  heading "Chaos campaign (3 schemes x all profiles x 5 seeds)";
  campaign ~profiles:Campaign.builtin_profiles ~seeds:5 ()

(* Reconfiguration entry: (1) a >= 400-run campaign with the staggered-kill
   and crash-storm nemeses under the reconfiguration base, gating on zero
   violations; (2) a committed-throughput comparison with the coordinator
   on vs. off while a majority-breaking subset of the original five sites
   is permanently killed — the availability payoff of Theorems 10-12,
   gating on a strict improvement. *)
let run_reconfig () =
  heading "Reconfiguration campaign (3 schemes x {crashes,kills} x 67 seeds)";
  let campaign_clean =
    campaign ~base:Campaign.reconfig_base ~flags:[ "--base"; "reconfig" ]
      ~profiles:[ Campaign.profile "crashes"; Campaign.profile "kills" ]
      ~seeds:67 ()
  in
  heading ~rule:'-' "Committed throughput under majority-breaking site loss (hybrid)";
  let kills =
    Atomrep_chaos.Nemesis.Staggered_kill
      { start = 3000.0; gap = 4000.0; victims = [ 4; 3; 2 ] }
  in
  let cfg reconfig seed =
    {
      Campaign.reconfig_base with
      Runtime.scheme = Replicated.Hybrid;
      seed;
      n_txns = 200;
      arrival_mean = 100.0;
      horizon = 25_000.0;
      install_faults = (fun net -> Atomrep_chaos.Nemesis.install kills net);
      reconfig = (if reconfig then Some Runtime.default_reconfig else None);
    }
  in
  let rows =
    grid ~seeds:[ 0; 1; 2; 3; 4 ]
      ~fields:
        [
          Count ("committed", committed);
          Peak ("final_epoch", fun m -> m.Runtime.final_epoch);
        ]
      [ ("off", cfg false); ("on", cfg true) ]
  in
  let off = count (find rows "off") "committed" and on = find rows "on" in
  Printf.printf
    "  kills at t=3000/7000/11000 of horizon 25000 (majority of 5 dead by \
     t=11000), 200 txns x 5 seeds\n";
  Printf.printf "  reconfiguration off: %d committed\n" off;
  Printf.printf "  reconfiguration on:  %d committed (deepest epoch %d)\n"
    (count on "committed") (count on "final_epoch");
  let improves = count on "committed" > off in
  if improves then print_endline "  => reconfiguration strictly improves committed ops"
  else print_endline "  => WARNING: no improvement measured";
  campaign_clean && improves

(* Machine-readable benchmark record: one fixed-seed run of the default
   3-site replicated queue per scheme (committed ops, abort breakdown,
   transaction-latency percentiles) plus the tracing on/off wall-clock
   comparison. Written to BENCH_<n_sites>.json; the schema is documented in
   EXPERIMENTS.md. *)
let run_json () =
  let seed = 42 and n_txns = 200 in
  let n_sites = Runtime.default_config.Runtime.n_sites in
  let cfg ?trace scheme seed =
    { Runtime.default_config with Runtime.seed; n_txns; scheme; trace }
  in
  let rows =
    grid ~seeds:[ seed ]
      ~fields:
        [
          Wall; Per_s;
          Count ("committed", committed);
          Count ("aborted", fun m -> m.Runtime.aborted);
          Group
            ( "aborts",
              [
                Count ("unavailable", fun m -> m.Runtime.unavailable_aborts);
                Count ("rejected", fun m -> m.Runtime.rejected_aborts);
                Count ("conflict", fun m -> m.Runtime.conflict_aborts);
              ] );
          Count ("ops_done", fun m -> m.Runtime.ops_done);
          Count ("blocked_waits", fun m -> m.Runtime.blocked_waits);
          Pooled ("txn_latency", p99, fun m -> m.Runtime.txn_latency);
          Count ("msgs_sent", fun m -> m.Runtime.msgs_sent);
          Value ("sim_duration", fun m -> m.Runtime.duration);
        ]
      (List.map (fun s -> (Replicated.scheme_name s, cfg s)) schemes)
  in
  let _, off_s = timed (fun () -> Runtime.run (cfg Replicated.Hybrid seed)) in
  let tr = Atomrep_obs.Trace.create ~n_sites () in
  let _, on_s = timed (fun () -> Runtime.run (cfg ~trace:tr Replicated.Hybrid seed)) in
  let events = Atomrep_obs.Trace.length tr in
  write_record
    ~note:
      (Printf.sprintf " (tracing overhead: %.3fs off, %.3fs on, %d events)" off_s on_s
         events)
    (Printf.sprintf "BENCH_%d.json" n_sites)
    (Json.Obj
       [
         ("bench", Json.Str "replicated-queue");
         ("n_sites", Json.int n_sites);
         ("seed", Json.int seed);
         ("n_txns", Json.int n_txns);
         ( "schemes",
           Json.List
             (List.map (fun r -> Json.Obj (("scheme", Json.Str r.arm) :: r.row)) rows) );
         ( "tracing_overhead",
           Json.Obj
             [
               ("off_s", Json.Num off_s);
               ("on_s", Json.Num on_s);
               ("ratio", Json.Num (if off_s > 0.0 then on_s /. off_s else 0.0));
               ("trace_events", Json.int events);
             ] );
       ]);
  true

(* Storage benchmark record: the durability-mode cost/benefit sheet.
   (1) per-mode (none / wal / wal-group-commit) committed throughput under
   an amnesia-heavy fixed-seed crash workload, with WAL flush/checkpoint
   counters and recovery replay-length and modeled-recovery-time
   percentiles aggregated over the seeds; (2) a checkpoint-compaction
   on/off ablation showing how compaction bounds replay length. Written to
   BENCH_4.json; the schema is documented in EXPERIMENTS.md. *)
let run_storage () =
  let module Repository = Atomrep_replica.Repository in
  let n_txns = 120 and seeds = [ 0; 1; 2; 3; 4 ] in
  let cfg durability seed =
    {
      Runtime.default_config with
      Runtime.seed;
      n_txns;
      scheme = Replicated.Hybrid;
      horizon = 40_000.0;
      install_faults =
        (fun net ->
          Atomrep_sim.Fault.crash_amnesia_recover_all net ~mtbf:600.0 ~mttr:120.0);
      durability;
    }
  in
  let measure =
    grid ~seeds
      ~fields:
        [
          Count ("committed", committed);
          Count ("aborted", fun m -> m.Runtime.aborted);
          Wall; Per_s;
          Count ("wal_flushes", fun m -> m.Runtime.wal_flushes);
          Count ("wal_flushed_records", fun m -> m.Runtime.wal_flushed_records);
          Count ("wal_checkpoints", fun m -> m.Runtime.wal_checkpoints);
          Count ("recoveries", fun m -> m.Runtime.recoveries);
          Count ("recoveries_corrupt", fun m -> m.Runtime.recoveries_corrupt);
          Pooled ("recovery_replay", p95, fun m -> m.Runtime.recovery_replay);
          Pooled ("recovery_cost_ms", p95, fun m -> m.Runtime.recovery_cost);
        ]
  in
  heading "Storage benchmark (amnesia-heavy workload, 5 seeds per mode)";
  let modes =
    measure
      [
        ("none", cfg Repository.Volatile);
        ("wal", cfg (Repository.durable ~segment_records:16 ~checkpoint_every:48 ()));
        ( "wal-group-commit",
          cfg
            (Repository.durable ~group_commit:true ~segment_records:16
               ~checkpoint_every:48 ()) );
      ]
  in
  List.iter
    (fun r -> Printf.printf "  %-16s committed=%d\n%!" r.arm (count r "committed"))
    modes;
  (* Compaction ablation: same WAL, checkpointing effectively disabled vs
     the aggressive period above — the delta is the replay length (and
     modeled recovery time) that checkpoint compaction buys. *)
  let periods = [ ("on", 48); ("off", 1_000_000) ] in
  let ablation =
    measure
      (List.map
         (fun (name, checkpoint_every) ->
           (name, cfg (Repository.durable ~segment_records:16 ~checkpoint_every ())))
         periods)
  in
  List.iter
    (fun (name, every) ->
      Printf.printf "  compaction %-4s (checkpoint_every=%d)\n%!" name every)
    periods;
  write_record "BENCH_4.json"
    (Json.Obj
       [
         ("bench", Json.Str "durability-modes");
         ("n_sites", Json.int Runtime.default_config.Runtime.n_sites);
         ("seeds", Json.List (List.map Json.int seeds));
         ("n_txns", Json.int n_txns);
         ("workload", Json.Str "hybrid, crash+amnesia mtbf=600 mttr=120");
         ("modes", rows_json modes);
         ("compaction_ablation", rows_json ablation);
       ]);
  true

(* The coordinator-killer workload the termination and takeover records
   share: hybrid, 120 transactions, commit-window ambushes, five seeds. *)
let ambush_seeds = [ 0; 1; 2; 3; 4 ] and ambush_txns = 120

let ambushed ~seed =
  let nemesis = (Campaign.profile "coordinator_killer").Campaign.nemesis in
  {
    Runtime.default_config with
    Runtime.seed;
    n_txns = ambush_txns;
    scheme = Replicated.Hybrid;
    horizon = 40_000.0;
    install_faults = (fun net -> Atomrep_chaos.Nemesis.install nemesis net);
  }

let ambush_workload =
  "hybrid, coordinator_killer profile (commit-window ambush p=0.25 mttr=400 + 2% \
   link flake)"

let ambush_doc bench extra =
  Json.Obj
    ([
       ("bench", Json.Str bench);
       ("n_sites", Json.int Runtime.default_config.Runtime.n_sites);
       ("seeds", Json.List (List.map Json.int ambush_seeds));
       ("n_txns", Json.int ambush_txns);
     ]
    @ extra)

(* Termination benchmark record: what crash-safe termination buys (and
   costs) under the coordinator-killer nemesis — commit-window ambushes of
   coordinator home sites. Per termination mode (none / presumed-abort-only
   / cooperative, the last with deadlock detection) over fixed seeds:
   committed throughput, the abort breakdown including presumed and
   cooperative aborts, stranded tentative entries left at the run's end (the
   headline: nonzero under `none', zero under `cooperative'), decision-log
   and redrive counters, blocked-operation latency percentiles, and the
   oracle verdict for every run. Written to BENCH_5.json; the schema is
   documented in EXPERIMENTS.md. *)
let run_termination () =
  heading "Termination benchmark (coordinator-killer ambush, 5 seeds per mode)";
  let mode termination deadlock seed =
    { (ambushed ~seed) with Runtime.termination; deadlock }
  in
  let modes =
    grid ~judge:Monitors.check_run ~seeds:ambush_seeds
      ~fields:
        [
          Count ("committed", committed);
          Count ("aborted", fun m -> m.Runtime.aborted);
          Count ("stranded_entries", fun m -> m.Runtime.stranded_entries);
          Count ("coop_commits", fun m -> m.Runtime.coop_commits);
          Count ("coop_aborts", fun m -> m.Runtime.coop_aborts);
          Count ("presumed_aborts", fun m -> m.Runtime.presumed_aborts);
          Count ("deadlock_aborts", fun m -> m.Runtime.deadlock_aborts);
          Count ("redrives", fun m -> m.Runtime.redrives);
          Count ("orphans_reaped", fun m -> m.Runtime.orphans_reaped);
          Count ("decision_log_writes", fun m -> m.Runtime.decision_log_writes);
          Pooled ("blocked_latency_ms", p99, fun m -> m.Runtime.blocked_latency);
          Failed ("oracle_violations", any);
          Wall; Per_s;
        ]
      [
        ("none", mode Atomrep_txn.Termination.Disabled Runtime.No_deadlock);
        ( "presumed-abort-only",
          mode Atomrep_txn.Termination.Presumed_abort_only Runtime.No_deadlock );
        ("cooperative", mode Atomrep_txn.Termination.Cooperative Runtime.Detect);
      ]
  in
  List.iter
    (fun r ->
      Printf.printf "  %-20s committed=%d stranded=%d violations=%d\n%!" r.arm
        (count r "committed") (count r "stranded_entries") r.failures)
    modes;
  write_record "BENCH_5.json"
    (ambush_doc "crash-safe-termination"
       [ ("workload", Json.Str ambush_workload); ("modes", rows_json modes) ]);
  clean modes

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
  heading "Takeover benchmark (coordinator-killer ambush, 5 seeds per mode)";
  let monitors =
    match Monitors.of_names "commit_atomicity,common_order,no_divergence" with
    | Ok ms -> ms
    | Error e -> failwith e
  in
  let mode termination seed =
    { (ambushed ~seed) with Runtime.termination; deadlock = Runtime.Detect }
  in
  (* The history oracles and the no-divergence monitor keep separate
     tallies: the monitor is the takeover-specific property. *)
  let divergence m = String.starts_with ~prefix:"no_divergence" m in
  let modes =
    grid ~judge:(Monitors.check_run ~monitors) ~seeds:ambush_seeds
      ~fields:
        [
          Count ("committed", committed);
          Count ("aborted", fun m -> m.Runtime.aborted);
          Count ("stranded_entries", fun m -> m.Runtime.stranded_entries);
          Count ("coop_commits", fun m -> m.Runtime.coop_commits);
          Count ("coop_aborts", fun m -> m.Runtime.coop_aborts);
          Count ("redrives", fun m -> m.Runtime.redrives);
          Count ("takeover_leases", fun m -> m.Runtime.takeover_leases);
          Count ("takeover_adoptions", fun m -> m.Runtime.takeover_adoptions);
          Count ("takeover_fenced", fun m -> m.Runtime.takeover_fenced);
          Count ("takeover_contended", fun m -> m.Runtime.takeover_contended);
          Count ("rebroadcasts_suppressed", fun m -> m.Runtime.rebroadcasts_suppressed);
          Count ("stranded_live", fun m -> m.Runtime.stranded_live);
          Pooled ("blocked_latency_ms", p99, fun m -> m.Runtime.blocked_latency);
          Failed ("oracle_violations", fun m -> not (divergence m));
          Failed ("monitor_violations", divergence);
          Wall; Per_s;
        ]
      Atomrep_txn.Termination.
        [ ("cooperative", mode Cooperative); ("takeover", mode Takeover) ]
  in
  List.iter
    (fun r ->
      Printf.printf "  %-12s committed=%d adoptions=%d stranded=%d violations=%d\n%!"
        r.arm (count r "committed") (count r "takeover_adoptions")
        (count r "stranded_entries") r.failures)
    modes;
  (* Monitor-gated takeover-storm campaign: every driver of the same
     transaction dies or returns at the worst moment, across all three
     schemes; the record is the violation count (gate: zero). *)
  let report, storm_wall =
    timed (fun () ->
        Campaign.report
          (Campaign.sweep ~domains:1 ~monitors ~flags:Campaign.takeover_flags
             (Campaign.grid ~base:Campaign.takeover_base ~schemes
                ~profiles:[ Campaign.profile "takeover_storm" ]
                ~seeds:10 ~intensities:[ 1.0 ] ~n_txns:40)))
  in
  let storm_violations = List.length report.Campaign.violations in
  Printf.printf "  takeover_storm campaign: %d runs, %d violation(s)\n%!"
    report.Campaign.total_runs storm_violations;
  write_record "BENCH_6.json"
    (ambush_doc "coordinator-takeover"
       [
         ( "workload",
           Json.Str
             (ambush_workload
            ^ ", cooperative termination + deadlock detection in both modes") );
         ("modes", rows_json modes);
         ( "storm_campaign",
           Json.Obj
             [
               ("profile", Json.Str "takeover_storm");
               ("schemes", strs (List.map Replicated.scheme_name schemes));
               ("seeds", Json.int 10);
               ("n_txns", Json.int 40);
               ("monitor", Json.Bool true);
               ("total_runs", Json.int report.Campaign.total_runs);
               ("violations", Json.int storm_violations);
               ("wall_s", Json.Num storm_wall);
             ] );
       ]);
  clean modes && storm_violations = 0

(* E17: the monitored seed-sweep explorer. Part one sweeps a hardened
   configuration (takeover termination, deadlock detection)
   across two schemes x two adversarial profiles x 64 seeds — 256 runs,
   every one judged by the full monitor catalogue, expected clean. The
   same sweep runs once on a single domain and once on the recommended
   domain count to record the parallel speedup (bounded by the machine:
   on a single-core container the honest ratio is ~1). Part two plants
   the [Ungated_rejoin] mutant and sweeps the storm profile so the explorer has a
   real bug to find: the record keeps the violation count and the first
   shrunk reproducer. Fixture replays close the record. Written to
   BENCH_7.json; the schema is documented in EXPERIMENTS.md. The gate is
   a clean healthy sweep and every fixture replaying as expected. *)
let run_explore () =
  let healthy_schemes = Replicated.[ Static; Hybrid ] in
  let healthy_profiles = [ "storm"; "coordinator_killer" ] in
  let seeds = 64 and n_txns = 40 in
  (* One monitored sweep: its report, wall clock and BENCH_7 row. *)
  let sweep ~domains ?(max_shrinks = 4) ~flags tasks =
    let results, wall =
      timed (fun () ->
          Campaign.sweep ~domains ~monitors:Monitors.registry ~max_shrinks ~flags tasks)
    in
    let r = Campaign.report results in
    let sum f = List.fold_left (fun n c -> n + f c) 0 r.Campaign.cells in
    let row =
      Json.Obj
        [
          ("runs", Json.int r.Campaign.total_runs);
          ("committed", Json.int (sum (fun c -> c.Campaign.c_committed)));
          ("aborted", Json.int (sum (fun c -> c.Campaign.c_aborted)));
          ("violations", Json.int (List.length r.Campaign.violations));
          ("shrunk", Json.int (min max_shrinks (List.length r.Campaign.violations)));
          ("domains", Json.int (min domains r.Campaign.total_runs));
          ("wall_s", Json.Num wall);
        ]
    in
    (r, wall, row)
  in
  Printf.printf "explore: healthy hardened sweep (%d seeds/cell)...\n%!" seeds;
  let healthy ~domains =
    sweep ~domains ~flags:Campaign.takeover_flags
      (Campaign.grid ~base:Campaign.takeover_base ~schemes:healthy_schemes
         ~profiles:(List.map Campaign.profile healthy_profiles)
         ~seeds ~intensities:[ 1.0 ] ~n_txns)
  in
  let ((seq, seq_wall, _) as seq_sweep) = healthy ~domains:1 in
  let rec_domains = max 1 (Domain.recommended_domain_count ()) in
  let par, par_wall, _ = if rec_domains = 1 then seq_sweep else healthy ~domains:rec_domains in
  let speedup = seq_wall /. par_wall in
  Printf.printf
    "  %d runs: %d violation(s); wall 1 domain %.2fs, %d domain(s) %.2fs \
     (speedup %.2fx)\n%!"
    seq.Campaign.total_runs
    (List.length seq.Campaign.violations)
    seq_wall rec_domains par_wall speedup;
  Printf.printf "explore: ungated-rejoin sweep...\n%!";
  let ungated, ungated_wall, ungated_row =
    sweep ~domains:rec_domains ~max_shrinks:1 ~flags:[]
      (Campaign.grid
         ~base:{ Campaign.default_base with Runtime.mutant = Some Replicated.Ungated_rejoin }
         ~schemes:[ Replicated.Static ] ~profiles:[ Campaign.profile "storm" ] ~seeds:64
         ~intensities:[ 2.0 ] ~n_txns:60)
  in
  Printf.printf "  %d runs: %d violation(s), %d shrunk, wall %.2fs\n%!"
    ungated.Campaign.total_runs
    (List.length ungated.Campaign.violations)
    (min 1 (List.length ungated.Campaign.violations))
    ungated_wall;
  let replays =
    List.map2
      (fun f r -> (f, r, Campaign.fixture_holds f r))
      Campaign.fixtures
      (Campaign.replay_fixtures ~monitors:Monitors.registry Campaign.fixtures)
  in
  List.iter
    (fun (f, _, ok) ->
      Printf.printf "  fixture %s: %s\n%!" f.Campaign.f_name
        (if ok then "ok" else "REGRESSION"))
    replays;
  let _, _, seq_row = seq_sweep in
  write_record "BENCH_7.json"
    (Json.Obj
       [
         ( "explore",
           Json.Obj
             [
               ( "monitors",
                 strs (List.map (fun (e : Monitors.entry) -> e.Monitors.e_name) Monitors.registry)
               );
               ( "healthy",
                 Json.Obj
                   [
                     ("schemes", strs (List.map Replicated.scheme_name healthy_schemes));
                     ("profiles", strs healthy_profiles);
                     ("seeds", Json.int seeds);
                     ("n_txns", Json.int n_txns);
                     ("sweep", seq_row);
                   ] );
               ( "parallel",
                 Json.Obj
                   [
                     ("cores", Json.int rec_domains);
                     ("wall_1_domain_s", Json.Num seq_wall);
                     ("domains", Json.int (min rec_domains par.Campaign.total_runs));
                     ("wall_n_domains_s", Json.Num par_wall);
                     ("speedup", Json.Num speedup);
                   ] );
               ( "ungated_rejoin",
                 Json.Obj
                   [
                     ("seeds", Json.int 64);
                     ("n_txns", Json.int 60);
                     ("intensity", Json.Num 2.0);
                     ("sweep", ungated_row);
                     ( "first_shrunk",
                       match ungated.Campaign.violations with
                       | v :: _ -> Campaign.violation_json v
                       | [] -> Json.Null );
                   ] );
               ( "fixtures",
                 Json.List
                   (List.map
                      (fun (f, r, ok) ->
                        Json.Obj
                          [
                            ("name", Json.Str f.Campaign.f_name);
                            ("expect_violation", Json.Bool f.Campaign.f_expect_violation);
                            ("ok", Json.Bool ok);
                            ("failures", Campaign.failures_json r.Campaign.r_failures);
                          ])
                      replays) );
             ] );
       ]);
  seq.Campaign.violations = [] && par.Campaign.violations = []
  && List.for_all (fun (_, _, ok) -> ok) replays

(* Performance-observability benchmark record: what the profiling hooks,
   the sim-time time-series and the judge-only trace bus cost and buy.
   (1) per-scheme committed/s with no observability attached — the
   headline the `atomrep bench-diff` gate tracks under kind "perf";
   (2) observability overhead: wall clock for bare / profiled / traced /
   judge-only runs of the same fixed-seed hybrid workload (both traced
   rungs include the monitor catalogue's fold over the run; the traced
   rung stores every event, the judge-only rung only the kinds the
   catalogue observes and spans); (3) the fidelity audit: the per-kind
   monitor-event counts and the monitor verdicts must be identical on the
   two buses, and both must issue the same number of ids; (3b) each
   bus's retained words per stored event and minor words per emit,
   deterministic counts; (4) hot-phase profile and time-series
   snapshots. Written to BENCH_8.json; the schema
   is documented in EXPERIMENTS.md. The gate is (3) plus clean verdicts;
   the overhead ordering is wall-clock noise and only warns. *)
let run_perf () =
  let module Trace = Atomrep_obs.Trace in
  let module Profile = Atomrep_obs.Profile in
  let module Timeseries = Atomrep_obs.Timeseries in
  let seed = 42 and n_txns = 200 and reps = 5 in
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
  heading "Performance-observability benchmark (fixed seed, 5 reps)";
  (* (1) Per-scheme baseline throughput, no observability attached. *)
  let scheme_rows =
    grid
      ~seeds:(List.init reps (fun _ -> seed))
      ~fields:[ Count ("committed", committed); Wall; Per_s ]
      (List.map (fun s -> (Replicated.scheme_name s, fun _ -> cfg s)) schemes)
  in
  List.iter
    (fun r ->
      Printf.printf "  %-8s committed=%d (%.0f/s)\n%!" r.arm (count r "committed")
        (num r "committed_per_s"))
    scheme_rows;
  (* (2) Observability overhead on the hybrid workload. *)
  let monitors = Monitors.registry in
  let monitor_labels = Monitors.observed_labels monitors in
  (* Interleaved timing: one run of each configuration per round, so
     clock drift, GC state and cache warmth spread evenly across the four
     accumulators instead of biasing whichever ran last. *)
  let bare_s = ref 0.0 and profiled_s = ref 0.0 in
  let full_s = ref 0.0 and judge_s = ref 0.0 in
  let profile = Profile.create () in
  Profile.set_clock profile Unix.gettimeofday;
  (* A traced run judged by the whole catalogue, on a fresh bus. *)
  let traced ?observes () =
    let tr = Trace.create ?observes ~n_sites () in
    (tr, snd (Monitors.check_run ~monitors (cfg ~trace:tr Replicated.Hybrid)))
  in
  let tally acc f =
    let r, dt = timed f in
    acc := !acc +. dt;
    r
  in
  let rounds =
    List.init reps (fun _ ->
        ignore (tally bare_s (fun () -> Runtime.run (cfg Replicated.Hybrid)));
        ignore (tally profiled_s (fun () -> Runtime.run (cfg ~profile Replicated.Hybrid)));
        let full = tally full_s traced in
        (full, tally judge_s (traced ~observes:monitor_labels)))
  in
  let (full_tr, full_failures), (judge_tr, judge_failures) = List.nth rounds (reps - 1) in
  let bare_s = !bare_s and profiled_s = !profiled_s in
  let full_s = !full_s and judge_s = !judge_s in
  let ratio x = if bare_s > 0.0 then x /. bare_s else 0.0 in
  Printf.printf
    "  overhead: bare %.3fs, profiled %.3fs (x%.3f), traced %.3fs (x%.3f), \
     judge-only %.3fs (x%.3f)\n%!"
    bare_s profiled_s (ratio profiled_s) full_s (ratio full_s) judge_s (ratio judge_s);
  if ratio judge_s >= ratio full_s then
    print_endline "  WARNING: the judge-only bus did not reduce the tracing overhead";
  (* (3) Zero monitor-visible loss: per-kind counts over the monitored
     labels, and the verdicts, from the last traced vs the last
     judge-only run (same seed, same workload). *)
  let counts tr =
    let events = Trace.events tr in
    List.map
      (fun label ->
        let observed (e : Trace.event) = Trace.kind_label e.Trace.kind = label in
        (label, List.length (List.filter observed events)))
      monitor_labels
  in
  let judge_stored = List.length (Trace.events judge_tr) in
  let full_counts = counts full_tr and judge_counts = counts judge_tr in
  let counts_equal =
    full_counts = judge_counts && Trace.length full_tr = Trace.length judge_tr
  in
  let verdicts_equal = full_failures = judge_failures in
  Printf.printf
    "  fidelity: %d monitored kinds, counts %s, verdicts %s (judge-only bus \
     stored %d of %d events)\n%!"
    (List.length monitor_labels)
    (if counts_equal then "identical" else "DIFFER")
    (if verdicts_equal then "identical" else "DIFFER")
    judge_stored (Trace.length judge_tr);
  (* (3b) What the bus costs per event, as deterministic counts: the
     words it retains per stored event once its run is over (its clock
     reset, so that the engine behind the clock is not counted), and the
     minor words per emitted id: the run with the bus minus the same run
     without one, both unprofiled and unjudged (a bus leaves the run
     bit-identical), so every word the bus costs counts, at the emit
     sites as well as inside [Trace.emit]. *)
  let minor_words run =
    let before = Gc.minor_words () in
    ignore (run () : Runtime.outcome);
    Gc.minor_words () -. before
  in
  let untraced = minor_words (fun () -> Runtime.run (cfg Replicated.Hybrid)) in
  let bus_cost ?observes () =
    let tr = Trace.create ?observes ~n_sites () in
    let traced = minor_words (fun () -> Runtime.run (cfg ~trace:tr Replicated.Hybrid)) in
    Trace.set_clock tr (fun () -> 0.0);
    let stored = List.length (Trace.events tr) in
    let retained =
      float_of_int (Obj.reachable_words (Obj.repr tr)) /. float_of_int stored
    in
    (retained, (traced -. untraced) /. float_of_int (Trace.length tr))
  in
  let full_retained, full_publish = bus_cost () in
  let judge_retained, judge_publish = bus_cost ~observes:monitor_labels () in
  Printf.printf
    "  bus cost: full %.2f retained words per stored event, %.2f minor words per \
     emit; judge-only %.2f and %.2f\n%!"
    full_retained full_publish judge_retained judge_publish;
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
  let counts_json counts = Json.Obj (List.map (fun (l, n) -> (l, Json.int n)) counts) in
  write_record "BENCH_8.json"
    (Json.Obj
       [
         ("bench", Json.Str "perf");
         ("n_sites", Json.int n_sites);
         ("seed", Json.int seed);
         ("n_txns", Json.int n_txns);
         ("reps", Json.int reps);
         ("schemes", rows_json scheme_rows);
         ( "overhead",
           Json.Obj
             [
               ("bare_s", Json.Num bare_s);
               ("profiled_s", Json.Num profiled_s);
               ("traced_full_s", Json.Num full_s);
               ("judge_only_s", Json.Num judge_s);
               ("profile_ratio", Json.Num (ratio profiled_s));
               ("tracing_full_ratio", Json.Num (ratio full_s));
               ("judge_only_ratio", Json.Num (ratio judge_s));
               ("full_events", Json.int (Trace.length full_tr));
               ("judge_only_stored", Json.int judge_stored);
             ] );
         ( "bus_cost",
           Json.Obj
             [
               ("full_retained_words_per_event", Json.Num full_retained);
               ("full_minor_words_per_emit", Json.Num full_publish);
               ("judge_only_retained_words_per_event", Json.Num judge_retained);
               ("judge_only_minor_words_per_emit", Json.Num judge_publish);
             ] );
         ( "monitor_fidelity",
           Json.Obj
             [
               ("labels", strs monitor_labels);
               ("full_counts", counts_json full_counts);
               ("judge_only_counts", counts_json judge_counts);
               ("counts_equal", Json.Bool counts_equal);
               ("verdicts_equal", Json.Bool verdicts_equal);
               ("full_violations", Json.int (List.length full_failures));
               ("judge_only_violations", Json.int (List.length judge_failures));
             ] );
         ("profile_top", Json.List (List.map phase_json (Profile.top profile ~n:5)));
         ( "timeseries",
           Json.Obj
             [
               ("width", Json.Num (Timeseries.width ts));
               ("windows", Json.int (List.length (Timeseries.windows ts)));
               ("dropped", Json.int (Timeseries.dropped ts));
               ("series", strs (Timeseries.series_names ts));
             ] );
       ]);
  counts_equal && verdicts_equal && full_failures = [] && judge_failures = []

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
  let plan_seed = 97 and engine_seed = 42 in
  let base_rate = 0.010 (* txns per simulated ms: 10/s at mult 1 *) in
  let horizon = 12_000.0 and deadline = 1_000.0 in
  let mults = [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  heading "Overload benchmark: open-loop goodput, admission on vs off";
  Printf.printf
    "  one hot queue, plan seed %d, %.0f/s base offered load, %.0f ms \
     deadline\n%!"
    plan_seed (base_rate *. 1000.0) deadline;
  (* The plan depends only on the multiplier: every scheme and both
     admission settings replay byte-identical arrivals and scripts. *)
  let plans =
    List.map
      (fun mult ->
        ( mult,
          Openloop.plan ~profile:Openloop.Queue_fanout ~n_objects:1 ~n_sites:3
            ~n_sessions:6 ~seed:plan_seed ~rate:(base_rate *. mult) ~horizon () ))
      mults
  in
  let cfg scheme admission_on plan seed =
    let base =
      Openloop.apply plan
        {
          Runtime.default_config with
          Runtime.scheme;
          seed;
          horizon = horizon +. 28_000.0 (* drain: let the ungated pile finish *);
          timely_bound = deadline;
        }
    in
    if not admission_on then base
    else
      {
        base with
        Runtime.admission =
          Some
            {
              Runtime.max_in_flight = 8;
              queue_limit = 16;
              deadline;
              adm_shed_policy = Runtime.Shed_reads_first;
              adm_breaker = true;
            };
        retry_budget = 12;
      }
  in
  let fields =
    [
      Count ("committed", committed);
      Count ("timely", fun m -> m.Runtime.timely_commits);
      Value
        ( "committed_per_s",
          fun m ->
            if m.Runtime.duration > 0.0 then
              float_of_int m.Runtime.timely_commits /. m.Runtime.duration *. 1000.0
            else 0.0 );
      Count ("aborted", fun m -> m.Runtime.aborted);
      Count ("shed", fun m -> m.Runtime.shed);
      Count ("retries_spent", fun m -> m.Runtime.retries_spent);
      Count ("retries_budget_exhausted", fun m -> m.Runtime.retries_budget_exhausted);
      Count ("breaker_trips", fun m -> m.Runtime.breaker_trips);
      Value ("sojourn_p50_ms", fun m -> Summary.percentile m.Runtime.sojourn 0.5);
      Value ("sojourn_p99_ms", fun m -> Summary.percentile m.Runtime.sojourn 0.99);
      Failed ("violations", any);
    ]
  in
  let total_violations = ref 0 in
  (* One admission setting's curve: its (mult, goodput) points and rows. *)
  let curve scheme admission_on =
    let adm = if admission_on then "on" else "off" in
    let name = Replicated.scheme_name scheme in
    let rows =
      grid ~judge:(Monitors.check_run ~monitors:Monitors.registry) ~seeds:[ engine_seed ]
        ~fields
        (List.map
           (fun (mult, plan) ->
             (Printf.sprintf "%s/%s/x%g" name adm mult, cfg scheme admission_on plan))
           plans)
    in
    List.split
      (List.map2
         (fun (mult, plan) r ->
           let offered = float_of_int (Openloop.n_txns plan) /. horizon *. 1000.0 in
           let goodput = num r "committed_per_s" in
           total_violations := !total_violations + r.failures;
           Printf.printf
             "  %-8s x%-4.1f adm=%-3s offered=%6.1f/s goodput=%6.2f/s committed=%d \
              timely=%d shed=%d retries=%d%s\n%!"
             name mult adm offered goodput (count r "committed") (count r "timely")
             (count r "shed") (count r "retries_spent") (marker r);
           ( (mult, goodput),
             Json.Obj
               ([
                  ("name", Json.Str r.arm);
                  ("mult", Json.Num mult);
                  ("offered_per_s", Json.Num offered);
                  ("arrivals", Json.int (Openloop.n_txns plan));
                ]
               @ r.row) ))
         plans rows)
  in
  let sections =
    List.map
      (fun scheme ->
        let on_curve, on_rows = curve scheme true in
        let off_curve, off_rows = curve scheme false in
        let peak c = List.fold_left (fun a (_, g) -> Float.max a g) 0.0 c in
        let at_top c = snd (List.nth c (List.length c - 1)) in
        let on_peak = peak on_curve and off_peak = peak off_curve in
        let retention = if on_peak > 0.0 then at_top on_curve /. on_peak else 0.0 in
        let collapse = if off_peak > 0.0 then at_top off_curve /. off_peak else 0.0 in
        Printf.printf
          "  %-8s admission-on holds %.0f%% of its %.2f/s peak at x%g; \
           ungated falls to %.0f%% of %.2f/s\n%!"
          (Replicated.scheme_name scheme)
          (100.0 *. retention) on_peak
          (List.nth mults (List.length mults - 1))
          (100.0 *. collapse) off_peak;
        ( scheme,
          ( Replicated.scheme_name scheme,
            Json.Obj
              [
                ("admission_on", Json.List on_rows);
                ("admission_off", Json.List off_rows);
                ("on_peak_goodput", Json.Num on_peak);
                ("off_peak_goodput", Json.Num off_peak);
                ("on_retention_at_top", Json.Num retention);
                ("off_retention_at_top", Json.Num collapse);
              ] ),
          on_peak *. retention ))
      schemes
  in
  (* The knee headline: admission-on goodput at the top multiplier for
     the locking scheme — the scheme whose ungated baseline collapses
     hardest, so the number the admission machinery earns. *)
  let _, _, goodput_at_knee =
    List.find (fun (s, _, _) -> s = Replicated.Locking) sections
  in
  Printf.printf "  goodput at knee (locking, admission on): %.2f/s, %d \
                 monitor violations\n%!"
    goodput_at_knee !total_violations;
  write_record "BENCH_9.json"
    (Json.Obj
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
         ("schemes", Json.Obj (List.map (fun (_, s, _) -> s) sections));
       ]);
  !total_violations = 0

(* Gray-failure bench: commit latency and goodput under persistent
   fail-slow sites, across the hedging x demotion ablation grid, at
   equal open-loop offered load (one fixed arrival plan — every arm and
   slow-site count replays byte-identical arrivals). A fail-slow site
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
  heading "Gray-failure benchmark: fail-slow sites, hedging x demotion";
  Printf.printf
    "  %d sites, plan seed %d, %.0f/s offered, slow factor %.0fx from %.0f \
     ms\n%!"
    n_sites plan_seed (rate *. 1000.0) slow_factor slow_onset;
  let plan =
    Openloop.plan ~profile:Openloop.Queue_fanout ~n_objects:3 ~n_sites ~n_sessions:6
      ~seed:plan_seed ~rate ~horizon ()
  in
  let cfg scheme slow_sites gray seed =
    Openloop.apply plan
      {
        Runtime.default_config with
        Runtime.scheme;
        seed;
        n_sites;
        horizon = horizon +. 8_000.0 (* drain: let late rounds settle *);
        gray;
        fail_slow =
          List.map
            (fun s -> (s, slow_onset, Atomrep_sim.Network.Slow_constant slow_factor))
            slow_sites;
      }
  in
  let fields =
    [
      Count ("committed", committed);
      Count ("aborted", fun m -> m.Runtime.aborted);
      (* Goodput over the fixed offered window, not the run's duration,
         which ends wherever each arm's work ends. *)
      Value ("committed_per_s", fun m -> float_of_int m.Runtime.committed /. horizon *. 1000.0);
      Value ("latency_p50_ms", fun m -> Summary.percentile m.Runtime.txn_latency 0.5);
      Value ("latency_p99_ms", fun m -> Summary.percentile m.Runtime.txn_latency 0.99);
      Count ("hedges", fun m -> m.Runtime.hedges);
      Count ("hedge_wins", fun m -> m.Runtime.hedge_wins);
      Count ("hedge_late", fun m -> m.Runtime.hedge_late);
      Count ("demoted_rounds", fun m -> m.Runtime.demoted_rounds);
      Count ("slow_suspicions", fun m -> m.Runtime.slow_suspicions);
      Failed ("violations", any);
    ]
  in
  let total_violations = ref 0 and headline = ref 0.0 in
  let cell set_name slow_sites scheme =
    let rows =
      grid ~judge:(Monitors.check_run ~monitors:Monitors.registry) ~seeds:[ engine_seed ]
        ~fields
        (List.map (fun (arm, gray) -> (arm, cfg scheme slow_sites gray)) arms)
    in
    List.iter
      (fun r ->
        total_violations := !total_violations + r.failures;
        Printf.printf
          "  %-8s %-12s slow=%d committed=%3d aborted=%3d p50=%7.1f ms p99=%8.1f \
           ms hedges=%d wins=%d demoted=%d%s\n%!"
          (Replicated.scheme_name scheme)
          r.arm (List.length slow_sites) (count r "committed") (count r "aborted")
          (num r "latency_p50_ms") (num r "latency_p99_ms") (count r "hedges")
          (count r "hedge_wins") (count r "demoted_rounds") (marker r))
      rows;
    let p99 arm = num (find rows arm) "latency_p99_ms" in
    if set_name = "one_slow" && scheme = Replicated.Hybrid && p99 "hedge_demote" > 0.0
    then headline := p99 "baseline" /. p99 "hedge_demote";
    let arrivals = ("arrivals", Json.int (Openloop.n_txns plan)) in
    ( Replicated.scheme_name scheme,
      Json.Obj (List.map (fun r -> (r.arm, Json.Obj (arrivals :: r.row))) rows) )
  in
  let grid_sections =
    List.map
      (fun (set_name, slow_sites) ->
        (set_name, Json.Obj (List.map (cell set_name slow_sites) schemes)))
      slow_sets
  in
  Printf.printf
    "  p99 speedup, hedge+demote vs baseline (hybrid, one slow site): \
     %.2fx, %d monitor violations\n%!"
    !headline !total_violations;
  write_record "BENCH_10.json"
    (Json.Obj
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
       ]);
  !total_violations = 0

(* --- The entry table: dispatch, usage and exit status --- *)

let experiments =
  List.map
    (fun (id, doc, run) -> (id, (doc, fun () -> run (); true)))
    Atomrep_experiments.Experiments.all

let entries =
  [
    ( "all",
      ( "every experiment, then micro (the default)",
        fun () ->
          List.iter (fun (_, _, run) -> run ()) Atomrep_experiments.Experiments.all;
          run_micro () ) );
    ("micro", ("Bechamel micro-benchmarks of the analysis kernels", run_micro));
    ("chaos", ("timed chaos campaign, every scheme x every profile", run_chaos));
    ("reconfig", ("reconfiguration campaign + committed on/off under kills", run_reconfig));
    ("json", ("BENCH_3.json: per-scheme replicated queue + tracing overhead", run_json));
    ("storage", ("BENCH_4.json: durability modes + compaction ablation", run_storage));
    ("termination", ("BENCH_5.json: termination modes under coordinator kills", run_termination));
    ("takeover", ("BENCH_6.json: takeover on/off + monitor-gated storm campaign", run_takeover));
    ("explore", ("BENCH_7.json: explorer sweeps, domain speedup, fixture replays", run_explore));
    ("perf", ("BENCH_8.json: observability overhead ladder + judge-only bus fidelity", run_perf));
    ("load", ("BENCH_9.json: open-loop goodput, admission on vs off", run_load));
    ("gray", ("BENCH_10.json: fail-slow sites, hedging x demotion grid", run_gray));
  ]
  @ experiments

let usage () =
  prerr_endline "usage: main.exe [ENTRY ...]   (no entry: all)";
  List.iter (fun (name, (doc, _)) -> Printf.eprintf "  %-12s %s\n" name doc) entries

let () =
  let names =
    match List.tl (Array.to_list Sys.argv) with [] -> [ "all" ] | names -> names
  in
  match List.filter (fun n -> not (List.mem_assoc n entries)) names with
  | [] ->
    let passed name =
      let ok = snd (List.assoc name entries) () in
      if not ok then Printf.eprintf "bench entry %s: gate failed\n%!" name;
      ok
    in
    exit (if List.fold_left (fun ok name -> passed name && ok) true names then 0 else 1)
  | unknown ->
    Printf.eprintf "unknown entry: %s\n" (String.concat ", " unknown);
    usage ();
    exit 2
