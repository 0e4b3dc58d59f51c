(* atomrep — command-line interface to the analysis and the simulator.

   Subcommands:
     analyze     — dependency relations of a data type
     quorums     — enumerate valid quorum assignments and availabilities
     simulate    — run the replicated-object simulator
     chaos       — fault-injection campaign over seeds x schemes x profiles
     experiment  — run one of the paper-reproduction experiments
     types       — list the built-in data types *)

open Cmdliner
open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_stats
module Obs = Atomrep_obs

(* A positive integer: sizes a run cannot start from (no sites, a
   zero-slot admission window) are usage errors, not runs. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Shared observability flags: --trace/--trace-format for the event trace,
   --metrics-json for the run's metrics registry. *)
let trace_file_arg =
  let doc = "Write the run's event trace to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace format: `jsonl' (one event per line) or `chrome' (trace_event \
     JSON, opens in Perfetto / chrome://tracing)."
  in
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FMT" ~doc)

let metrics_json_arg =
  let doc = "Write the run's metrics registry as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE" ~doc)

let write_trace path fmt trace =
  let contents =
    match fmt with
    | `Chrome -> Obs.Export.chrome_string trace
    | `Jsonl -> Obs.Export.jsonl trace
  in
  Obs.Export.write_file path contents;
  print_string (Obs.Export.flame trace)

let write_metrics path registry =
  Obs.Export.write_file path (Obs.Json.to_string (Obs.Metrics.to_json registry))

(* Shared performance-observability flags: --sample thins the trace bus
   (monitor-subscribed kinds stay full fidelity), --profile turns on the
   phase profiler, --timeseries samples sim-time windows to a JSON file. *)
let sample_arg =
  let doc =
    "Keep one in $(docv) trace events per kind (deterministic counter, no \
     RNG). Span and quiesce events, and any kind a selected monitor \
     subscribes to, are always kept, so monitor verdicts are identical \
     sampled or not. 1 = full fidelity."
  in
  Arg.(value & opt int 1 & info [ "sample" ] ~docv:"N" ~doc)

let profile_flag_arg =
  let doc =
    "Profile the run: print the hot-phase table (wall time + minor-heap \
     allocation per subsystem/phase) after the metrics."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let timeseries_file_arg =
  let doc =
    "Sample committed/aborted/blocked rates, WAL flushes, messages, queue \
     depth and the stranded gauge into fixed-width sim-time windows and \
     write them as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "timeseries" ] ~docv:"FILE" ~doc)

let window_arg =
  let doc = "Time-series window width in simulated ms." in
  Arg.(value & opt float 500.0 & info [ "window" ] ~docv:"MS" ~doc)

(* A wall-clock profile: the obs library defaults to Sys.time because it
   cannot link Unix; the CLI can, so runs measure real elapsed time. *)
let fresh_profile () =
  let p = Obs.Profile.create () in
  Obs.Profile.set_clock p Unix.gettimeofday;
  p

let print_profile p =
  Format.printf "%a@?" (Obs.Profile.pp_table ?top:None) p

let write_timeseries path ts =
  Obs.Export.write_file path (Obs.Json.to_string (Obs.Timeseries.to_json ts));
  Printf.printf "wrote %s (%d windows)\n" path
    (List.length (Obs.Timeseries.windows ts))

(* Shared monitor selection: every run is gated on declarative spec
   monitors, by default the two history oracles (commit_atomicity,
   common_order); --monitor [SEL] picks the selection instead, and a bare
   --monitor selects the whole catalogue. *)
let monitor_arg =
  Arg.(
    value
    & opt ~vopt:(Some "all") (some string) None
    & info [ "monitor" ] ~docv:"MONITORS"
        ~doc:
          (Printf.sprintf
             "Gate the run(s) on the selected declarative spec monitors \
              instead of the default commit_atomicity,common_order history \
              oracles; runs are traced when a selected monitor observes \
              trace events, and violations make the exit code nonzero. \
              $(docv) is %s. Bare $(b,--monitor) selects `all'."
             Atomrep_chaos.Monitors.selection_doc))

let parse_monitors = function
  | None -> Ok Atomrep_chaos.Monitors.history
  | Some sel -> Atomrep_chaos.Monitors.of_names sel

(* One verdict line per judged run: the monitors that held, or one line
   per failure. *)
let print_verdict monitors = function
  | [] ->
    Printf.printf "monitors: OK (%s)\n"
      (String.concat ", "
         (List.map
            (fun (e : Atomrep_chaos.Monitors.entry) -> e.Atomrep_chaos.Monitors.e_name)
            monitors))
  | fs -> List.iter (fun (o, f) -> Printf.printf "VIOLATION %s: %s\n" o f) fs

(* Shared durability flag: which stable-storage model backs every
   repository. `wal' flushes on every append batch; `wal-group-commit'
   defers the flush barrier until a batch carries a commit/abort record. *)
let durability_arg =
  let doc =
    "Stable-storage model: `none' (volatile repositories, the default), \
     `wal' (per-site write-ahead log, flushed on every append batch), or \
     `wal-group-commit' (flush barriers only on batches carrying \
     commit/abort records)."
  in
  Arg.(
    value
    & opt
        (enum [ ("none", `None); ("wal", `Wal); ("wal-group-commit", `Wal_gc) ])
        `None
    & info [ "durability" ] ~docv:"MODE" ~doc)

let durability_of = function
  | `None -> Atomrep_replica.Repository.Volatile
  | `Wal -> Atomrep_replica.Repository.durable ()
  | `Wal_gc -> Atomrep_replica.Repository.durable ~group_commit:true ()

(* Shared crash-safe-termination flags (see Runtime.config). *)
let termination_arg =
  let doc =
    "Crash-safe transaction termination: `none' (coordinator crashes \
     strand in-doubt transactions, the historical behavior), \
     `presumed-abort-only' (durable commit point, recovery redrive, \
     presumed abort), or `cooperative' (plus participant-driven quorum \
     termination and the orphan reaper)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("none", Atomrep_txn.Termination.Disabled);
             ("presumed-abort-only", Atomrep_txn.Termination.Presumed_abort_only);
             ("cooperative", Atomrep_txn.Termination.Cooperative);
           ])
        Atomrep_txn.Termination.Disabled
    & info [ "termination" ] ~docv:"MODE" ~doc)

let deadlock_arg =
  let doc =
    "Deadlock policy for blocked operations: `none' (backoff and retry \
     budgets only), `detect' (waits-for cycle detection, youngest victim), \
     or `wound-wait' (older waiters preempt younger blockers)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("none", Atomrep_replica.Runtime.No_deadlock);
             ("detect", Atomrep_replica.Runtime.Detect);
             ("wound-wait", Atomrep_replica.Runtime.Wound_wait);
           ])
        Atomrep_replica.Runtime.No_deadlock
    & info [ "deadlock" ] ~docv:"POLICY" ~doc)

let takeover_arg =
  let doc =
    "Coordinator takeover: a participant that finds a dead coordinator's \
     in-doubt transaction wins an epoch-fenced takeover lease, adopts the \
     drive from the quorum's sticky votes, and force-writes the adopted \
     decision to its own durable decision log. Only meaningful with \
     --termination cooperative."
  in
  Arg.(value & flag & info [ "takeover" ] ~doc)

(* Shared retry-budget flag: caps retry amplification (conflict backoffs,
   commit-quorum re-probes, and commit re-drives all spend from one
   per-transaction pot). 0 keeps the historical unlimited behavior. *)
let retry_budget_arg =
  let doc =
    "Per-transaction retry budget shared by conflict backoffs, commit-quorum \
     re-probes and commit re-drives; exhaustion aborts the transaction \
     (or gives the commit drive up as in-doubt). 0 = unlimited."
  in
  Arg.(value & opt int 0 & info [ "retry-budget" ] ~docv:"N" ~doc)

let retry_budget_of n = if n <= 0 then max_int else n

(* Shared gray-failure flags: --fail-slow injects persistent fail-slow
   sites, --hedge / --demote turn the mitigation layer on (Runtime.gray). *)
let hedge_arg =
  let doc =
    "Hedge quorum rounds: fire each quorum gather the moment a satisfying \
     vote set has answered, and re-issue straggling calls to a spare \
     quorum member after an adaptive percentile delay (repositories are \
     idempotent, so first-reply-wins is safe)."
  in
  Arg.(value & flag & info [ "hedge" ] ~doc)

let demote_arg =
  let doc =
    "Demote slow-suspected sites: steer quorum vote-set selection away \
     from sites the latency detector grades fail-slow (never below the \
     quorum floor), and — when the reconfiguration coordinator runs — \
     plan persistent offenders out of the epoch."
  in
  Arg.(value & flag & info [ "demote" ] ~doc)

let gray_of ~hedge ~demote =
  if hedge || demote then
    Some { Atomrep_replica.Runtime.default_gray with hedge; demote }
  else None

let fail_slow_arg =
  let doc =
    "Comma-separated fail-slow injections, each SITE[:MODE[:FACTOR[:ONSET]]]: \
     from ONSET ms on (default 0), SITE answers with service times inflated \
     by FACTOR (default 8) under shape MODE — `constant', `heavy' (mild \
     base inflation with occasional large spikes), or `creep' (degradation \
     ramping up to FACTOR). The site stays up: a gray failure, not a crash."
  in
  Arg.(value & opt string "" & info [ "fail-slow" ] ~docv:"SPEC" ~doc)

let parse_fail_slow spec =
  let mode_of name factor =
    match name with
    | "constant" -> Ok (Atomrep_sim.Network.Slow_constant factor)
    | "heavy" ->
      Ok
        (Atomrep_sim.Network.Slow_heavy
           {
             factor = 1.0 +. ((factor -. 1.0) /. 4.0);
             p_tail = 0.2;
             tail_factor = 2.0 *. factor;
           })
    | "creep" ->
      Ok (Atomrep_sim.Network.Slow_creeping { rate = factor /. 1000.0; cap = factor })
    | other ->
      Error (Printf.sprintf "unknown fail-slow mode %S (constant|heavy|creep)" other)
  in
  let item s =
    let bad () =
      Error (Printf.sprintf "bad fail-slow spec %S (SITE[:MODE[:FACTOR[:ONSET]]])" s)
    in
    match String.split_on_char ':' s with
    | ([ _ ] | [ _; _ ] | [ _; _; _ ] | [ _; _; _; _ ]) as parts -> (
      let site = int_of_string_opt (List.nth parts 0) in
      let mode_name = if List.length parts > 1 then List.nth parts 1 else "constant" in
      let factor =
        if List.length parts > 2 then float_of_string_opt (List.nth parts 2)
        else Some 8.0
      in
      let onset =
        if List.length parts > 3 then float_of_string_opt (List.nth parts 3)
        else Some 0.0
      in
      match site, factor, onset with
      | Some site, Some factor, Some onset ->
        Result.map (fun mode -> (site, onset, mode)) (mode_of mode_name factor)
      | _ -> bad ())
    | _ -> bad ()
  in
  if String.equal (String.trim spec) "" then Ok []
  else
    List.fold_right
      (fun s acc ->
        match acc, item s with
        | Error e, _ -> Error e
        | _, Error e -> Error e
        | Ok rest, Ok it -> Ok (it :: rest))
      (String.split_on_char ',' spec)
      (Ok [])

let check_fail_slow_sites ~n_sites fs =
  match List.find_opt (fun (s, _, _) -> s < 0 || s >= n_sites) fs with
  | Some (s, _, _) ->
    Error
      (Printf.sprintf
         "fail-slow site %d out of range (cluster has %d sites: 0..%d)" s
         n_sites (n_sites - 1))
  | None -> Ok fs

let print_gray_metrics (m : Atomrep_replica.Runtime.metrics) =
  let open Atomrep_replica in
  Printf.printf
    "gray: hedges=%d wins=%d late-replies=%d demoted-rounds=%d slow-suspicions=%d\n"
    m.Runtime.hedges m.Runtime.hedge_wins m.Runtime.hedge_late
    m.Runtime.demoted_rounds m.Runtime.slow_suspicions

let print_takeover_metrics (m : Atomrep_replica.Runtime.metrics) =
  let open Atomrep_replica in
  Printf.printf
    "takeover: leases=%d adoptions=%d fenced=%d contended=%d \
     rebroadcasts-suppressed=%d stranded-live=%d\n"
    m.Runtime.takeover_leases m.Runtime.takeover_adoptions
    m.Runtime.takeover_fenced m.Runtime.takeover_contended
    m.Runtime.rebroadcasts_suppressed m.Runtime.stranded_live

let print_termination_metrics (m : Atomrep_replica.Runtime.metrics) =
  let open Atomrep_replica in
  Printf.printf
    "termination: coop-commits=%d coop-aborts=%d presumed=%d deadlock=%d \
     redrives=%d orphans-reaped=%d stranded=%d decision-writes=%d mean \
     blocked %.1f ms\n"
    m.Runtime.coop_commits m.Runtime.coop_aborts m.Runtime.presumed_aborts
    m.Runtime.deadlock_aborts m.Runtime.redrives m.Runtime.orphans_reaped
    m.Runtime.stranded_entries m.Runtime.decision_log_writes
    (Summary.mean m.Runtime.blocked_latency)

let print_wal_metrics (m : Atomrep_replica.Runtime.metrics) =
  let open Atomrep_replica in
  Printf.printf
    "wal: flushes=%d (records=%d, lost=%d, disk-full=%d) checkpoints=%d \
     torn=%d rotted=%d storage-faults=%d\n"
    m.Runtime.wal_flushes m.Runtime.wal_flushed_records m.Runtime.wal_lost_flushes
    m.Runtime.wal_full_rejections m.Runtime.wal_checkpoints m.Runtime.wal_torn_writes
    m.Runtime.wal_rotted m.Runtime.storage_faults;
  Printf.printf
    "recovery: %d replays (%d corrupt), mean replay %.1f records, mean cost \
     %.2f ms\n"
    m.Runtime.recoveries m.Runtime.recoveries_corrupt
    (Summary.mean m.Runtime.recovery_replay)
    (Summary.mean m.Runtime.recovery_cost)

let find_spec name =
  match Type_registry.find name with
  | Some spec -> Ok spec
  | None ->
    Error
      (Printf.sprintf "unknown type %S; available: %s" name
         (String.concat ", " Type_registry.names))

let type_arg =
  let doc = "Data type to analyze (see the `types' subcommand)." in
  Arg.(required & opt (some string) None & info [ "t"; "type" ] ~docv:"TYPE" ~doc)

let max_len_arg =
  let doc = "History-length bound for the exhaustive analyses." in
  Arg.(value & opt int 4 & info [ "max-len" ] ~docv:"N" ~doc)

(* --- analyze --- *)

let analyze_cmd =
  let run type_name max_len hybrid_search =
    match find_spec type_name with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let hybrid =
        if hybrid_search then
          Analysis.Search { max_events = max_len; max_actions = 3; universe = None }
        else Analysis.Skip
      in
      let analysis = Analysis.analyze ~max_len ~hybrid spec in
      Format.printf "%a@." Analysis.pp_report analysis;
      0
  in
  let hybrid_arg =
    let doc =
      "Also search for minimal hybrid dependency relations (bounded, can be \
       slow for large event universes)."
    in
    Arg.(value & flag & info [ "hybrid-search" ] ~doc)
  in
  let doc = "Compute a data type's dependency relations" in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ type_arg $ max_len_arg $ hybrid_arg)

(* --- quorums --- *)

let quorums_cmd =
  let run type_name max_len n_sites property p =
    match find_spec type_name with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let relation =
        match property with
        | "static" -> Ok (Static_dep.minimal spec ~max_len)
        | "dynamic" -> Ok (Dynamic_dep.minimal spec ~max_len)
        | other -> Error (Printf.sprintf "unknown property %S (static|dynamic)" other)
      in
      (match relation with
       | Error e ->
         prerr_endline e;
         1
       | Ok relation ->
         let constraints = Op_constraint.of_relation relation in
         List.iter (fun c -> Format.printf "%a@." Op_constraint.pp c) constraints;
         let ops =
           List.sort_uniq String.compare
             (List.map
                (fun (inv : Atomrep_history.Event.Invocation.t) -> inv.op)
                spec.Serial_spec.invocations)
         in
         let assignments = Assignment.enumerate ~n_sites ~ops constraints in
         Printf.printf "\n%d valid threshold assignments on %d sites\n"
           (List.length assignments) n_sites;
         let mix = List.map (fun op -> (op, 1.0)) ops in
         (match Assignment.best_for_mix ~p ~mix assignments with
          | None -> print_endline "no valid assignment"
          | Some best ->
            Format.printf "best for a uniform mix at p=%.2f: %a@." p Assignment.pp best;
            List.iter
              (fun op ->
                Printf.printf "  availability(%s) = %.4f\n" op
                  (Assignment.availability best ~p op))
              ops);
         0)
  in
  let sites_arg =
    Arg.(value & opt pos_int 5 & info [ "n"; "sites" ] ~docv:"SITES" ~doc:"Replication degree.")
  in
  let property_arg =
    Arg.(
      value & opt string "static"
      & info [ "property" ] ~docv:"PROP" ~doc:"static or dynamic.")
  in
  let p_arg =
    Arg.(
      value & opt float 0.9
      & info [ "p" ] ~docv:"P" ~doc:"Per-site up probability for availability.")
  in
  let doc = "Enumerate valid quorum assignments for a data type" in
  Cmd.v (Cmd.info "quorums" ~doc)
    Term.(const run $ type_arg $ max_len_arg $ sites_arg $ property_arg $ p_arg)

(* --- simulate --- *)

let simulate_cmd =
  let run scheme_name n_txns n_sites seed mtbf reconfigure hedge demote fail_slow
      durability termination deadlock takeover retry_budget monitor trace_file
      trace_format metrics_json sample profile_on ts_file window =
    match
      ( Atomrep_replica.Replicated.scheme_of_name scheme_name,
        parse_monitors monitor,
        Result.bind (parse_fail_slow fail_slow)
          (check_fail_slow_sites ~n_sites) )
    with
    | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      prerr_endline e;
      1
    | Ok scheme, Ok monitors, Ok fail_slow ->
      let open Atomrep_replica in
      let install_faults net =
        if mtbf > 0.0 then Atomrep_sim.Fault.crash_recover_all net ~mtbf ~mttr:150.0
      in
      (* A bus to export, or to report the sampling of; otherwise the judge
         attaches one only if a selected monitor folds trace events. *)
      let trace =
        if trace_file <> None || sample > 1 then Some (Obs.Trace.create ~n_sites ())
        else None
      in
      let profile = if profile_on then fresh_profile () else Obs.Profile.null in
      let timeseries =
        match ts_file with
        | Some _ -> Obs.Timeseries.create ~width:window ()
        | None -> Obs.Timeseries.null
      in
      let cfg =
        {
          Runtime.default_config with
          profile;
          timeseries;
          scheme;
          n_txns;
          n_sites;
          seed;
          install_faults;
          trace;
          objects =
            [
              {
                Runtime.obj_name = "queue";
                obj_spec = Queue_type.spec;
                obj_relation = Static_dep.minimal Queue_type.spec ~max_len:4;
                obj_assignment = Runtime.default_queue_assignment ~n_sites;
                obj_members = None;
              };
            ];
          reconfig = (if reconfigure then Some Runtime.default_reconfig else None);
          gray = gray_of ~hedge ~demote;
          fail_slow;
          durability = durability_of durability;
          termination;
          deadlock;
          takeover;
          retry_budget = retry_budget_of retry_budget;
        }
      in
      let outcome, failures =
        Atomrep_chaos.Monitors.check_run ~monitors ~sample cfg
      in
      let m = outcome.Runtime.metrics in
      Printf.printf
        "scheme=%s txns=%d committed=%d aborted=%d (unavailable=%d rejected=%d \
         conflict=%d) blocked-waits=%d\n"
        (Replicated.scheme_name scheme)
        n_txns m.Runtime.committed m.Runtime.aborted m.Runtime.unavailable_aborts
        m.Runtime.rejected_aborts m.Runtime.conflict_aborts m.Runtime.blocked_waits;
      Printf.printf "mean txn latency: %.1f ms over %.1f ms simulated\n"
        (Summary.mean m.Runtime.txn_latency)
        m.Runtime.duration;
      Printf.printf
        "messages: sent=%d dropped=%d duplicated=%d dead-dest=%d rpc-timeouts=%d\n"
        m.Runtime.msgs_sent m.Runtime.msgs_dropped m.Runtime.msgs_duplicated
        m.Runtime.msgs_dead_dest m.Runtime.rpc_timeouts;
      if reconfigure then
        Printf.printf
          "reconfigurations: %d ok (%d refused, %d failed), final epoch %d, \
           detector transitions %d\n"
          m.Runtime.reconfigs m.Runtime.reconfigs_refused m.Runtime.reconfigs_failed
          m.Runtime.final_epoch m.Runtime.suspicion_transitions;
      if hedge || demote then print_gray_metrics m;
      if durability <> `None then print_wal_metrics m;
      if
        termination <> Atomrep_txn.Termination.Disabled
        || deadlock <> Runtime.No_deadlock
      then print_termination_metrics m;
      if takeover then print_takeover_metrics m;
      if retry_budget > 0 then
        Printf.printf "retries: spent=%d budget-exhausted=%d\n"
          m.Runtime.retries_spent m.Runtime.retries_budget_exhausted;
      (* The monitors gate the exit code so scripted runs can fail hard. *)
      print_verdict monitors failures;
      (match trace with
       | Some tr when sample > 1 ->
         Printf.printf "trace sampling: 1/%d, kept=%d sampled-out=%d\n"
           (Obs.Trace.sampling tr)
           (Obs.Trace.length tr)
           (Obs.Trace.sampled_out tr)
       | _ -> ());
      if profile_on then print_profile profile;
      (match ts_file with
       | Some path -> write_timeseries path timeseries
       | None -> ());
      (match trace_file, trace with
       | Some path, Some tr -> write_trace path trace_format tr
       | _ -> ());
      (match metrics_json with
       | Some path -> write_metrics path outcome.Runtime.registry
       | None -> ());
      if failures = [] then 0 else 1
  in
  let scheme_arg =
    Arg.(
      value & opt string "hybrid"
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"hybrid, static, or locking.")
  in
  let txns_arg =
    Arg.(value & opt int 100 & info [ "txns" ] ~docv:"N" ~doc:"Transactions to run.")
  in
  let sites_arg =
    Arg.(value & opt pos_int 3 & info [ "n"; "sites" ] ~docv:"SITES" ~doc:"Replication degree.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let mtbf_arg =
    Arg.(
      value & opt float 0.0
      & info [ "mtbf" ] ~docv:"MS" ~doc:"Mean time between site failures (0 = none).")
  in
  let reconfigure_arg =
    Arg.(
      value & flag
      & info [ "reconfigure" ]
          ~doc:
            "Enable the failure-detector-driven epoch reconfiguration \
             coordinator (hybrid/locking only; refused under static).")
  in
  let doc = "Run the replicated-queue simulator" in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ scheme_arg $ txns_arg $ sites_arg $ seed_arg $ mtbf_arg
      $ reconfigure_arg $ hedge_arg $ demote_arg $ fail_slow_arg
      $ durability_arg $ termination_arg $ deadlock_arg
      $ takeover_arg $ retry_budget_arg $ monitor_arg $ trace_file_arg
      $ trace_format_arg $ metrics_json_arg $ sample_arg $ profile_flag_arg
      $ timeseries_file_arg $ window_arg)

(* --- chaos --- *)

let parse_schemes names =
  List.fold_right
    (fun name acc ->
      match acc, Atomrep_replica.Replicated.scheme_of_name name with
      | Error e, _ -> Error e
      | _, Error e -> Error e
      | Ok rest, Ok s -> Ok (s :: rest))
    (String.split_on_char ',' names)
    (Ok [])

let parse_profiles names =
  let module Campaign = Atomrep_chaos.Campaign in
  if String.equal names "all" then Ok Campaign.builtin_profiles
  else
    List.fold_right
      (fun name acc ->
        match acc, Campaign.find_profile name with
        | Error e, _ -> Error e
        | _, None ->
          Error
            (Printf.sprintf "unknown profile %S; known: all, %s" name
               (String.concat ", " Campaign.profile_names))
        | Ok rest, Some p -> Ok (p :: rest))
      (String.split_on_char ',' names)
      (Ok [])

let chaos_cmd =
  let module Campaign = Atomrep_chaos.Campaign in
  let run schemes profiles seeds txns intensity repro seed reconfig overload gray
      hedge demote fail_slow durability termination deadlock takeover
      retry_budget monitor trace_file trace_format metrics_json postmortem_dir
      sample =
    (* Validate --fail-slow sites against the base the flags select, before
       any run starts — an out-of-range site would otherwise crash mid-sweep
       on the raw per-site slow array. *)
    let base_n_sites =
      (if overload then Campaign.overload_base
       else if gray then Campaign.gray_base
       else if reconfig then Campaign.reconfig_base
       else Campaign.default_base)
        .Atomrep_replica.Runtime.n_sites
    in
    match
      ( parse_schemes schemes,
        parse_profiles profiles,
        parse_monitors monitor,
        Result.bind (parse_fail_slow fail_slow)
          (check_fail_slow_sites ~n_sites:base_n_sites) )
    with
    | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e ->
      prerr_endline e;
      1
    | Ok schemes, Ok profiles, Ok monitors, Ok fail_slow ->
      let base =
        if overload then Campaign.overload_base
        else if gray then Campaign.gray_base
        else if reconfig then Campaign.reconfig_base
        else Campaign.default_base
      in
      let base =
        if retry_budget > 0 then
          { base with Atomrep_replica.Runtime.retry_budget }
        else base
      in
      (* --hedge/--demote overlay the mitigation policy on whatever base was
         picked; --fail-slow adds deterministic per-site slow injections on
         top of the profile's nemesis schedule. *)
      let base =
        match gray_of ~hedge ~demote with
        | Some g -> { base with Atomrep_replica.Runtime.gray = Some g }
        | None -> base
      in
      let base =
        match fail_slow with
        | [] -> base
        | fs -> { base with Atomrep_replica.Runtime.fail_slow = fs }
      in
      (* Chaos-tuned durability: small segments and an aggressive checkpoint
         period (storage_base's tuning) so campaign-length runs roll and
         compact segments — the storage profiles need something to bite. *)
      let base =
        match durability with
        | `None -> base
        | `Wal ->
          {
            base with
            Atomrep_replica.Runtime.durability =
              Atomrep_replica.Repository.durable ~segment_records:16
                ~checkpoint_every:48 ();
          }
        | `Wal_gc ->
          {
            base with
            Atomrep_replica.Runtime.durability =
              Campaign.storage_base.Atomrep_replica.Runtime.durability;
          }
      in
      let base =
        { base with Atomrep_replica.Runtime.termination; deadlock; takeover }
      in
      if repro then begin
        (* Replay one reproducer tuple per scheme/profile given; all the
           replays share one trace bus, so the exported file covers the
           whole invocation, and each replay is judged on its own events. *)
        let trace =
          match trace_file with
          | Some _ ->
            Some (Obs.Trace.create ~n_sites:base.Atomrep_replica.Runtime.n_sites ())
          | None -> None
        in
        let failed = ref false in
        let last_registry = ref None in
        List.iter
          (fun scheme ->
            List.iter
              (fun profile ->
                let outcome, failures =
                  Campaign.reproduce ~base ~monitors ~sample ?trace ~scheme
                    ~profile ~seed ~n_txns:txns ~intensity ()
                in
                last_registry := Some outcome.Atomrep_replica.Runtime.registry;
                Printf.printf "%s/%s seed=%d txns=%d intensity=%g: committed=%d\n"
                  (Atomrep_replica.Replicated.scheme_name scheme)
                  profile.Campaign.profile_name seed txns intensity
                  outcome.Atomrep_replica.Runtime.metrics
                    .Atomrep_replica.Runtime.committed;
                if durability <> `None then
                  print_wal_metrics outcome.Atomrep_replica.Runtime.metrics;
                if
                  termination <> Atomrep_txn.Termination.Disabled
                  || deadlock <> Atomrep_replica.Runtime.No_deadlock
                then
                  print_termination_metrics outcome.Atomrep_replica.Runtime.metrics;
                if takeover then
                  print_takeover_metrics outcome.Atomrep_replica.Runtime.metrics;
                print_verdict monitors failures;
                if failures <> [] then failed := true)
              profiles)
          schemes;
        (match trace_file, trace with
         | Some path, Some tr -> write_trace path trace_format tr
         | _ -> ());
        (match metrics_json, !last_registry with
         | Some path, Some registry -> write_metrics path registry
         | _ -> ());
        if !failed then 1 else 0
      end
      else begin
        let report =
          Campaign.run_campaign ~base ~n_txns:txns ~intensity ~monitors ~sample
            ?postmortem_dir ~schemes ~profiles ~seeds ()
        in
        Format.printf "%a" Campaign.pp_report report;
        if report.Campaign.violations = [] then 0 else 1
      end
  in
  let schemes_arg =
    Arg.(
      value
      & opt string "static,hybrid,locking"
      & info [ "schemes" ] ~docv:"SCHEMES" ~doc:"Comma-separated schemes to sweep.")
  in
  let profiles_arg =
    Arg.(
      value & opt string "all"
      & info [ "profiles" ] ~docv:"PROFILES"
          ~doc:"Comma-separated fault profiles, or `all'.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 10
      & info [ "seeds" ] ~docv:"N" ~doc:"Sweep seeds 0..N-1 per scheme x profile.")
  in
  let txns_arg =
    Arg.(value & opt int 30 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per run.")
  in
  let intensity_arg =
    Arg.(
      value & opt float 1.0
      & info [ "intensity" ] ~docv:"K" ~doc:"Fault intensity scale (1.0 = profile default).")
  in
  let repro_arg =
    Arg.(
      value & flag
      & info [ "repro" ]
          ~doc:"Replay a single reproducer tuple (use --seed) instead of sweeping.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for --repro.")
  in
  let reconfig_arg =
    Arg.(
      value & flag
      & info [ "reconfig" ]
          ~doc:
            "Campaign against the reconfiguration base: five sites, the \
             epoch coordinator enabled (pairs well with --profiles kills).")
  in
  let overload_arg =
    Arg.(
      value & flag
      & info [ "overload" ]
          ~doc:
            "Campaign against the overload base: a precomputed flash-crowd \
             open-loop arrival plan over admission control, shed-by-class, \
             a finite retry budget and the per-site circuit breaker (pairs \
             with --profiles overload_storm and the shed_safety monitor). \
             --txns caps how many planned arrivals are dispatched.")
  in
  let gray_arg =
    Arg.(
      value & flag
      & info [ "gray" ]
          ~doc:
            "Campaign against the gray base: the gray-failure mitigation \
             layer on — hedged early-quorum rounds, latency scoring, \
             slow-site demotion (pairs with --profiles gray_storm and the \
             hedge_safety monitor).")
  in
  let postmortem_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "postmortem-dir" ] ~docv:"DIR"
          ~doc:
            "Replay each shrunk violation under tracing and write a causal \
             postmortem plus the full trace into $(docv).")
  in
  let doc = "Run a fault-injection campaign and check atomicity after every run" in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ schemes_arg $ profiles_arg $ seeds_arg $ txns_arg $ intensity_arg
      $ repro_arg $ seed_arg $ reconfig_arg $ overload_arg $ gray_arg
      $ hedge_arg $ demote_arg $ fail_slow_arg $ durability_arg
      $ termination_arg $ deadlock_arg $ takeover_arg $ retry_budget_arg
      $ monitor_arg $ trace_file_arg $ trace_format_arg $ metrics_json_arg
      $ postmortem_dir_arg $ sample_arg)

(* --- load --- *)

let load_cmd =
  let module Openloop = Atomrep_workload.Openloop in
  let run scheme_name seed plan_seed rate mult curve load_profile n_objects
      zipf sessions n_sites horizon drain no_admission max_in_flight queue_limit
      deadline shed_policy no_breaker hedge demote fail_slow retry_budget
      termination deadlock monitor trace_file trace_format metrics_json sample
      ts_file window =
    let load_profile =
      match Openloop.profile_of_string load_profile with
      | Some p -> Ok p
      | None ->
        Error
          (Printf.sprintf
             "unknown load profile %S (read-mostly|write-heavy|queue-fanout)"
             load_profile)
    in
    let shed_policy =
      match Atomrep_replica.Runtime.shed_policy_of_string shed_policy with
      | Some p -> Ok p
      | None ->
        Error
          (Printf.sprintf "unknown shed policy %S (reject-newest|shed-reads-first)"
             shed_policy)
    in
    match
      Atomrep_replica.Replicated.scheme_of_name scheme_name,
      load_profile, shed_policy, parse_monitors monitor,
      Result.bind (parse_fail_slow fail_slow) (check_fail_slow_sites ~n_sites)
    with
    | Error e, _, _, _, _
    | _, Error e, _, _, _
    | _, _, Error e, _, _
    | _, _, _, Error e, _
    | _, _, _, _, Error e ->
      prerr_endline e;
      1
    | Ok scheme, Ok load_profile, Ok shed_policy, Ok monitors, Ok fail_slow ->
      let open Atomrep_replica in
      let curve =
        match curve with
        | `Constant -> Openloop.Constant
        | `Ramp -> Openloop.Ramp 4.0
        | `Diurnal -> Openloop.Diurnal { trough = 0.3; period = horizon /. 2.0 }
        | `Flash_crowd ->
          Openloop.Flash_crowd
            { at = horizon /. 4.0; duration = horizon /. 8.0; mult = 6.0 }
      in
      let plan_seed = if plan_seed < 0 then seed else plan_seed in
      let plan =
        Openloop.plan ~curve ~profile:load_profile ~n_objects ~zipf_theta:zipf
          ~n_sites ~n_sessions:sessions ~seed:plan_seed
          ~rate:(rate *. mult /. 1000.0) ~horizon ()
      in
      let admission =
        if no_admission then None
        else
          Some
            {
              Runtime.max_in_flight;
              queue_limit;
              deadline = (if deadline <= 0.0 then Float.infinity else deadline);
              adm_shed_policy = shed_policy;
              adm_breaker =
                (if no_breaker then None else Some Runtime.default_breaker);
            }
      in
      let trace = Option.map (fun _ -> Obs.Trace.create ~n_sites ()) trace_file in
      let timeseries =
        match ts_file with
        | Some _ -> Obs.Timeseries.create ~width:window ()
        | None -> Obs.Timeseries.null
      in
      let cfg =
        Openloop.apply plan
          {
            Runtime.default_config with
            scheme;
            seed;
            n_sites;
            horizon = horizon +. drain;
            termination;
            deadlock;
            admission;
            gray = gray_of ~hedge ~demote;
            fail_slow;
            retry_budget = retry_budget_of retry_budget;
            trace;
            timeseries;
          }
      in
      let outcome, failures =
        Atomrep_chaos.Monitors.check_run ~monitors ~sample cfg
      in
      let m = outcome.Runtime.metrics in
      let offered = Openloop.n_txns plan in
      Printf.printf
        "plan: %d arrivals over %.0f ms (curve=%s profile=%s objects=%d \
         zipf=%.2f sessions=%d seed=%d)\n"
        offered horizon (Openloop.curve_name curve)
        (Openloop.profile_name load_profile)
        n_objects zipf sessions plan_seed;
      Printf.printf
        "scheme=%s admission=%s offered=%.1f/s committed=%d aborted=%d \
         (shed=%d unavailable=%d conflict=%d)\n"
        (Replicated.scheme_name scheme)
        (if no_admission then "off" else "on")
        (float_of_int offered /. horizon *. 1000.0)
        m.Runtime.committed m.Runtime.aborted m.Runtime.shed
        m.Runtime.unavailable_aborts m.Runtime.conflict_aborts;
      Printf.printf "goodput=%.2f/s over %.1f ms simulated\n"
        (if m.Runtime.duration > 0.0 then
           float_of_int m.Runtime.committed /. m.Runtime.duration *. 1000.0
         else 0.0)
        m.Runtime.duration;
      Printf.printf "retries: spent=%d budget-exhausted=%d breaker-trips=%d\n"
        m.Runtime.retries_spent m.Runtime.retries_budget_exhausted
        m.Runtime.breaker_trips;
      if hedge || demote then print_gray_metrics m;
      if Summary.count m.Runtime.txn_latency > 0 then
        Printf.printf "commit latency: p50=%.1f ms p99=%.1f ms\n"
          (Summary.percentile m.Runtime.txn_latency 0.50)
          (Summary.percentile m.Runtime.txn_latency 0.99);
      if Summary.count m.Runtime.sojourn > 0 then
        Printf.printf "sojourn: mean=%.1f ms p99=%.1f ms max=%.1f ms\n"
          (Summary.mean m.Runtime.sojourn)
          (Summary.percentile m.Runtime.sojourn 0.99)
          (Summary.max_value m.Runtime.sojourn);
      print_verdict monitors failures;
      (match ts_file with
       | Some path -> write_timeseries path timeseries
       | None -> ());
      (match trace_file, trace with
       | Some path, Some tr -> write_trace path trace_format tr
       | _ -> ());
      (match metrics_json with
       | Some path -> write_metrics path outcome.Runtime.registry
       | None -> ());
      if failures = [] then 0 else 1
  in
  let scheme_arg =
    Arg.(
      value & opt string "hybrid"
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"hybrid, static, or locking.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Engine RNG seed.") in
  let plan_seed_arg =
    Arg.(
      value & opt int (-1)
      & info [ "plan-seed" ] ~docv:"SEED"
          ~doc:
            "Seed for the arrival plan's private stream (default: --seed). \
             Fixing it while sweeping --seed replays one offered load \
             against many engine schedules.")
  in
  let rate_arg =
    Arg.(
      value & opt float 10.0
      & info [ "rate" ] ~docv:"TPS" ~doc:"Base offered load, transactions per second.")
  in
  let mult_arg =
    Arg.(
      value & opt float 1.0
      & info [ "mult" ] ~docv:"K"
          ~doc:"Offered-load multiplier on --rate (the knob load sweeps turn).")
  in
  let curve_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("constant", `Constant); ("ramp", `Ramp); ("diurnal", `Diurnal);
               ("flash-crowd", `Flash_crowd);
             ])
          `Constant
      & info [ "curve" ] ~docv:"CURVE"
          ~doc:
            "Rate shape: `constant', `ramp' (to 4x at the horizon), `diurnal' \
             (sinusoid to 0.3x, two periods), or `flash-crowd' (6x burst in \
             the second quarter).")
  in
  let load_profile_arg =
    Arg.(
      value & opt string "queue-fanout"
      & info [ "load-profile" ] ~docv:"PROFILE"
          ~doc:
            "Workload shape: `read-mostly' (90% counter reads), `write-heavy' \
             (90% counter writes), or `queue-fanout' (enq/deq fanned over the \
             objects).")
  in
  let objects_arg =
    Arg.(
      value & opt int 3
      & info [ "objects" ] ~docv:"N" ~doc:"Replicated objects the plan fans over.")
  in
  let zipf_arg =
    Arg.(
      value & opt float 0.9
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:"Zipf skew of object popularity (0 = uniform).")
  in
  let sessions_arg =
    Arg.(
      value & opt int 6
      & info [ "sessions" ] ~docv:"N"
          ~doc:"Client sessions (each pinned to home site session mod sites).")
  in
  let sites_arg =
    Arg.(value & opt pos_int 3 & info [ "n"; "sites" ] ~docv:"SITES" ~doc:"Replication degree.")
  in
  let horizon_arg =
    Arg.(
      value & opt float 12_000.0
      & info [ "horizon" ] ~docv:"MS" ~doc:"Arrival-plan horizon in simulated ms.")
  in
  let drain_arg =
    Arg.(
      value & opt float 8_000.0
      & info [ "drain" ] ~docv:"MS"
          ~doc:"Extra simulated time after the last planned arrival.")
  in
  let no_admission_arg =
    Arg.(
      value & flag
      & info [ "no-admission" ]
          ~doc:
            "Disable admission control: every arrival starts immediately (the \
             collapse-prone baseline load sweeps compare against).")
  in
  let max_in_flight_arg =
    Arg.(
      value & opt pos_int 8
      & info [ "max-in-flight" ] ~docv:"N" ~doc:"Bounded in-flight window.")
  in
  let queue_limit_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-limit" ] ~docv:"N" ~doc:"Bounded admission queue; overflow sheds.")
  in
  let deadline_arg =
    Arg.(
      value & opt float 0.0
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Sojourn deadline: shed transactions still queued (or entering a \
             conflict retry) this long after arrival. 0 = none.")
  in
  let shed_policy_arg =
    Arg.(
      value & opt string "reject-newest"
      & info [ "shed-policy" ] ~docv:"POLICY"
          ~doc:"`reject-newest' or `shed-reads-first' (reads sacrificed before writes).")
  in
  let no_breaker_arg =
    Arg.(
      value & flag
      & info [ "no-breaker" ] ~doc:"Disable the per-site circuit breaker.")
  in
  let doc = "Run an open-loop load sweep point against the simulator" in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const run $ scheme_arg $ seed_arg $ plan_seed_arg $ rate_arg $ mult_arg
      $ curve_arg $ load_profile_arg $ objects_arg $ zipf_arg $ sessions_arg
      $ sites_arg $ horizon_arg $ drain_arg $ no_admission_arg
      $ max_in_flight_arg $ queue_limit_arg $ deadline_arg $ shed_policy_arg
      $ no_breaker_arg $ hedge_arg $ demote_arg $ fail_slow_arg
      $ retry_budget_arg $ termination_arg $ deadlock_arg
      $ monitor_arg $ trace_file_arg $ trace_format_arg $ metrics_json_arg
      $ sample_arg $ timeseries_file_arg $ window_arg)

(* --- perf --- *)

let perf_cmd =
  let run scheme_name n_txns n_sites seed hedge demote fail_slow sample window
      ts_file profile_json =
    match
      ( Atomrep_replica.Replicated.scheme_of_name scheme_name,
        Result.bind (parse_fail_slow fail_slow) (check_fail_slow_sites ~n_sites) )
    with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      1
    | Ok scheme, Ok fail_slow ->
      let open Atomrep_replica in
      let module Monitors = Atomrep_chaos.Monitors in
      (* Full observability stack on: trace bus (sampled if asked, with the
         whole monitor catalogue's kinds forced), phase profiler on a real
         wall clock, and the sim-time time-series — so the hot-phase table
         includes engine dispatch, trace publish, and monitor stepping. *)
      let monitors = Monitors.registry in
      let trace = Obs.Trace.create ~n_sites () in
      let profile = fresh_profile () in
      let timeseries = Obs.Timeseries.create ~width:window () in
      let cfg =
        {
          Runtime.default_config with
          scheme;
          n_txns;
          n_sites;
          seed;
          trace = Some trace;
          profile;
          timeseries;
          gray = gray_of ~hedge ~demote;
          fail_slow;
          objects =
            [
              {
                Runtime.obj_name = "queue";
                obj_spec = Queue_type.spec;
                obj_relation = Static_dep.minimal Queue_type.spec ~max_len:4;
                obj_assignment = Runtime.default_queue_assignment ~n_sites;
                obj_members = None;
              };
            ];
        }
      in
      let wall0 = Unix.gettimeofday () in
      let outcome, failures =
        Monitors.check_run ~monitors ~sample cfg
      in
      let wall = Unix.gettimeofday () -. wall0 in
      let m = outcome.Runtime.metrics in
      Printf.printf
        "scheme=%s txns=%d committed=%d aborted=%d ops=%d over %.1f ms \
         simulated (%.3f s wall)\n"
        (Replicated.scheme_name scheme)
        n_txns m.Runtime.committed m.Runtime.aborted m.Runtime.ops_done
        m.Runtime.duration wall;
      Printf.printf "trace: %d events kept, %d sampled out (1/%d per kind)\n"
        (Obs.Trace.length trace)
        (Obs.Trace.sampled_out trace)
        (Obs.Trace.sampling trace);
      if hedge || demote then print_gray_metrics m;
      print_profile profile;
      write_timeseries ts_file timeseries;
      (match profile_json with
       | Some path ->
         Obs.Export.write_file path (Obs.Json.to_string (Obs.Profile.to_json profile));
         Printf.printf "wrote %s\n" path
       | None -> ());
      print_verdict monitors failures;
      if failures = [] then 0 else 1
  in
  let scheme_arg =
    Arg.(
      value & opt string "hybrid"
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"hybrid, static, or locking.")
  in
  let txns_arg =
    Arg.(value & opt int 200 & info [ "txns" ] ~docv:"N" ~doc:"Transactions to run.")
  in
  let sites_arg =
    Arg.(value & opt pos_int 3 & info [ "n"; "sites" ] ~docv:"SITES" ~doc:"Replication degree.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let ts_arg =
    Arg.(
      value & opt string "timeseries.json"
      & info [ "timeseries" ] ~docv:"FILE"
          ~doc:"Write the sim-time time-series as JSON to $(docv).")
  in
  let profile_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-json" ] ~docv:"FILE"
          ~doc:"Also write the hot-phase profile as JSON to $(docv).")
  in
  let doc =
    "Profile a monitored run: hot-phase table, trace-sampling stats, and a \
     sim-time time-series. --hedge, --demote and --fail-slow profile the \
     gray-failure path"
  in
  Cmd.v (Cmd.info "perf" ~doc)
    Term.(
      const run $ scheme_arg $ txns_arg $ sites_arg $ seed_arg $ hedge_arg
      $ demote_arg $ fail_slow_arg $ sample_arg $ window_arg $ ts_arg
      $ profile_json_arg)

(* --- bench-diff --- *)

let bench_diff_cmd =
  let run dir threshold =
    let entries = Obs.Bench_diff.scan ~dir in
    if entries = [] then begin
      Printf.printf "no BENCH_<n>.json files under %s\n" dir;
      0
    end
    else begin
      Format.printf "%a@." Obs.Bench_diff.pp_trajectory entries;
      match Obs.Bench_diff.gate entries ~threshold with
      | None -> 0
      | Some v ->
        Format.printf "%a@." Obs.Bench_diff.pp_verdict v;
        if v.Obs.Bench_diff.v_regressed then 1 else 0
    end
  in
  let dir_arg =
    Arg.(
      value & pos 0 string "."
      & info [] ~docv:"DIR" ~doc:"Directory holding the BENCH_<n>.json history.")
  in
  let threshold_arg =
    Arg.(
      value & opt float 0.2
      & info [ "threshold" ] ~docv:"FRAC"
          ~doc:
            "Fail (exit 1) when the newest entry's best committed/s falls \
             more than $(docv) below the most recent earlier entry of the \
             same bench kind.")
  in
  let doc = "Gate the committed BENCH_*.json trajectory against regressions" in
  Cmd.v (Cmd.info "bench-diff" ~doc) Term.(const run $ dir_arg $ threshold_arg)

(* --- explore --- *)

let explore_cmd =
  let module Campaign = Atomrep_chaos.Campaign in
  let module Monitors = Atomrep_chaos.Monitors in
  let module Explore = Atomrep_chaos.Explore in
  let module Json = Obs.Json in
  let parse_intensities s =
    List.fold_right
      (fun tok acc ->
        match acc with
        | Error e -> Error e
        | Ok rest -> (
          match float_of_string_opt (String.trim tok) with
          | Some f when f > 0.0 -> Ok (f :: rest)
          | _ -> Error (Printf.sprintf "bad intensity %S" tok)))
      (String.split_on_char ',' s)
      (Ok [])
  in
  (* Explore is the monitored sweep: no --monitor means the whole
     catalogue, unlike chaos where it means the two history entries. *)
  let parse_explore_monitors = function
    | None -> Ok Monitors.registry
    | Some sel -> Monitors.of_names sel
  in
  let parse_fixtures = function
    | "all" -> Ok Explore.fixtures
    | sel ->
      List.fold_right
        (fun name acc ->
          match acc, Explore.find_fixture name with
          | Error e, _ -> Error e
          | _, None ->
            Error
              (Printf.sprintf "unknown fixture %S; known: all, %s" name
                 (String.concat ", " Explore.fixture_names))
          | Ok rest, Some f -> Ok (f :: rest))
        (String.split_on_char ',' sel)
        (Ok [])
  in
  let failures_json fs =
    Json.List
      (List.map
         (fun (m, why) -> Json.Obj [ ("monitor", Json.Str m); ("message", Json.Str why) ])
         fs)
  in
  let violation_json (v : Campaign.violation) =
    Json.Obj
      [
        ("scheme", Json.Str (Atomrep_replica.Replicated.scheme_name v.Campaign.v_scheme));
        ("profile", Json.Str v.Campaign.v_profile.Campaign.profile_name);
        ("seed", Json.int v.Campaign.v_seed);
        ("txns", Json.int v.Campaign.v_n_txns);
        ("intensity", Json.Num v.Campaign.v_intensity);
        ("repro", Json.Str (Campaign.reproducer_line v));
        ("failures", failures_json v.Campaign.v_failures);
        ( "postmortem",
          match v.Campaign.v_postmortem with
          | Some p -> Json.Str p
          | None -> Json.Null );
      ]
  in
  let run_replay fixtures monitors =
    let results = List.map (Explore.replay ~monitors) fixtures in
    List.iter
      (fun (r : Explore.replay_result) ->
        let f = r.Explore.rr_fixture in
        Printf.printf "fixture %-22s %s\n" f.Explore.f_name
          (if r.Explore.rr_ok then
             if f.Explore.f_expect_violation then
               Printf.sprintf "OK (violation still reproduces: %d failure(s))"
                 (List.length r.Explore.rr_failures)
             else "OK (clean, expectations hold)"
           else "REGRESSION");
        if not r.Explore.rr_ok then begin
          if f.Explore.f_expect_violation && r.Explore.rr_failures = [] then
            Printf.printf "  expected a violation, run was clean\n";
          List.iter
            (fun (m, why) -> Printf.printf "  unexpected %s: %s\n" m why)
            (if f.Explore.f_expect_violation then [] else r.Explore.rr_failures);
          List.iter
            (fun (what, why) -> Printf.printf "  check %s: %s\n" what why)
            r.Explore.rr_checks
        end)
      results;
    if List.for_all (fun r -> r.Explore.rr_ok) results then 0 else 1
  in
  let run schemes profiles seeds txns intensities domains monitor durability
      termination deadlock takeover ungated replay report_file postmortem_dir
      max_shrinks =
    match parse_explore_monitors monitor with
    | Error e ->
      prerr_endline e;
      1
    | Ok monitors -> (
      match replay with
      | Some sel -> (
        match parse_fixtures sel with
        | Error e ->
          prerr_endline e;
          1
        | Ok fixtures -> run_replay fixtures monitors)
      | None -> (
        match
          (parse_schemes schemes, parse_profiles profiles, parse_intensities intensities)
        with
        | Error e, _, _ | _, Error e, _ | _, _, Error e ->
          prerr_endline e;
          1
        | Ok schemes, Ok profiles, Ok intensities ->
          let base =
            match durability with
            | `None -> Campaign.default_base
            | `Wal ->
              {
                Campaign.default_base with
                Atomrep_replica.Runtime.durability =
                  Atomrep_replica.Repository.durable ~segment_records:16
                    ~checkpoint_every:48 ();
              }
            | `Wal_gc ->
              {
                Campaign.default_base with
                Atomrep_replica.Runtime.durability =
                  Campaign.storage_base.Atomrep_replica.Runtime.durability;
              }
          in
          let base =
            {
              base with
              Atomrep_replica.Runtime.termination;
              deadlock;
              takeover;
              ungated_rejoin = ungated;
            }
          in
          let domains = if domains <= 0 then None else Some domains in
          let report =
            Explore.sweep ?domains ~n_txns:txns ~monitors ~max_shrinks
              ?postmortem_dir ~base ~schemes ~profiles ~seeds ~intensities ()
          in
          Printf.printf
            "explore: %d runs on %d domain(s) in %.1fs — committed=%d aborted=%d, \
             %d violation(s)%s\n"
            report.Explore.x_tasks report.Explore.x_domains report.Explore.x_wall_s
            report.Explore.x_committed report.Explore.x_aborted
            (List.length report.Explore.x_violations)
            (if
               report.Explore.x_shrunk > 0
               && report.Explore.x_shrunk < List.length report.Explore.x_violations
             then Printf.sprintf " (%d shrunk)" report.Explore.x_shrunk
             else "");
          List.iter
            (fun v -> Format.printf "%a@." Campaign.pp_violation v)
            report.Explore.x_violations;
          (match report_file with
           | None -> ()
           | Some path ->
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
                                monitors) );
                         ("seeds", Json.int seeds);
                         ("txns", Json.int txns);
                         ( "intensities",
                           Json.List (List.map (fun i -> Json.Num i) intensities) );
                         ("domains", Json.int report.Explore.x_domains);
                         ("tasks", Json.int report.Explore.x_tasks);
                         ("committed", Json.int report.Explore.x_committed);
                         ("aborted", Json.int report.Explore.x_aborted);
                         ("wall_s", Json.Num report.Explore.x_wall_s);
                         ("shrunk", Json.int report.Explore.x_shrunk);
                         ( "violations",
                           Json.List (List.map violation_json report.Explore.x_violations)
                         );
                       ] );
                 ]
             in
             Obs.Export.write_file path (Json.to_string doc);
             Printf.printf "wrote %s\n" path);
          if report.Explore.x_violations = [] then 0 else 1))
  in
  let schemes_arg =
    Arg.(
      value
      & opt string "static,hybrid,locking"
      & info [ "schemes" ] ~docv:"SCHEMES" ~doc:"Comma-separated schemes to sweep.")
  in
  let profiles_arg =
    Arg.(
      value & opt string "all"
      & info [ "profiles" ] ~docv:"PROFILES"
          ~doc:"Comma-separated fault profiles, or `all'.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 64
      & info [ "seeds" ] ~docv:"N" ~doc:"Sweep seeds 0..N-1 per cell.")
  in
  let txns_arg =
    Arg.(value & opt int 30 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per run.")
  in
  let intensities_arg =
    Arg.(
      value & opt string "1.0"
      & info [ "intensities" ] ~docv:"LIST"
          ~doc:"Comma-separated fault intensity scales, one sweep stratum each.")
  in
  let domains_arg =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel sweep (0 = the runtime's \
             recommended count; 1 = sequential). The report is identical \
             for any value.")
  in
  let ungated_arg =
    Arg.(
      value & flag
      & info [ "ungated-rejoin" ]
          ~doc:
            "Negative testing: let amnesiac sites rejoin without a resync \
             quorum (the pre-fix double-dequeue behavior) so the sweep has \
             a real violation to find and shrink.")
  in
  let replay_arg =
    Arg.(
      value
      & opt ~vopt:(Some "all") (some string) None
      & info [ "replay" ] ~docv:"FIXTURES"
          ~doc:
            (Printf.sprintf
               "Replay the named regression fixtures instead of sweeping \
                (comma-separated, or `all'; bare $(b,--replay) means all). \
                Known fixtures: %s."
               (String.concat ", " Explore.fixture_names)))
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Write the sweep report as JSON to $(docv).")
  in
  let postmortem_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "postmortem-dir" ] ~docv:"DIR"
          ~doc:
            "Replay each shrunk violation under tracing and write a causal \
             postmortem plus the full trace into $(docv).")
  in
  let max_shrinks_arg =
    Arg.(
      value & opt int 4
      & info [ "max-shrinks" ] ~docv:"N"
          ~doc:
            "Bisection-shrink at most $(docv) violations (earliest tasks \
             first); the rest are reported at their original tuples.")
  in
  let doc =
    "Parallel monitored seed sweeps (and regression-fixture replays) with \
     shrinking"
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ schemes_arg $ profiles_arg $ seeds_arg $ txns_arg
      $ intensities_arg $ domains_arg $ monitor_arg $ durability_arg
      $ termination_arg $ deadlock_arg $ takeover_arg $ ungated_arg $ replay_arg
      $ report_arg $ postmortem_dir_arg $ max_shrinks_arg)

(* --- experiment --- *)

let experiment_cmd =
  let run id =
    if String.equal id "all" then begin
      List.iter (fun (_, _, r) -> r ()) Atomrep_experiments.Experiments.all;
      0
    end
    else if Atomrep_experiments.Experiments.run_by_id id then 0
    else begin
      Printf.eprintf "unknown experiment %S; known: all, %s\n" id
        (String.concat ", "
           (List.map (fun (i, _, _) -> i) Atomrep_experiments.Experiments.all));
      1
    end
  in
  let id_arg =
    let doc = "Experiment id (e1..e10, or `all')." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let doc = "Reproduce one of the paper's figures or examples" in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run $ id_arg)

(* --- compare --- *)

let compare_cmd =
  let run type_name max_len n_sites samples =
    match find_spec type_name with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let module C = Atomrep_experiments.Compare in
      let concurrency = C.concurrency ~samples spec in
      Format.printf "concurrency (Figure 1-1), %d random histories:@." samples;
      Format.printf "  static  vs hybrid : %a@." C.pp_verdict concurrency.C.static_vs_hybrid;
      Format.printf "  hybrid  vs dynamic: %a@." C.pp_verdict concurrency.C.hybrid_vs_dynamic;
      Format.printf "  static  vs dynamic: %a@." C.pp_verdict concurrency.C.static_vs_dynamic;
      (match concurrency.C.witness_hybrid_not_static with
       | Some h ->
         Format.printf "@.witness (hybrid but not static atomic):@.%s@."
           (Atomrep_history.Behavioral.to_string h)
       | None -> ());
      let hybrid_relations = [ Static_dep.minimal spec ~max_len ] in
      let availability = C.availability ~max_len ~hybrid_relations ~n_sites spec in
      Format.printf
        "@.availability (Figure 1-2), threshold assignments on %d sites:@." n_sites;
      Format.printf "  static %d, hybrid >=%d, dynamic %d@." availability.C.static_count
        availability.C.hybrid_count availability.C.dynamic_count;
      Format.printf "  static vs hybrid : %a@." C.pp_verdict availability.C.static_vs_hybrid;
      Format.printf "  hybrid vs dynamic: %a@." C.pp_verdict availability.C.hybrid_vs_dynamic;
      print_endline
        "\n(hybrid counted against the static relation — a sound hybrid\n\
         relation by Theorem 4; run `analyze --hybrid-search' for minimal\n\
         hybrid relations)";
      0
  in
  let sites_arg =
    Arg.(value & opt pos_int 3 & info [ "n"; "sites" ] ~docv:"SITES" ~doc:"Replication degree.")
  in
  let samples_arg =
    Arg.(value & opt int 1000 & info [ "samples" ] ~docv:"N" ~doc:"Random histories to classify.")
  in
  let doc = "Compare the three atomicity properties on one data type" in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ type_arg $ max_len_arg $ sites_arg $ samples_arg)

(* --- witness --- *)

let witness_cmd =
  let run type_name max_len dependent supplier =
    match find_spec type_name with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let universe = Serial_spec.event_universe spec ~max_len in
      let invs =
        List.filter
          (fun (inv : Atomrep_history.Event.Invocation.t) -> String.equal inv.op dependent)
          spec.Serial_spec.invocations
      in
      let events =
        List.filter
          (fun (e : Atomrep_history.Event.t) -> String.equal e.inv.op supplier)
          universe
      in
      if invs = [] || events = [] then begin
        Printf.eprintf "no such operations (%s, %s) for %s\n" dependent supplier type_name;
        1
      end
      else begin
        let found = ref false in
        List.iter
          (fun inv ->
            List.iter
              (fun e ->
                match Static_dep.witness spec ~max_len inv e with
                | Some (h1, ev, h2, h3) ->
                  found := true;
                  let pp_events ppf l =
                    Format.pp_print_list
                      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
                      Atomrep_history.Event.pp ppf l
                  in
                  Format.printf
                    "%a >= %a  via Theorem 6:@.  h1 = [%a]@.  insert %a / %a@.  h2 = \
                     [%a]@.  h3 = [%a]@.@."
                    Atomrep_history.Event.Invocation.pp inv Atomrep_history.Event.pp e
                    pp_events h1 Atomrep_history.Event.pp ev Atomrep_history.Event.pp e
                    pp_events h2 pp_events h3
                | None -> ())
              events)
          invs;
        if not !found then
          Printf.printf
            "no static dependency between %s and %s within %d-event histories\n"
            dependent supplier max_len;
        0
      end
  in
  let dependent_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DEPENDENT" ~doc:"Invoking operation.")
  in
  let supplier_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SUPPLIER" ~doc:"Supplying operation.")
  in
  let doc = "Show a Theorem-6 witness for a static dependency pair" in
  Cmd.v (Cmd.info "witness" ~doc)
    Term.(const run $ type_arg $ max_len_arg $ dependent_arg $ supplier_arg)

(* --- types --- *)

let types_cmd =
  let run () =
    List.iter
      (fun (name, spec) ->
        Printf.printf "%-14s %d operations: %s\n" name
          (List.length
             (List.sort_uniq String.compare
                (List.map
                   (fun (inv : Atomrep_history.Event.Invocation.t) -> inv.op)
                   spec.Serial_spec.invocations)))
          (String.concat ", "
             (List.sort_uniq String.compare
                (List.map
                   (fun (inv : Atomrep_history.Event.Invocation.t) -> inv.op)
                   spec.Serial_spec.invocations))))
      Type_registry.all;
    0
  in
  let doc = "List the built-in data types" in
  Cmd.v (Cmd.info "types" ~doc) Term.(const run $ const ())

let () =
  let doc = "atomicity mechanisms and replicated-data availability (Herlihy 1985)" in
  let info = Cmd.info "atomrep" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            analyze_cmd; quorums_cmd; simulate_cmd; chaos_cmd; load_cmd; perf_cmd;
            bench_diff_cmd; explore_cmd; experiment_cmd; compare_cmd;
            witness_cmd; types_cmd;
          ]))
