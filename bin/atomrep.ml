(* atomrep — command-line interface to the analysis and the simulator.

   Subcommands:
     analyze     — dependency relations of a data type
     quorums     — enumerate valid quorum assignments and availabilities
     simulate    — run the replicated-object simulator
     chaos       — fault-injection sweeps, reproducer and fixture replays
     load        — one open-loop load point against the simulator
     bench-diff  — gate the committed BENCH_*.json trajectory
     experiment  — run one of the paper-reproduction experiments
     compare     — the three atomicity properties on one data type
     witness     — a Theorem-6 witness for a static dependency pair
     types       — list the built-in data types

   One pipeline serves them all: Cmdliner converters check every flag
   value where it is parsed, flag groups are terms that yield overlays on
   a run's config, and [finish] reports a single-run command. A bad value
   is a usage error (exit 124) that starts no run; exit 1 means a gate
   failed. *)

open Cmdliner
open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_stats
open Atomrep_replica
module Obs = Atomrep_obs
module Json = Obs.Json
module Monitors = Atomrep_chaos.Monitors
module Campaign = Atomrep_chaos.Campaign
module Openloop = Atomrep_workload.Openloop

(* --- converters --- *)

(* A number inside the domain its flag's doc states: a count a run cannot
   start from, a negative rate or an empty window is a usage error. *)
let number of_string pp what ok =
  let parse s =
    match of_string s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, pp)

let int_in what ok = number int_of_string_opt Format.pp_print_int what ok
let pos_int = int_in "a positive integer" (fun n -> n >= 1)
let nat = int_in "a non-negative integer" (fun n -> n >= 0)

let float_in what ok =
  number float_of_string_opt Format.pp_print_float what (fun x ->
      Float.is_finite x && ok x)

let pos_float = float_in "a positive number" (fun x -> x > 0.0)
let nonneg_float = float_in "a non-negative number" (fun x -> x >= 0.0)

(* A value named in a fixed catalogue. *)
let named what ~name ~find ~known =
  let parse s =
    match find s with
    | Some x -> Ok x
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown %s %S; known: %s" what s (String.concat ", " known)))
  in
  Arg.conv (parse, fun ppf x -> Format.pp_print_string ppf (name x))

(* A comma-separated selection from a catalogue, or `all' of it. *)
let selection what ~name ~find all =
  let items = Arg.list (named what ~name ~find ~known:("all" :: List.map name all)) in
  let parse = function "all" -> Ok all | s -> Arg.conv_parser items s in
  let print ppf l =
    if l == all then Format.pp_print_string ppf "all" else Arg.conv_printer items ppf l
  in
  Arg.conv (parse, print)

let enum_of name values = Arg.enum (List.map (fun v -> (name v, v)) values)
let scheme = enum_of Replicated.scheme_name Replicated.[ Hybrid; Static; Locking ]

let profiles =
  selection "profile" ~name:(fun p -> p.Campaign.profile_name) ~find:Campaign.find_profile
    Campaign.builtin_profiles

let fixtures =
  selection "fixture" ~name:(fun f -> f.Campaign.f_name) ~find:Campaign.find_fixture
    Campaign.fixtures

let mutant =
  named "mutant" ~name:Replicated.mutant_name ~find:Replicated.mutant_of_name
    ~known:(List.map Replicated.mutant_name Replicated.mutants)

let data_type =
  named "type" ~name:(fun s -> s.Serial_spec.name) ~find:Type_registry.find
    ~known:Type_registry.names

let monitors =
  let parse s = Result.map_error (fun e -> `Msg e) (Monitors.of_names s) in
  let print ppf sel = Format.pp_print_string ppf (Monitors.selection_name sel) in
  Arg.conv (parse, print)

(* One fail-slow injection, SITE[:MODE[:FACTOR[:ONSET]]]. Whether SITE is
   in the cluster depends on --sites, so [gray_flags] checks it. *)
let fail_slow_item =
  let mode name factor =
    let open Atomrep_sim.Network in
    match name with
    | "constant" -> Ok (Slow_constant factor)
    | "heavy" ->
      Ok
        (Slow_heavy
           {
             factor = 1.0 +. ((factor -. 1.0) /. 4.0);
             p_tail = 0.2;
             tail_factor = 2.0 *. factor;
           })
    | "creep" -> Ok (Slow_creeping { rate = factor /. 1000.0; cap = factor })
    | other ->
      Error
        (`Msg (Printf.sprintf "unknown fail-slow mode %S (constant|heavy|creep)" other))
  in
  let parse s =
    let fields = String.split_on_char ':' s in
    let field i default = Option.value (List.nth_opt fields i) ~default in
    match
      ( List.length fields <= 4,
        int_of_string_opt (field 0 ""),
        float_of_string_opt (field 2 "8"),
        float_of_string_opt (field 3 "0") )
    with
    | true, Some site, Some factor, Some onset ->
      Result.map (fun m -> (site, onset, m)) (mode (field 1 "constant") factor)
    | _ ->
      Error
        (`Msg (Printf.sprintf "bad fail-slow spec %S (SITE[:MODE[:FACTOR[:ONSET]]])" s))
  in
  (* Only the empty default is ever printed. *)
  Arg.conv (parse, fun ppf (site, _, _) -> Format.pp_print_int ppf site)

(* --- arguments --- *)

let opt ?absent c default names ~docv ~doc =
  Arg.value (Arg.opt c default (Arg.info names ?absent ~docv ~doc))

let flag names ~doc = Arg.value (Arg.flag (Arg.info names ~doc))

(* A flag a subcommand may lack: absent, it holds [default]. *)
let present on arg default = if on then arg else Term.const default

let scheme_arg =
  opt scheme Replicated.Hybrid [ "scheme" ] ~docv:"SCHEME"
    ~doc:"hybrid, static, or locking."

let schemes_arg =
  opt (Arg.list scheme) Replicated.[ Static; Hybrid; Locking ] [ "schemes" ]
    ~docv:"SCHEMES" ~doc:"Comma-separated schemes to sweep."

let profiles_arg =
  opt profiles Campaign.builtin_profiles [ "profiles" ] ~docv:"PROFILES"
    ~doc:"Comma-separated fault profiles, or `all'."

let sites_arg default =
  opt pos_int default [ "n"; "sites" ] ~docv:"SITES" ~doc:"Replication degree."

let seed_arg ?(doc = "RNG seed.") default =
  opt Arg.int default [ "seed" ] ~docv:"SEED" ~doc

let txns_arg ~doc default = opt pos_int default [ "txns" ] ~docv:"N" ~doc

let type_arg =
  let doc = "Data type to analyze (see the `types' subcommand)." in
  Arg.(required & opt (some data_type) None & info [ "t"; "type" ] ~docv:"TYPE" ~doc)

let max_len_arg =
  opt pos_int Relation.default_max_len [ "max-len" ] ~docv:"N"
    ~doc:"History-length bound for the exhaustive analyses."

(* --- flag groups: each term yields an overlay on a run's config --- *)

(* Gray-failure flags: --hedge / --demote overlay the mitigation layer on
   whatever base the command runs; --fail-slow adds persistent fail-slow
   sites, each checked against the cluster size [n_sites] before any run
   starts. *)
let gray_flags n_sites =
  let hedge =
    flag [ "hedge" ]
      ~doc:
        "Hedge quorum rounds: fire each quorum gather the moment a satisfying \
         vote set has answered, and re-issue straggling calls to a spare \
         quorum member after an adaptive percentile delay (repositories are \
         idempotent, so first-reply-wins is safe)."
  in
  let demote =
    flag [ "demote" ]
      ~doc:
        "Demote slow-suspected sites: steer quorum vote-set selection away \
         from sites the latency detector grades fail-slow (never below the \
         quorum floor), and — when the reconfiguration coordinator runs — \
         plan persistent offenders out of the epoch."
  in
  let fail_slow =
    opt (Arg.list fail_slow_item) [] [ "fail-slow" ] ~docv:"SPEC"
      ~doc:
        "Comma-separated fail-slow injections, each SITE[:MODE[:FACTOR[:ONSET]]]: \
         from ONSET ms on (default 0), SITE answers with service times inflated \
         by FACTOR (default 8) under shape MODE — `constant', `heavy' (mild \
         base inflation with occasional large spikes), or `creep' (degradation \
         ramping up to FACTOR). The site stays up: a gray failure, not a crash."
  in
  let overlay hedge demote fail_slow n_sites =
    match List.find_opt (fun (s, _, _) -> s < 0 || s >= n_sites) fail_slow with
    | Some (s, _, _) ->
      Error
        (`Msg
          (Printf.sprintf "fail-slow site %d out of range (cluster has %d sites: 0..%d)" s
             n_sites (n_sites - 1)))
    | None ->
      Ok
        (fun (cfg : Runtime.config) ->
          let cfg =
            if hedge || demote then
              { cfg with gray = Some { Runtime.hedge; demote } }
            else cfg
          in
          if fail_slow = [] then cfg else { cfg with fail_slow })
  in
  Term.(cli_parse_result (const overlay $ hedge $ demote $ fail_slow $ n_sites))

(* Transaction flags: crash-safe termination, the deadlock policy,
   coordinator takeover and the retry budget (see Runtime.config). *)
let txn_flags ?(takeover = true) () =
  let termination =
    let doc =
      "Crash-safe transaction termination: `none' (coordinator crashes \
       strand in-doubt transactions, the historical behavior), \
       `presumed-abort-only' (durable commit point, recovery redrive, \
       presumed abort), or `cooperative' (plus participant-driven quorum \
       termination and the orphan reaper)."
    in
    let open Atomrep_txn.Termination in
    opt
      (enum_of mode_name [ Disabled; Presumed_abort_only; Cooperative ])
      Disabled [ "termination" ] ~docv:"MODE" ~doc
  in
  let deadlock =
    let doc =
      "Deadlock policy for blocked operations: `none' (backoff and retry \
       budgets only), `detect' (waits-for cycle detection, youngest victim), \
       or `wound-wait' (older waiters preempt younger blockers)."
    in
    opt
      (enum_of Runtime.deadlock_mode_name Runtime.[ No_deadlock; Detect; Wound_wait ])
      Runtime.No_deadlock [ "deadlock" ] ~docv:"POLICY" ~doc
  in
  let takeover_flag =
    flag [ "takeover" ]
      ~doc:
        "Coordinator takeover: a participant that finds a dead coordinator's \
         in-doubt transaction wins an epoch-fenced takeover lease, adopts the \
         drive from the quorum's sticky votes, and force-writes the adopted \
         decision to its own durable decision log. Only meaningful with \
         --termination cooperative."
  in
  (* Caps retry amplification: conflict backoffs, commit-quorum re-probes
     and commit re-drives all spend from one per-transaction pot. *)
  let budget =
    opt nat 0 [ "retry-budget" ] ~docv:"N"
      ~doc:
        "Per-transaction retry budget shared by conflict backoffs, commit-quorum \
         re-probes and commit re-drives; exhaustion aborts the transaction \
         (or gives the commit drive up as in-doubt). 0 = unlimited."
  in
  let overlay termination deadlock takeover budget (cfg : Runtime.config) =
    let retry_budget = if budget = 0 then cfg.retry_budget else budget in
    { cfg with termination; deadlock; takeover; retry_budget }
  in
  Term.(
    const overlay $ termination $ deadlock
    $ present takeover takeover_flag false
    $ budget)

(* Durability flag: which stable-storage model backs every repository.
   [~tuned] gives campaign-length runs Campaign.storage_base's small
   segments and aggressive checkpoint period, so the storage profiles
   have segments to roll and compact. *)
let durability_flag ~tuned =
  let doc =
    "Stable-storage model: `none' (volatile repositories, the default), \
     `wal' (per-site write-ahead log, flushed on every append batch), or \
     `wal-group-commit' (flush barriers only on batches carrying \
     commit/abort records)."
  in
  let mode =
    opt
      (Arg.enum [ ("none", None); ("wal", Some false); ("wal-group-commit", Some true) ])
      None [ "durability" ] ~docv:"MODE" ~doc
  in
  let overlay mode (cfg : Runtime.config) =
    match mode with
    | None -> cfg
    | Some group_commit when tuned ->
      {
        cfg with
        durability =
          Repository.durable ~group_commit ~segment_records:16 ~checkpoint_every:48 ();
      }
    | Some group_commit -> { cfg with durability = Repository.durable ~group_commit () }
  in
  Term.(const overlay $ mode)

(* Observability flags, resolved: the monitors that gate the run and what
   to profile and write out. *)
type obs = {
  monitors : Monitors.entry list;
  trace_to : (string * [ `Jsonl | `Chrome ]) option;
  metrics_to : string option;
  timeseries_to : string option;
  window : float;
  profiled : bool;
  profile_to : string option;
}

(* [export] wraps the flags that write a run's trace and metrics, for a
   command that reads them only in some modes. A flag that only shapes a
   file (--trace-format, --window) is a usage error without the flag that
   names the file, never silently ignored. *)
let obs_flags ?(timeseries = false) ?(profile = false) ?(export = Fun.id) () =
  let monitor =
    let doc =
      Printf.sprintf
        "Gate the run(s) on the selected declarative spec monitors \
         instead of the default commit_atomicity,common_order history \
         oracles; runs are traced when a selected monitor observes \
         trace events, and violations make the exit code nonzero. \
         $(docv) is %s. Bare $(b,--monitor) selects `all'."
        Monitors.selection_doc
    in
    Term.(
      const (Option.value ~default:Monitors.history)
      $ Arg.(
          value
          & opt ~vopt:(Some Monitors.registry) (some monitors) None
          & info [ "monitor" ] ~docv:"MONITORS" ~doc))
  in
  let exports =
    let trace =
      opt Arg.(some string) None [ "trace" ] ~docv:"FILE"
        ~doc:"Write the run's event trace to $(docv)."
    in
    let trace_format =
      opt ~absent:"jsonl"
        Arg.(some (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]))
        None [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Trace format: `jsonl' (one event per line) or `chrome' (trace_event \
           JSON, opens in Perfetto / chrome://tracing). Requires --trace."
    in
    let metrics_json =
      opt Arg.(some string) None [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write the run's metrics registry as JSON to $(docv)."
    in
    let pair trace fmt metrics_to =
      match (trace, fmt) with
      | None, Some _ -> Error (`Msg "--trace-format applies only with --trace")
      | _ ->
        let fmt = Option.value fmt ~default:`Jsonl in
        Ok (Option.map (fun path -> (path, fmt)) trace, metrics_to)
    in
    export Term.(cli_parse_result (const pair $ trace $ trace_format $ metrics_json))
  in
  let timeseries_flags =
    let file =
      opt Arg.(some string) None [ "timeseries" ] ~docv:"FILE"
        ~doc:
          "Sample committed/aborted/blocked rates, WAL flushes, messages, queue \
           depth and the stranded gauge into fixed-width sim-time windows and \
           write them as JSON to $(docv)."
    in
    let window =
      opt ~absent:"500" Arg.(some pos_float) None [ "window" ] ~docv:"MS"
        ~doc:"Time-series window width in simulated ms. Requires --timeseries."
    in
    let check file window =
      match (file, window) with
      | None, Some _ -> Error (`Msg "--window applies only with --timeseries")
      | _ -> Ok (file, Option.value window ~default:500.0)
    in
    Term.(cli_parse_result (const check $ file $ window))
  in
  let profile_flag =
    flag [ "profile" ]
      ~doc:
        "Profile the run: print the hot-phase table (wall time + minor-heap \
         allocation per subsystem/phase) after the metrics."
  in
  let profile_json =
    opt Arg.(some string) None [ "profile-json" ] ~docv:"FILE"
      ~doc:"Profile the run and write the hot-phase profile as JSON to $(docv)."
  in
  let make monitors (trace_to, metrics_to) (timeseries_to, window) profiled profile_to =
    { monitors; trace_to; metrics_to; timeseries_to; window; profiled; profile_to }
  in
  Term.(
    const make $ monitor $ exports
    $ present timeseries timeseries_flags (None, 500.0)
    $ present profile profile_flag false
    $ present profile profile_json None)

(* A wall-clock profile: the obs library defaults to Sys.time because it
   cannot link Unix; the CLI can, so runs measure real elapsed time. *)
let fresh_profile () =
  let p = Obs.Profile.create () in
  Obs.Profile.set_clock p Unix.gettimeofday;
  p

(* The observability stack [obs] asks for, on [cfg]'s cluster: a full
   trace bus to export (otherwise the judge attaches a judge-only one if a
   selected monitor folds trace events), the phase profiler and the
   sim-time series. *)
let observe obs (cfg : Runtime.config) =
  {
    cfg with
    trace =
      (if obs.trace_to <> None then
         Some (Obs.Trace.create ~n_sites:cfg.n_sites ())
       else None);
    profile =
      (if obs.profiled || obs.profile_to <> None then fresh_profile ()
       else Obs.Profile.null);
    timeseries =
      (if obs.timeseries_to <> None then Obs.Timeseries.create ~width:obs.window ()
       else Obs.Timeseries.null);
  }

let judge obs cfg = Monitors.check_run ~monitors:obs.monitors cfg

(* --- reporting --- *)

(* Optional metric sections: each prints only when the flags that turn it
   on are set in the run's config. *)
let reconfig_section (cfg : Runtime.config) (m : Runtime.metrics) =
  if Option.is_some cfg.reconfig then
    Printf.printf
      "reconfigurations: %d ok (%d refused, %d failed), final epoch %d, \
       detector transitions %d\n"
      m.reconfigs m.reconfigs_refused m.reconfigs_failed m.final_epoch
      m.suspicion_transitions

let gray_section (cfg : Runtime.config) (m : Runtime.metrics) =
  if Option.is_some cfg.gray then
    Printf.printf
      "gray: hedges=%d wins=%d late-replies=%d demoted-rounds=%d slow-suspicions=%d\n"
      m.hedges m.hedge_wins m.hedge_late m.demoted_rounds m.slow_suspicions

let wal_section (cfg : Runtime.config) (m : Runtime.metrics) =
  if cfg.durability <> Repository.Volatile then begin
    Printf.printf
      "wal: flushes=%d (records=%d, lost=%d, disk-full=%d) checkpoints=%d \
       torn=%d rotted=%d storage-faults=%d\n"
      m.wal_flushes m.wal_flushed_records m.wal_lost_flushes m.wal_full_rejections
      m.wal_checkpoints m.wal_torn_writes m.wal_rotted m.storage_faults;
    Printf.printf
      "recovery: %d replays (%d corrupt), mean replay %.1f records, mean cost \
       %.2f ms\n"
      m.recoveries m.recoveries_corrupt (Summary.mean m.recovery_replay)
      (Summary.mean m.recovery_cost)
  end

let termination_section (cfg : Runtime.config) (m : Runtime.metrics) =
  if
    Atomrep_txn.Termination.enabled cfg.termination
    || cfg.deadlock <> Runtime.No_deadlock
  then
    Printf.printf
      "termination: coop-commits=%d coop-aborts=%d presumed=%d deadlock=%d \
       redrives=%d orphans-reaped=%d stranded=%d decision-writes=%d mean \
       blocked %.1f ms\n"
      m.coop_commits m.coop_aborts m.presumed_aborts m.deadlock_aborts m.redrives
      m.orphans_reaped m.stranded_entries m.decision_log_writes
      (Summary.mean m.blocked_latency)

let takeover_section (cfg : Runtime.config) (m : Runtime.metrics) =
  if cfg.takeover then
    Printf.printf
      "takeover: leases=%d adoptions=%d fenced=%d contended=%d \
       rebroadcasts-suppressed=%d stranded-live=%d\n"
      m.takeover_leases m.takeover_adoptions m.takeover_fenced m.takeover_contended
      m.rebroadcasts_suppressed m.stranded_live

let retries_section (cfg : Runtime.config) (m : Runtime.metrics) =
  if cfg.retry_budget <> max_int then
    Printf.printf "retries: spent=%d budget-exhausted=%d\n" m.retries_spent
      m.retries_budget_exhausted

let write_timeseries path ts =
  Obs.Export.write_file path (Json.to_string (Obs.Timeseries.to_json ts));
  Printf.printf "wrote %s (%d windows)\n" path (List.length (Obs.Timeseries.windows ts))

(* One verdict line per judged run: the monitors that held, or one line
   per failure. *)
let print_verdict monitors = function
  | [] ->
    Printf.printf "monitors: OK (%s)\n"
      (String.concat ", " (List.map (fun e -> e.Monitors.e_name) monitors))
  | fs -> List.iter (fun (o, f) -> Printf.printf "VIOLATION %s: %s\n" o f) fs

(* The report of a single-run command. Per judged run: its header, the
   [sections] the flags turned on, and the monitor verdict; then the
   profile table, and the time-series, trace and metrics files [obs] names (the metrics of the last run). [cfg] holds
   the observability stack the runs shared. The monitors gate the exit
   code so scripted runs can fail hard. *)
let finish ?(sections = []) obs (cfg : Runtime.config) runs =
  List.iter
    (fun (header, ((outcome : Runtime.outcome), failures)) ->
      header outcome.metrics;
      List.iter (fun section -> section cfg outcome.metrics) sections;
      print_verdict obs.monitors failures)
    runs;
  if obs.profiled then Format.printf "%a@?" (Obs.Profile.pp_table ?top:None) cfg.profile;
  Option.iter (fun path -> write_timeseries path cfg.timeseries) obs.timeseries_to;
  Option.iter
    (fun path ->
      Obs.Export.write_file path (Json.to_string (Obs.Profile.to_json cfg.profile));
      Printf.printf "wrote %s\n" path)
    obs.profile_to;
  (match obs.trace_to, cfg.trace with
   | Some (path, fmt), Some tr ->
     Obs.Export.write_file path
       (match fmt with
        | `Chrome -> Obs.Export.chrome_string tr
        | `Jsonl -> Obs.Export.jsonl tr);
     print_string (Obs.Export.flame tr)
   | _ -> ());
  (match obs.metrics_to, List.rev runs with
   | Some path, (_, ((outcome : Runtime.outcome), _)) :: _ ->
     Obs.Export.write_file path (Json.to_string (Obs.Metrics.to_json outcome.registry))
   | _ -> ());
  if List.for_all (fun (_, (_, failures)) -> failures = []) runs then 0 else 1

(* --- analyze --- *)

let analyze_cmd =
  let run spec max_len hybrid_search =
    let hybrid =
      if hybrid_search then
        Analysis.Search { max_events = max_len; max_actions = 3; universe = None }
      else Analysis.Skip
    in
    Format.printf "%a@." Analysis.pp_report (Analysis.analyze ~max_len ~hybrid spec);
    0
  in
  let hybrid_arg =
    flag [ "hybrid-search" ]
      ~doc:
        "Also search for minimal hybrid dependency relations (bounded, can be \
         slow for large event universes)."
  in
  let doc = "Compute a data type's dependency relations" in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ type_arg $ max_len_arg $ hybrid_arg)

(* --- quorums --- *)

let ops_of spec =
  List.sort_uniq String.compare
    (List.map
       (fun (inv : Atomrep_history.Event.Invocation.t) -> inv.op)
       spec.Serial_spec.invocations)

let quorums_cmd =
  let run spec max_len n_sites property p =
    let relation =
      match property with
      | `Static -> Static_dep.minimal spec ~max_len
      | `Dynamic -> Dynamic_dep.minimal spec ~max_len
    in
    let constraints = Op_constraint.of_relation relation in
    List.iter (fun c -> Format.printf "%a@." Op_constraint.pp c) constraints;
    let ops = ops_of spec in
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
    0
  in
  let property_arg =
    opt
      (Arg.enum [ ("static", `Static); ("dynamic", `Dynamic) ])
      `Static [ "property" ] ~docv:"PROP" ~doc:"static or dynamic."
  in
  let p_arg =
    opt Arg.float 0.9 [ "p" ] ~docv:"P" ~doc:"Per-site up probability for availability."
  in
  let doc = "Enumerate valid quorum assignments for a data type" in
  Cmd.v (Cmd.info "quorums" ~doc)
    Term.(const run $ type_arg $ max_len_arg $ sites_arg 5 $ property_arg $ p_arg)

(* --- simulate --- *)

let simulate_cmd =
  let run scheme n_txns n_sites seed mtbf reconfigure gray txn durability obs =
    let install_faults net =
      if mtbf > 0.0 then Atomrep_sim.Fault.crash_recover_all net ~mtbf ~mttr:150.0
    in
    let cfg =
      {
        Runtime.default_config with
        scheme;
        n_txns;
        n_sites;
        seed;
        install_faults;
        objects = Runtime.queue_objects ~n_sites;
        reconfig = (if reconfigure then Some Runtime.default_reconfig else None);
      }
      |> gray |> txn |> durability |> observe obs
    in
    let header (m : Runtime.metrics) =
      Printf.printf
        "scheme=%s txns=%d committed=%d aborted=%d (unavailable=%d rejected=%d \
         conflict=%d) blocked-waits=%d\n"
        (Replicated.scheme_name scheme) n_txns m.committed m.aborted m.unavailable_aborts
        m.rejected_aborts m.conflict_aborts m.blocked_waits;
      Printf.printf "mean txn latency: %.1f ms over %.1f ms simulated\n"
        (Summary.mean m.txn_latency) m.duration;
      Printf.printf
        "messages: sent=%d dropped=%d duplicated=%d dead-dest=%d rpc-timeouts=%d\n"
        m.msgs_sent m.msgs_dropped m.msgs_duplicated m.msgs_dead_dest m.rpc_timeouts
    in
    finish obs cfg
      [ (header, judge obs cfg) ]
      ~sections:
        [
          reconfig_section; gray_section; wal_section; termination_section;
          takeover_section; retries_section;
        ]
  in
  let mtbf_arg =
    opt nonneg_float 0.0 [ "mtbf" ] ~docv:"MS"
      ~doc:"Mean time between site failures (0 = none)."
  in
  let reconfigure_arg =
    flag [ "reconfigure" ]
      ~doc:
        "Enable the failure-detector-driven epoch reconfiguration \
         coordinator (hybrid/locking only; refused under static)."
  in
  let sites = sites_arg 3 in
  let doc = "Run the replicated-queue simulator" in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ scheme_arg
      $ txns_arg 100 ~doc:"Transactions to run."
      $ sites $ seed_arg 42 $ mtbf_arg $ reconfigure_arg $ gray_flags sites
      $ txn_flags () $ durability_flag ~tuned:false
      $ obs_flags ~timeseries:true ~profile:true ())

(* --- chaos --- *)

(* A chaos invocation sweeps its grid (the default), replays its tuples
   one at a time (--repro), or replays regression fixtures (--replay). A
   flag that only some of these read is a usage error in the others. *)
let chaos_cmd =
  let repro_arg =
    flag [ "repro" ]
      ~doc:
        "Replay the tuples --schemes x --profiles x --intensity at --seed one \
         by one instead of sweeping."
  in
  let replay_arg =
    Arg.(
      value
      & opt ~vopt:(Some Campaign.fixtures) (some fixtures) None
      & info [ "replay" ] ~docv:"FIXTURES"
          ~doc:
            (Printf.sprintf
               "Replay the named regression fixtures instead of sweeping \
                (comma-separated, or `all'; bare $(b,--replay) means all). \
                Known fixtures: %s."
               (String.concat ", " Campaign.fixture_names)))
  in
  let mode =
    let pick repro replay =
      match (repro, replay) with
      | true, Some _ -> Error (`Msg "--repro and --replay are exclusive")
      | true, None -> Ok `Repro
      | false, Some _ -> Ok `Replay
      | false, None -> Ok `Sweep
    in
    Term.(cli_parse_result (const pick $ repro_arg $ replay_arg))
  in
  let mode_name = function
    | `Sweep -> "sweeps"
    | `Repro -> "--repro"
    | `Replay -> "--replay"
  in
  (* [t], read only in [modes]: set in another mode, it is a usage error
     naming the flag as typed. Every such term evaluates [mode], so
     --repro with --replay is one too. *)
  let only modes t =
    let check mode (v, used) =
      match used with
      | arg :: _ when not (List.mem mode modes) ->
        let name = List.hd (String.split_on_char '=' arg) in
        Error
          (`Msg
            (Printf.sprintf "%s applies only to %s" name
               (String.concat " and " (List.map mode_name modes))))
      | _ -> Ok v
    in
    Term.(cli_parse_result (const check $ mode $ with_used_args t))
  in
  let run repro replay schemes profiles seeds txns intensities seed (base, flags) mutant
      obs postmortem_dir report_file max_shrinks =
    let base = { base with Runtime.mutant } in
    let monitors = obs.monitors in
    match replay with
    | Some fixtures ->
      let results = Campaign.replay_fixtures ~monitors fixtures in
      List.fold_left2
        (fun code (f : Campaign.fixture) (r : Campaign.result) ->
          let ok = Campaign.fixture_holds f r in
          Printf.printf "fixture %-22s %s (%s)\n" f.f_name
            (if ok then "OK" else "REGRESSION")
            (if f.f_expect_violation then "must violate" else "must run clean");
          Option.iter (Format.printf "%a@." Campaign.pp_violation) r.r_violation;
          List.iter
            (fun (what, why) -> Printf.printf "  check %s: %s\n" what why)
            (f.f_check r.r_metrics);
          if ok then code else 1)
        0 fixtures results
    | None when repro ->
      (* Replay one reproducer tuple per scheme/profile/intensity given;
         all the replays share one trace bus, so the exported file covers
         the whole invocation, and each replay is judged on its own
         events. *)
      let cfg = observe obs base in
      let replay scheme profile intensity =
        let task = { Campaign.base; scheme; profile; seed; n_txns = txns; intensity } in
        let ((_, failures) as verdict) =
          Campaign.run ~monitors ?trace:cfg.trace task
        in
        let postmortem =
          match postmortem_dir with
          | Some dir when failures <> [] ->
            (Campaign.write_postmortem ~monitors ~dir
               {
                 v_task = task;
                 v_failures = failures;
                 v_postmortem = None;
                 v_flags = Campaign.replay_flags ~base ~monitors flags;
               })
              .v_postmortem
          | _ -> None
        in
        let header (m : Runtime.metrics) =
          Printf.printf "%s/%s seed=%d txns=%d intensity=%g: committed=%d\n"
            (Replicated.scheme_name scheme)
            profile.Campaign.profile_name seed txns intensity m.committed;
          Option.iter (Printf.printf "postmortem: %s\n") postmortem
        in
        (header, verdict)
      in
      finish obs cfg
        (List.concat_map
           (fun scheme ->
             List.concat_map
               (fun profile -> List.map (replay scheme profile) intensities)
               profiles)
           schemes)
        ~sections:[ wal_section; termination_section; takeover_section ]
    | None ->
      let report =
        Campaign.report
          (Campaign.sweep ~monitors ?max_shrinks ?postmortem_dir ~flags
             (Campaign.grid ~base ~schemes ~profiles ~seeds ~intensities ~n_txns:txns))
      in
      Format.printf "%a" Campaign.pp_report report;
      Option.iter
        (fun path ->
          let sum f = Json.int (List.fold_left (fun n c -> n + f c) 0 report.cells) in
          let shrunk = Option.value max_shrinks ~default:max_int in
          let violations = report.violations in
          let fields =
            [
              ("monitors", Json.List (List.map (fun e -> Json.Str e.Monitors.e_name) monitors));
              ("seeds", Json.int seeds);
              ("txns", Json.int txns);
              ("intensities", Json.List (List.map (fun i -> Json.Num i) intensities));
              ("tasks", Json.int report.total_runs);
              ("committed", sum (fun c -> c.Campaign.c_committed));
              ("aborted", sum (fun c -> c.Campaign.c_aborted));
              ("shrunk", Json.int (min shrunk (List.length violations)));
              ("violations", Json.List (List.map Campaign.violation_json violations));
            ]
          in
          Obs.Export.write_file path (Json.to_string (Json.Obj [ ("chaos", Json.Obj fields) ]));
          Printf.printf "wrote %s\n" path)
        report_file;
      if report.violations = [] then 0 else 1
  in
  (* The intensities, comma-separated; a bad one reads as a bad single
     value. *)
  let intensities =
    let parse s =
      List.fold_right
        (fun x acc ->
          Result.bind (Arg.conv_parser pos_float x) (fun i -> Result.map (List.cons i) acc))
        (String.split_on_char ',' s) (Ok [])
    in
    opt ~absent:"1.0"
      (Arg.conv (parse, Arg.conv_printer (Arg.list pos_float)))
      [ 1.0 ] [ "intensity" ] ~docv:"K"
      ~doc:
        "Comma-separated fault intensity scales (1.0 = profile default), one \
         sweep stratum each."
  in
  let mutant =
    opt Arg.(some mutant) None [ "mutant" ] ~docv:"NAME"
      ~doc:
        (Printf.sprintf
           "Negative testing: plant the named deliberate bug (%s) so the \
            sweep has a real violation to find and shrink."
           (String.concat ", " (List.map Replicated.mutant_name Replicated.mutants)))
  in
  let postmortem_dir =
    opt Arg.(some string) None [ "postmortem-dir" ] ~docv:"DIR"
      ~doc:
        "Replay each shrunk violation under tracing and write a causal \
         postmortem plus the full trace into $(docv)."
  in
  let report =
    opt Arg.(some string) None [ "report" ] ~docv:"FILE"
      ~doc:"Write the sweep report as JSON to $(docv)."
  in
  let max_shrinks =
    opt ~absent:"all" Arg.(some nat) None [ "max-shrinks" ] ~docv:"N"
      ~doc:
        "Bisection-shrink at most $(docv) violations (earliest tasks first); \
         the rest are reported at their original tuples."
  in
  (* The campaign base the flags pick; --fail-slow sites are checked
     against its cluster. *)
  let base =
    let reconfig =
      flag [ "reconfig" ]
        ~doc:
          "Campaign against the reconfiguration base: five sites, the \
           epoch coordinator enabled (pairs well with --profiles kills)."
    in
    let overload =
      flag [ "overload" ]
        ~doc:
          "Campaign against the overload base: a precomputed flash-crowd \
           open-loop arrival plan over admission control, shed-by-class, \
           a finite retry budget and the per-site circuit breaker (pairs \
           with --profiles overload_storm and the shed_safety monitor). \
           --txns caps how many planned arrivals are dispatched."
    in
    let gray =
      flag [ "gray" ]
        ~doc:
          "Campaign against the gray base: the gray-failure mitigation \
           layer on — hedged early-quorum rounds, latency scoring, \
           slow-site demotion (pairs with --profiles gray_storm and the \
           hedge_safety monitor)."
    in
    let pick overload gray reconfig =
      if overload then Campaign.overload_base
      else if gray then Campaign.gray_base
      else if reconfig then Campaign.reconfig_base
      else Campaign.default_base
    in
    Term.(const pick $ overload $ gray $ reconfig)
  in
  let n_sites = Term.(const (fun (b : Runtime.config) -> b.n_sites) $ base) in
  (* The flags that built the base also go into each violation's
     reproducer line. *)
  let base =
    Term.with_used_args
      Term.(
        const (fun base gray txn durability -> base |> gray |> txn |> durability)
        $ base $ gray_flags n_sites $ txn_flags () $ durability_flag ~tuned:true)
  in
  let seeds =
    opt pos_int 10 [ "seeds" ] ~docv:"N"
      ~doc:"Sweep seeds 0..N-1 per scheme x profile x intensity."
  in
  let tuple = [ `Sweep; `Repro ] in
  let doc =
    "Run a fault-injection campaign and check atomicity after every run, \
     replay a reproducer, or replay the regression fixtures"
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ repro_arg $ replay_arg $ only tuple schemes_arg $ only tuple profiles_arg
      $ only [ `Sweep ] seeds
      $ only tuple (txns_arg 30 ~doc:"Transactions per run.")
      $ only tuple intensities
      $ only [ `Repro ] (seed_arg 0 ~doc:"Seed for --repro.")
      $ only tuple base $ only tuple mutant
      $ obs_flags ~export:(only [ `Repro ]) ()
      $ only tuple postmortem_dir
      $ only [ `Sweep ] report
      $ only [ `Sweep ] max_shrinks)

(* --- load --- *)

let load_cmd =
  let run scheme seed plan_seed rate mult curve load_profile n_objects zipf sessions
      n_sites horizon drain no_admission max_in_flight queue_limit deadline shed_policy
      no_breaker gray txn obs =
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
      Openloop.plan ~curve ~profile:load_profile ~n_objects ~zipf_theta:zipf ~n_sites
        ~n_sessions:sessions ~seed:plan_seed ~rate:(rate *. mult /. 1000.0) ~horizon ()
    in
    let admission =
      if no_admission then None
      else
        Some
          {
            Runtime.max_in_flight;
            queue_limit;
            deadline = (if deadline = 0.0 then Float.infinity else deadline);
            adm_shed_policy = shed_policy;
            adm_breaker = not no_breaker;
          }
    in
    let cfg =
      {
        Runtime.default_config with
        scheme;
        seed;
        n_sites;
        horizon = horizon +. drain;
        admission;
      }
      |> gray |> txn |> observe obs |> Openloop.apply plan
    in
    let offered = Openloop.n_txns plan in
    let header (m : Runtime.metrics) =
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
        m.committed m.aborted m.shed m.unavailable_aborts m.conflict_aborts;
      Printf.printf "goodput=%.2f/s over %.1f ms simulated\n"
        (if m.duration > 0.0 then float_of_int m.committed /. m.duration *. 1000.0
         else 0.0)
        m.duration;
      Printf.printf "retries: spent=%d budget-exhausted=%d breaker-trips=%d\n"
        m.retries_spent m.retries_budget_exhausted m.breaker_trips
    in
    let latency_section _ (m : Runtime.metrics) =
      if Summary.count m.txn_latency > 0 then
        Printf.printf "commit latency: p50=%.1f ms p99=%.1f ms\n"
          (Summary.percentile m.txn_latency 0.50)
          (Summary.percentile m.txn_latency 0.99);
      if Summary.count m.sojourn > 0 then
        Printf.printf "sojourn: mean=%.1f ms p99=%.1f ms max=%.1f ms\n"
          (Summary.mean m.sojourn)
          (Summary.percentile m.sojourn 0.99)
          (Summary.max_value m.sojourn)
    in
    finish obs cfg [ (header, judge obs cfg) ] ~sections:[ gray_section; latency_section ]
  in
  let plan_seed_arg =
    opt Arg.int (-1) [ "plan-seed" ] ~docv:"SEED"
      ~doc:
        "Seed for the arrival plan's private stream (default: --seed). \
         Fixing it while sweeping --seed replays one offered load \
         against many engine schedules."
  in
  let rate_arg =
    opt pos_float 10.0 [ "rate" ] ~docv:"TPS"
      ~doc:"Base offered load, transactions per second."
  in
  let mult_arg =
    opt pos_float 1.0 [ "mult" ] ~docv:"K"
      ~doc:"Offered-load multiplier on --rate (the knob load sweeps turn)."
  in
  let curve_arg =
    opt
      (Arg.enum
         [
           ("constant", `Constant); ("ramp", `Ramp); ("diurnal", `Diurnal);
           ("flash-crowd", `Flash_crowd);
         ])
      `Constant [ "curve" ] ~docv:"CURVE"
      ~doc:
        "Rate shape: `constant', `ramp' (to 4x at the horizon), `diurnal' \
         (sinusoid to 0.3x, two periods), or `flash-crowd' (6x burst in \
         the second quarter)."
  in
  let load_profile_arg =
    opt
      (enum_of Openloop.profile_name Openloop.[ Read_mostly; Write_heavy; Queue_fanout ])
      Openloop.Queue_fanout [ "load-profile" ] ~docv:"PROFILE"
      ~doc:
        "Workload shape: `read-mostly' (90% counter reads), `write-heavy' \
         (90% counter writes), or `queue-fanout' (enq/deq fanned over the \
         objects)."
  in
  let objects_arg =
    opt pos_int 3 [ "objects" ] ~docv:"N" ~doc:"Replicated objects the plan fans over."
  in
  let zipf_arg =
    opt nonneg_float 0.9 [ "zipf" ] ~docv:"THETA"
      ~doc:"Zipf skew of object popularity (0 = uniform)."
  in
  let sessions_arg =
    opt pos_int 6 [ "sessions" ] ~docv:"N"
      ~doc:"Client sessions (each pinned to home site session mod sites)."
  in
  let horizon_arg =
    opt pos_float 12_000.0 [ "horizon" ] ~docv:"MS"
      ~doc:"Arrival-plan horizon in simulated ms."
  in
  let drain_arg =
    opt nonneg_float 8_000.0 [ "drain" ] ~docv:"MS"
      ~doc:"Extra simulated time after the last planned arrival."
  in
  let no_admission_arg =
    flag [ "no-admission" ]
      ~doc:
        "Disable admission control: every arrival starts immediately (the \
         collapse-prone baseline load sweeps compare against)."
  in
  let max_in_flight_arg =
    opt pos_int 8 [ "max-in-flight" ] ~docv:"N" ~doc:"Bounded in-flight window."
  in
  let queue_limit_arg =
    opt nat 16 [ "queue-limit" ] ~docv:"N" ~doc:"Bounded admission queue; overflow sheds."
  in
  let deadline_arg =
    opt nonneg_float 0.0 [ "deadline" ] ~docv:"MS"
      ~doc:
        "Sojourn deadline: shed transactions still queued (or entering a \
         conflict retry) this long after arrival. 0 = none."
  in
  let shed_policy_arg =
    opt
      (enum_of Runtime.shed_policy_name Runtime.[ Reject_newest; Shed_reads_first ])
      Runtime.Reject_newest [ "shed-policy" ] ~docv:"POLICY"
      ~doc:"`reject-newest' or `shed-reads-first' (reads sacrificed before writes)."
  in
  let no_breaker_arg =
    flag [ "no-breaker" ] ~doc:"Disable the per-site circuit breaker."
  in
  let sites = sites_arg 3 in
  let doc = "Run an open-loop load sweep point against the simulator" in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const run $ scheme_arg
      $ seed_arg 42 ~doc:"Engine RNG seed."
      $ plan_seed_arg $ rate_arg $ mult_arg $ curve_arg $ load_profile_arg $ objects_arg
      $ zipf_arg $ sessions_arg $ sites $ horizon_arg $ drain_arg $ no_admission_arg
      $ max_in_flight_arg $ queue_limit_arg $ deadline_arg $ shed_policy_arg
      $ no_breaker_arg
      $ gray_flags sites
      $ txn_flags ~takeover:false ()
      $ obs_flags ~timeseries:true ())

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
    opt Arg.float 0.2 [ "threshold" ] ~docv:"FRAC"
      ~doc:
        "Fail (exit 1) when the newest entry's best committed/s falls \
         more than $(docv) below the most recent earlier entry of the \
         same bench kind."
  in
  let doc = "Gate the committed BENCH_*.json trajectory against regressions" in
  Cmd.v (Cmd.info "bench-diff" ~doc) Term.(const run $ dir_arg $ threshold_arg)

(* --- experiment --- *)

let experiment_cmd =
  let module E = Atomrep_experiments.Experiments in
  let run = function
    | "all" -> List.iter (fun (_, _, r) -> r ()) E.all
    | id -> ignore (E.run_by_id id)
  in
  let id_arg =
    let ids = "all" :: List.map (fun (id, _, _) -> id) E.all in
    let doc = "Experiment id (e1..e13, or `all')." in
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun id -> (id, id)) ids))) None
      & info [] ~docv:"ID" ~doc)
  in
  let doc = "Reproduce one of the paper's figures or examples" in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const (fun id -> run id; 0) $ id_arg)

(* --- compare --- *)

let compare_cmd =
  let run spec max_len n_sites samples =
    let module C = Atomrep_experiments.Compare in
    let concurrency = C.concurrency ~histories:samples spec in
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
    Format.printf "@.availability (Figure 1-2), threshold assignments on %d sites:@." n_sites;
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
  let samples_arg =
    opt pos_int 1000 [ "samples" ] ~docv:"N" ~doc:"Random histories to classify."
  in
  let doc = "Compare the three atomicity properties on one data type" in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ type_arg $ max_len_arg $ sites_arg 3 $ samples_arg)

(* --- witness --- *)

let witness_cmd =
  (* The dependent operation's invocations and the supplier's events; an
     operation the type lacks is a usage error. *)
  let pairs spec max_len dependent supplier =
    let invs =
      List.filter
        (fun (inv : Atomrep_history.Event.Invocation.t) -> String.equal inv.op dependent)
        spec.Serial_spec.invocations
    in
    let events =
      List.filter
        (fun (e : Atomrep_history.Event.t) -> String.equal e.inv.op supplier)
        (Serial_spec.event_universe spec ~max_len)
    in
    if invs = [] || events = [] then
      Error
        (`Msg
          (Printf.sprintf "no such operations (%s, %s) for %s" dependent supplier
             spec.Serial_spec.name))
    else Ok (spec, max_len, dependent, supplier, invs, events)
  in
  let run (spec, max_len, dependent, supplier, invs, events) =
    let pp_events ppf l =
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
        Atomrep_history.Event.pp ppf l
    in
    let found = ref false in
    List.iter
      (fun inv ->
        List.iter
          (fun e ->
            match Static_dep.witness spec ~max_len inv e with
            | Some (h1, ev, h2, h3) ->
              found := true;
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
      Printf.printf "no static dependency between %s and %s within %d-event histories\n"
        dependent supplier max_len;
    0
  in
  let dependent_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DEPENDENT" ~doc:"Invoking operation.")
  in
  let supplier_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SUPPLIER" ~doc:"Supplying operation.")
  in
  let doc = "Show a Theorem-6 witness for a static dependency pair" in
  Cmd.v (Cmd.info "witness" ~doc)
    Term.(
      const run
      $ cli_parse_result
          (const pairs $ type_arg $ max_len_arg $ dependent_arg $ supplier_arg))

(* --- types --- *)

let types_cmd =
  let run () =
    List.iter
      (fun (name, spec) ->
        let ops = ops_of spec in
        Printf.printf "%-14s %d operations: %s\n" name (List.length ops)
          (String.concat ", " ops))
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
            analyze_cmd; quorums_cmd; simulate_cmd; chaos_cmd; load_cmd;
            bench_diff_cmd; experiment_cmd; compare_cmd; witness_cmd; types_cmd;
          ]))
