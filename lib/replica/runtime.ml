(* The simulation runtime: wires one run together and projects its
   metrics. Static configuration is {!Runtime_config} (re-exported here),
   shared run state {!Run_state}; admission control lives in
   {!Admission}, the terminal transition and every termination protocol in
   {!Term_driver}, gray-failure routing in {!Gray_policy}, and the
   reconfiguration coordinator in {!Reconfig_coord}. This module keeps the
   transaction driver and the post-run checkers. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_quorum
open Atomrep_clock
open Atomrep_sim
open Atomrep_stats
open Atomrep_txn
include Runtime_config
open Run_state
module Profile = Atomrep_obs.Profile
module Timeseries = Atomrep_obs.Timeseries

type metrics = {
  committed : int;
  aborted : int;
  unavailable_aborts : int;
  rejected_aborts : int;
  conflict_aborts : int;
  blocked_waits : int;
  ops_done : int;
  txn_latency : Summary.t;
  duration : float;
  msgs_sent : int;
  msgs_dropped : int;
  msgs_duplicated : int;
  msgs_dead_dest : int;
  rpc_timeouts : int;
  reconfigs : int;
  reconfigs_refused : int;
  reconfigs_failed : int;
  reconfig_latency : Summary.t;
  suspicion_transitions : int;
  final_epoch : int;
  recoveries : int;
  recoveries_corrupt : int;
  recovery_replay : Summary.t;
  recovery_cost : Summary.t;
  wal_flushes : int;
  wal_flushed_records : int;
  wal_lost_flushes : int;
  wal_full_rejections : int;
  wal_torn_writes : int;
  wal_rotted : int;
  wal_checkpoints : int;
  storage_faults : int;
  coop_commits : int;
  coop_aborts : int;
  presumed_aborts : int;
  deadlock_aborts : int;
  redrives : int;
  orphans_reaped : int;
  stranded_entries : int;
  decision_log_writes : int;
  blocked_latency : Summary.t;
  takeover_leases : int;
  takeover_adoptions : int;
  takeover_fenced : int;
  takeover_contended : int;
  rebroadcasts_suppressed : int;
  stranded_live : int;
  shed : int;
  timely_commits : int;
  retries_spent : int;
  retries_budget_exhausted : int;
  sojourn : Summary.t;
  breaker_trips : int;
  hedges : int;
  hedge_wins : int;
  hedge_late : int;
  demoted_rounds : int;
  slow_suspicions : int;
}

type outcome = {
  metrics : metrics;
  histories : (string * Behavioral.t) list;
  registry : Metrics.t;
}

(* The transaction driver. Each transaction runs at a home site: Begin,
   its script of operations with bounded conflict retries, then a
   two-phase commit; every terminal step goes through
   {!Term_driver.finalize}. [release] frees its admission slot. *)
let exec_txn st term index ~arrival ~admitted ~release =
  let cfg = st.cfg and c = st.counters in
  let rng = Engine.rng st.engine in
  let home =
    match planned_home cfg index with
    | Some h -> h
    | None -> Rng.int rng cfg.n_sites
  in
  let action = Action.of_string (Printf.sprintf "T%d" index) in
  let txname = Action.to_string action in
  if not (Network.site_up st.net home) then begin
    (* The client's site is down: the transaction cannot start. *)
    Metrics.incr c.c_aborted;
    Metrics.incr c.c_unavailable;
    release ()
  end
  else begin
    let trc = Network.trace st.net in
    let clock = st.clocks.(home) in
    let txn = Txn.create ~action ~begin_ts:(Lamport.tick clock) ~home_site:home in
    Hashtbl.replace st.txns action txn;
    let script = cfg.script rng index in
    let started = Engine.now st.engine in
    note st ~site:home (Trace.Txn_begin { txn = txname });
    let drv =
      {
        arrival;
        started;
        session = (match cfg.load with Some l -> l.session_of index | None -> -1);
        tspan = Trace.span_begin trc ~site:home "txn";
        commit_span = -1;
        commit_at = Float.nan;
        release;
      }
    in
    Hashtbl.replace st.drivers action drv;
    let finalize = Term_driver.finalize term txn ~site:home ~drv in
    let abort kind why = finalize (`Abort (kind, why)) in
    (* The driver died with its home site: the transaction is stranded
       until the termination protocol (or nothing, under [Disabled]) picks
       it up, and its admission slot frees so offered load keeps flowing. *)
    let strand () =
      txn.Txn.stranded <- true;
      Term_driver.mark_stranded term txn;
      release ()
    in
    (* Every continuation the driver schedules (RPC callback, backoff
       timer) re-enters through this guard: a transaction someone else
       finalized stops silently, and a driver whose home site has crashed
       strands. The guard draws nothing, so fault-free runs are
       bit-identical to the unguarded driver. *)
    let step f =
      match txn.Txn.status with
      | Txn.Committed _ | Txn.Aborted _ -> ()
      | Txn.Running | Txn.Committing ->
        if txn.Txn.stranded then ()
        else if not (Network.site_up st.net home) then strand ()
        else f ()
    in
    (* The retry ladder shared by conflict backoffs, commit-quorum
       re-probes and commit-drive re-drives: with [left] of [total] tries
       remaining, spend one from the per-transaction budget and re-enter
       [again] after the capped backoff; otherwise [give_up] — [`Budget]
       when the budget ran dry (counted), [`Tries] when the ladder ran
       out. One budget for all three keeps a partitioned run from
       amplifying retries unboundedly; [max_int] never exhausts and keeps
       the legacy draw sequence. *)
    let budget = ref cfg.retry_budget in
    let retry ~total ~left again ~give_up =
      if left <= 0 then give_up `Tries
      else if !budget > 0 then begin
        decr budget;
        Metrics.incr c.c_retries_spent;
        let delay = backoff_delay rng ~attempt:(total - left) in
        Engine.schedule st.engine ~delay (fun () -> step (fun () -> again (left - 1)))
      end
      else begin
        Metrics.incr c.c_retry_exhausted;
        give_up `Budget
      end
    in
    let doom victim vt why cycle =
      vt.Txn.doomed <- Some why;
      Waits_for.clear st.waits victim;
      note st ~site:home
        (Trace.Deadlock
           { victim = Action.to_string victim; cycle = List.map Action.to_string cycle })
    in
    (* Deadlock handling at the moment an operation reports a blocker.
       [Detect]: record the waits-for edge and look for a cycle; the
       youngest participant (largest begin timestamp) is sentenced — its
       edge is removed so the cycle is broken even before it aborts.
       [Wound_wait]: an older waiter wounds a younger Running blocker
       outright (no graph, no cycles possible). Victims other than the
       current transaction abort at their next attempt entry. *)
    let on_blocked blocker =
      match cfg.deadlock with
      | No_deadlock -> ()
      | Detect -> (
        Waits_for.wait st.waits ~waiter:action ~on:blocker;
        let alive a =
          match Hashtbl.find_opt st.txns a with
          | Some t -> (
            match t.Txn.status with
            | Txn.Running | Txn.Committing -> t.Txn.doomed = None
            | Txn.Committed _ | Txn.Aborted _ -> false)
          | None -> false
        in
        match Waits_for.cycle_from st.waits ~alive action with
        | None -> ()
        | Some cycle ->
          let begin_ts a =
            match Hashtbl.find_opt st.txns a with
            | Some t -> t.Txn.begin_ts
            | None -> Lamport.Timestamp.zero
          in
          let victim =
            List.fold_left
              (fun v a ->
                if Lamport.Timestamp.compare (begin_ts a) (begin_ts v) > 0 then a
                else v)
              (List.hd cycle) (List.tl cycle)
          in
          Option.iter
            (fun vt -> doom victim vt "deadlock victim" cycle)
            (Hashtbl.find_opt st.txns victim))
      | Wound_wait -> (
        match Hashtbl.find_opt st.txns blocker with
        | Some ({ Txn.status = Txn.Running; doomed = None; _ } as bt)
          when Lamport.Timestamp.compare txn.Txn.begin_ts bt.Txn.begin_ts < 0 ->
          doom blocker bt "wounded" [ action; blocker ]
        | _ -> ())
    in
    let rec do_ops = function
      | [] -> do_commit ()
      | { target; invocation } :: rest ->
        let obj = find_object st target in
        if not (List.mem target txn.Txn.touched) then begin
          Txn.touch txn target;
          Replicated.observe obj (Behavioral.Begin action)
        end;
        (* Wall-clock the op's blocked period: set at the first refusal,
           closed when the attempt chain terminates (driver-owned, like
           the transaction latency histogram). *)
        attempt obj (ref None) rest invocation max_retries
    and attempt obj blocked_at rest invocation retries =
      let unblocked () =
        Option.iter
          (fun t0 ->
            blocked_at := None;
            Metrics.observe c.c_blocked_latency (Engine.now st.engine -. t0))
          !blocked_at
      in
      let give_up kind why =
        unblocked ();
        abort kind why
      in
      match txn.Txn.doomed with
      | Some why when cfg.deadlock <> No_deadlock -> give_up `Deadlock why
      | _ ->
        Replicated.execute obj ~txn ~clock ~span:drv.tspan invocation
          ~k:(fun result ->
            step (fun () ->
                match result with
                | Replicated.Done _ ->
                  unblocked ();
                  Waits_for.clear st.waits action;
                  Metrics.incr c.c_ops;
                  do_ops rest
                | Replicated.Blocked_on blocker -> (
                  Metrics.incr c.c_blocked;
                  if !blocked_at = None then
                    blocked_at := Some (Engine.now st.engine);
                  on_blocked blocker;
                  match txn.Txn.doomed with
                  | Some why when cfg.deadlock <> No_deadlock ->
                    (* Sentenced as the cycle's victim just now: abort
                       immediately instead of waiting out a backoff. *)
                    give_up `Deadlock why
                  | _ ->
                    Term_driver.try_resolve term ~home blocker (Replicated.name obj);
                    if Admission.past_deadline st ~admitted then
                      (* Deadline-aware shedding mid-transaction: still
                         pre-commit, so the clean abort path applies —
                         tentative entries resolve via the abort
                         broadcast. *)
                      give_up `Shed "deadline exceeded"
                    else
                      retry ~total:max_retries ~left:retries
                        (attempt obj blocked_at rest invocation)
                        ~give_up:(function
                          | `Budget -> give_up `Conflict "retry budget exhausted"
                          | `Tries -> give_up `Conflict "conflict retries exhausted"))
                | Replicated.Unavailable why -> give_up `Unavailable why
                | Replicated.Rejected why -> give_up `Rejected why))
    and do_commit () =
      txn.Txn.status <- Txn.Committing;
      drv.commit_at <- Engine.now st.engine;
      (* Tell interested fault schedules (the coordinator killer) that this
         site just entered its commit window. Costs nothing — not even a
         draw — when nobody listens. *)
      Network.note_commit_window st.net ~site:home;
      drv.commit_span <- Trace.span_begin trc ~site:home ~parent:drv.tspan "commit";
      let commit_now () = finalize (`Commit (Lamport.tick clock)) in
      (* Phase 2, termination modes: make the decision durable (the commit
         point), then drive sticky Precommit votes to a full quorum per
         object. A crash after the commit point leaves the intent in the
         decision log for the recovered coordinator to re-drive; a crash
         before it leaves only presumable-abort state. *)
      let decide () =
        match term.Term_driver.log with
        | None -> commit_now ()
        | Some log ->
          let cts = Lamport.tick clock in
          if
            not
              (Termination.log_intent log ~site:home ~action
                 ~touched:txn.Txn.touched ~cts)
          then abort `Unavailable "decision log: disk full"
          else begin
            note st ~site:home (Trace.Commit_point { txn = txname });
            (* Session_commit is emitted here, at timestamp assignment,
               not when the vote drive reports back: a partition can delay
               one drive past a later-stamped sibling's verdict, and the
               monitor judges the clock in trace order. *)
            note_session_commit st drv ~site:home txname cts;
            let settle outcome =
              close_spans st drv ~site:home outcome;
              release ()
            in
            let rec drive left =
              Term_driver.drive_commit_votes
                ?term:(Term_driver.driver_term term) term txn cts ~from:home
                ~k:(fun verdict ->
                  if not (Network.site_up st.net home) then strand ()
                  else begin
                    Term_driver.log_verdict term ~site:home action verdict;
                    match verdict with
                    | `Committed ->
                      Metrics.observe c.c_latency (Engine.now st.engine -. started);
                      settle "committed"
                    | `Aborted -> settle "aborted"
                    | `Fenced ->
                      (* A takeover lease holder owns the drive now: stop.
                         The intent stays in-doubt at this site until the
                         holder's broadcast (or this site's next recovery)
                         resolves it. *)
                      settle "fenced"
                    | `Inconclusive ->
                      retry ~total:commit_quorum_retries ~left drive
                        ~give_up:(fun _ ->
                          (* In doubt: the commit point is durable but some
                             vote quorum is unreachable. The decision stays
                             open for redrive at recovery, cooperative
                             termination, or the reaper. *)
                          note st ~site:home
                            (Trace.Coop_term { txn = txname; outcome = "in-doubt" });
                          settle "in-doubt")
                  end)
            in
            drive commit_quorum_retries
          end
      in
      (* Phase 1: every touched object must show a reachable final quorum
         before the decision. Transient quorum loss (a flapping site, a
         healing partition) need not doom the transaction: re-probe a
         bounded number of times with backoff before aborting. *)
      let rec prepare = function
        | [] -> decide ()
        | name :: more ->
          let obj = find_object st name in
          let rec probe left =
            Replicated.prepared_sites obj ~from:home
              ~timeout:Replicated.rpc_timeout ~k:(fun sites ->
                step (fun () ->
                    if List.length sites >= Replicated.max_final obj then
                      prepare more
                    else
                      retry ~total:commit_quorum_retries ~left probe
                        ~give_up:(function
                          | `Budget ->
                            abort `Unavailable
                              ("commit quorum (retry budget): " ^ name)
                          | `Tries -> abort `Unavailable ("commit quorum: " ^ name))))
          in
          probe commit_quorum_retries
      in
      (* An empty transaction commits vacuously. *)
      if txn.Txn.touched = [] then commit_now () else prepare txn.Txn.touched
    in
    do_ops script
  end

(* Reconstruct the model-ordered history for one object (see interface):
   Begin entries first (Begin-timestamp order), then executions and aborts
   in observed order, then Commit entries in commit-timestamp order, except
   for locking where the observed order is the model order. *)
let model_history st scheme observed =
  match scheme with
  | Replicated.Locking -> observed
  | Replicated.Static | Replicated.Hybrid ->
    let begins =
      List.filter_map
        (function Behavioral.Begin a -> Some a | Behavioral.Exec _ | Behavioral.Commit _ | Behavioral.Abort _ -> None)
        observed
    in
    let begin_ts a =
      match Hashtbl.find_opt st.txns a with
      | Some txn -> txn.Txn.begin_ts
      | None -> Lamport.Timestamp.zero
    in
    let commit_ts a =
      match Hashtbl.find_opt st.txns a with
      | Some { Txn.status = Txn.Committed ts; _ } -> Some ts
      | Some _ | None -> None
    in
    let begins =
      List.sort (fun a b -> Lamport.Timestamp.compare (begin_ts a) (begin_ts b)) begins
    in
    let middles =
      List.filter
        (function
          | Behavioral.Exec _ | Behavioral.Abort _ -> true
          | Behavioral.Begin _ | Behavioral.Commit _ -> false)
        observed
    in
    let commits =
      List.filter_map
        (function
          | Behavioral.Commit a ->
            (match commit_ts a with Some ts -> Some (ts, a) | None -> Some (Lamport.Timestamp.zero, a))
          | Behavioral.Begin _ | Behavioral.Exec _ | Behavioral.Abort _ -> None)
        observed
      |> List.sort (fun (t1, _) (t2, _) -> Lamport.Timestamp.compare t1 t2)
      |> List.map (fun (_, a) -> Behavioral.Commit a)
    in
    List.map (fun a -> Behavioral.Begin a) begins @ middles @ commits

(* WAL counters summed over every object's repositories. *)
let wal_totals objects =
  let sum = Atomrep_store.Wal.zero_stats () in
  List.iter
    (fun (_, obj) -> Option.iter (Atomrep_store.Wal.add_stats sum) (Replicated.wal_totals obj))
    objects;
  sum

(* Time-series sampler: a recurring daemon event polling the hot counters
   into sim-time windows. It draws no RNG and never holds a run open, so
   every metric is identical with the sampler on or off. Returns the last
   sample, which disarms the next tick before it reads the queue depth. *)
let start_sampler st term ts =
  let c = st.counters in
  let series agg name = Timeseries.series ts ~agg name in
  (* One binding per series: creation order is export order. *)
  let s_committed = series Timeseries.Sum "committed" in
  let s_aborted = series Timeseries.Sum "aborted" in
  let s_blocked = series Timeseries.Sum "blocked_waits" in
  let s_wal = series Timeseries.Sum "wal_flushes" in
  let s_msgs = series Timeseries.Sum "msgs_sent" in
  let s_queue = series Timeseries.Max "queue_depth" in
  let s_stranded = series Timeseries.Last "stranded_live" in
  let s_shed = series Timeseries.Sum "shed" in
  let s_timely = series Timeseries.Sum "timely_commits" in
  let s_retries = series Timeseries.Sum "retries_spent" in
  let counted s counter = (s, (fun () -> Metrics.read counter), ref 0) in
  let deltas =
    [
      counted s_committed c.c_committed;
      counted s_aborted c.c_aborted;
      counted s_blocked c.c_blocked;
      (s_wal, (fun () -> (wal_totals st.objects).flushes), ref 0);
      (s_msgs, (fun () -> (Network.stats st.net).Network.sent), ref 0);
      counted s_shed c.c_shed;
      counted s_timely c.c_timely;
      counted s_retries c.c_retries_spent;
    ]
  in
  let sample () =
    let now = Engine.now st.engine in
    List.iter
      (fun (s, read, last) ->
        let v = read () in
        Timeseries.observe ts s ~now (float_of_int (v - !last));
        last := v)
      deltas;
    Timeseries.observe ts s_queue ~now (float_of_int (Engine.pending st.engine));
    Timeseries.observe ts s_stranded ~now (float_of_int term.Term_driver.n_stranded_live)
  in
  let interval = Timeseries.width ts /. 2.0 in
  let next = ref None in
  let rec tick () =
    next := Some (Engine.timer st.engine ~delay:interval (fun () -> sample (); tick ()))
  in
  tick ();
  fun () -> Option.iter (Engine.cancel st.engine) !next; sample ()

(* The background machinery, which never stops: started inside
   [Engine.daemon], it does not hold the run open. Returns the detector and
   the sampler's last sample. *)
let start_daemons st term =
  let cfg = st.cfg and engine = st.engine and net = st.net in
  Term_driver.install term;
  cfg.install_faults net;
  (* Split gossip streams unconditionally so the workload's draws are the
     same whether or not anti-entropy runs. *)
  List.iter
    (fun (_, obj) ->
      let gossip_rng = Rng.split (Engine.rng engine) in
      match cfg.anti_entropy_every with
      | Some every -> Replicated.start_anti_entropy obj ~rng:gossip_rng ~every
      | None -> ())
    st.objects;
  (* Scripted fail-slow injections: persistent service-time inflation armed
     at each entry's onset. Empty by default, so the legacy event timeline
     is untouched. *)
  List.iter
    (fun (site, onset, mode) ->
      Engine.schedule_at engine ~time:onset (fun () ->
          Network.set_fail_slow net ~site mode))
    cfg.fail_slow;
  (* Failure detector, shared by the reconfiguration coordinator (binary
     suspicion) and the gray-failure layer (latency scoring). It draws from
     its own split stream for the same reason gossip does: toggling either
     consumer must not perturb the workload's draws — exactly one split is
     consumed here whether zero, one, or both are enabled. *)
  let det_rng = Rng.split (Engine.rng engine) in
  let detector =
    if Option.is_none cfg.reconfig && Option.is_none cfg.gray then None
    else
      (* The detector's defaults: site 0 probes every 40 with timeout 25
         and suspects after 3 misses; gray runs add latency scoring. *)
      Some
        (Detector.start net ~rng:det_rng
           ?slow:(Option.map (fun _ -> Detector.default_slow_config) cfg.gray)
           ())
  in
  Option.iter
    (fun det ->
      Option.iter (fun gc -> Gray_policy.install st gc det) cfg.gray;
      Option.iter (fun rc -> Reconfig_coord.install st rc det) cfg.reconfig)
    detector;
  let last_sample =
    if Timeseries.enabled cfg.timeseries then start_sampler st term cfg.timeseries
    else ignore
  in
  (detector, last_sample)

let run_inner cfg =
  let engine = Engine.create ~seed:cfg.seed in
  let net =
Network.create engine ~n_sites:cfg.n_sites ~latency_mean ()
  in
  let objects =
    List.map
      (fun oc ->
        ( oc.obj_name,
          Replicated.create ~name:oc.obj_name ~spec:oc.obj_spec ~scheme:cfg.scheme
            ~relation:oc.obj_relation ~assignment:oc.obj_assignment ~net
            ?members:oc.obj_members ~durability:cfg.durability ?mutant:cfg.mutant
            () ))
      cfg.objects
  in
  (match cfg.trace with Some tr -> Network.set_trace net tr | None -> ());
  let registry = Metrics.create () in
  let labels = [ ("scheme", Replicated.scheme_name cfg.scheme) ] in
  let st = Run_state.create cfg ~engine ~net ~objects ~registry ~labels in
  let term = Term_driver.create st in
  let admission = Admission.create st ~start:(exec_txn st term) in
  (* Fault schedules inject clock skew through the network so they need no
     dependency on the clock layer; the runtime owns the clocks, so it
     supplies the handler. *)
  Network.set_skew_handler net (fun ~site ~amount ->
      Lamport.skew st.clocks.(site) amount);
  (* An amnesiac site may only rejoin once its resync set intersects every
     final quorum that might hold a tentative entry it lost: for final
     quorums of size f on n sites that takes n - f + 1 peers, maximized
     over every operation of every object. *)
  let resync_quorum =
    List.fold_left
      (fun acc oc ->
        List.fold_left
          (fun acc (_, s) ->
            if s.Assignment.final > 0 then
              max acc (cfg.n_sites - s.Assignment.final + 1)
            else acc)
          acc oc.obj_assignment.Assignment.ops)
      0 cfg.objects
  in
  (* The [Ungated_rejoin] mutant lets amnesiac sites rejoin with no
     resync quorum; its objects also stop re-pushing entries on commit. *)
  Network.set_resync_quorum net
    (if cfg.mutant = Some Replicated.Ungated_rejoin then 0 else resync_quorum);
  let detector, last_sample = Engine.daemon engine (fun () -> start_daemons st term) in
  Admission.feed admission
    (match cfg.load with
     | None ->
       (* Closed-form Poisson process: the legacy draw sequence, drawn
          before the run starts. *)
       let rng = Engine.rng engine in
       let arrival = ref 0.0 in
       Array.init (max 0 cfg.n_txns) (fun _ ->
           arrival := !arrival +. Rng.exponential rng cfg.arrival_mean;
           !arrival)
     | Some load ->
       (* Open-loop plan: arrivals are precomputed (independent of this
          engine's RNG), so offered load never adapts to system state. *)
       Array.sub load.arrivals 0 (min cfg.n_txns (Array.length load.arrivals)));
  (* The run ends where its work ends; [horizon] caps one that never does. *)
  Engine.run ~until:cfg.horizon ~work:(fun () -> Term_driver.has_work term) engine;
  last_sample ();
  Timeseries.finish cfg.timeseries ~now:(Engine.now engine);
  (* End-of-run fairness signal: the liveness monitors only indict an
     unresolved obligation when the final network state shows fairness held
     (everything healed, everybody up) — a stranded op behind a permanent
     kill is vacuous, not a violation. *)
  note st ~site:(-1)
    (Trace.Quiesce
       {
         up = List.length (Network.up_sites net);
         n_sites = cfg.n_sites;
         partitioned = Network.partitioned net;
       });
  let ns = Network.stats net in
  (* Mirror the network's counters and the run-level facts into the
     registry so one JSON export carries everything. *)
  let g name v = Metrics.set (Metrics.gauge registry name) (float_of_int v) in
  g "net.sent" ns.Network.sent;
  g "net.dropped" ns.Network.dropped;
  g "net.duplicated" ns.Network.duplicated;
  g "net.dead_dest" ns.Network.dead_dest;
  g "net.rpc_timeouts" ns.Network.rpc_timeouts;
  Metrics.set (Metrics.gauge registry "sim.duration") (Engine.now engine);
  let detector_count f = Option.fold ~none:0 ~some:f detector in
  let suspicion_transitions = detector_count Detector.transitions in
  g "detector.transitions" suspicion_transitions;
  let slow_suspicions = detector_count Detector.slow_transitions in
  g "detector.slow_transitions" slow_suspicions;
  let final_epoch =
    List.fold_left
      (fun acc (_, obj) -> max acc (Epoch.number (Replicated.current_epoch obj)))
      0 objects
  in
  g "epoch.final" final_epoch;
  (* Durability: WAL counters summed over objects, plus one observation per
     recovery into the replay-length and modeled-cost histograms. *)
  let wal = wal_totals objects in
  g "wal.flushes" wal.flushes;
  g "wal.flushed_records" wal.flushed_records;
  g "wal.lost_flushes" wal.lost_flushes;
  g "wal.full_rejections" wal.full_rejections;
  g "wal.torn_writes" wal.torn_writes;
  g "wal.rotted" wal.rotted;
  g "wal.checkpoints" wal.checkpoints;
  g "storage.faults" ns.Network.storage_faults;
  (* Termination: how many tentative entries are still unresolved at the
     horizon (orphans the protocol failed — or was not allowed — to
     reap), and how many decision-log flushes the commit points cost. *)
  let stranded_entries = fold_tentative st (fun _ n _ -> n + 1) 0 in
  g "term.stranded_entries" stranded_entries;
  let decision_log_writes =
    Option.fold ~none:0 ~some:Termination.writes term.Term_driver.log
  in
  g "term.decision_log_writes" decision_log_writes;
  let all_recoveries =
    List.concat_map (fun (_, obj) -> Replicated.recoveries obj) objects
  in
  let recoveries_corrupt =
    List.length (List.filter (fun r -> r.Repository.r_corrupt) all_recoveries)
  in
  g "recovery.count" (List.length all_recoveries);
  g "recovery.corrupt" recoveries_corrupt;
  let recovery_replay = Metrics.histogram registry ~labels "recovery.replay" in
  let recovery_cost = Metrics.histogram registry ~labels "recovery.cost_ms" in
  List.iter
    (fun r ->
      Metrics.observe recovery_replay (float_of_int r.Repository.r_replayed);
      Metrics.observe recovery_cost r.Repository.r_cost_ms)
    all_recoveries;
  (* Per-span-kind latency breakdowns, from the trace's closed spans. *)
  Option.iter
    (fun tr ->
      List.iter
        (fun (label, s) ->
          let h = Metrics.histogram registry ~labels ("span." ^ label) in
          List.iter (Metrics.observe h) (Summary.observations s))
        (Trace.span_durations tr))
    cfg.trace;
  let c = st.counters in
  let n = Metrics.read and h name = Metrics.histogram_summary registry ~labels name in
  let metrics =
    {
      committed = n c.c_committed;
      aborted = n c.c_aborted;
      unavailable_aborts = n c.c_unavailable;
      rejected_aborts = n c.c_rejected;
      conflict_aborts = n c.c_conflict;
      blocked_waits = n c.c_blocked;
      ops_done = n c.c_ops;
      txn_latency = h "txn.latency";
      duration = Engine.now engine;
      msgs_sent = ns.Network.sent;
      msgs_dropped = ns.Network.dropped;
      msgs_duplicated = ns.Network.duplicated;
      msgs_dead_dest = ns.Network.dead_dest;
      rpc_timeouts = ns.Network.rpc_timeouts;
      reconfigs = n c.c_reconfig_done;
      reconfigs_refused = n c.c_reconfig_refused;
      reconfigs_failed = n c.c_reconfig_failed;
      reconfig_latency = h "reconfig.latency";
      suspicion_transitions;
      final_epoch;
      recoveries = List.length all_recoveries;
      recoveries_corrupt;
      recovery_replay = h "recovery.replay";
      recovery_cost = h "recovery.cost_ms";
      wal_flushes = wal.flushes;
      wal_flushed_records = wal.flushed_records;
      wal_lost_flushes = wal.lost_flushes;
      wal_full_rejections = wal.full_rejections;
      wal_torn_writes = wal.torn_writes;
      wal_rotted = wal.rotted;
      wal_checkpoints = wal.checkpoints;
      storage_faults = ns.Network.storage_faults;
      coop_commits = n c.c_coop_commit;
      coop_aborts = n c.c_coop_abort;
      presumed_aborts = n c.c_presumed;
      deadlock_aborts = n c.c_deadlock;
      redrives = n c.c_redrive;
      orphans_reaped = n c.c_orphans;
      stranded_entries;
      decision_log_writes;
      blocked_latency = h "op.blocked_latency";
      takeover_leases = n c.c_takeover_lease;
      takeover_adoptions = n c.c_takeover_adopt;
      takeover_fenced = n c.c_takeover_fenced;
      takeover_contended = n c.c_takeover_contended;
      rebroadcasts_suppressed = n c.c_rebroadcast_suppressed;
      stranded_live = term.Term_driver.n_stranded_live;
      shed = n c.c_shed;
      timely_commits = n c.c_timely;
      retries_spent = n c.c_retries_spent;
      retries_budget_exhausted = n c.c_retry_exhausted;
      sojourn = h "admission.sojourn";
      breaker_trips = n c.c_breaker_trips;
      hedges = n c.c_hedges;
      hedge_wins = n c.c_hedge_wins;
      hedge_late = n c.c_hedge_late;
      demoted_rounds = n c.c_demoted;
      slow_suspicions;
    }
  in
  let histories =
    List.map
      (fun (name, obj) -> (name, model_history st cfg.scheme (Replicated.history obj)))
      objects
  in
  { metrics; histories; registry }

(* Sizes a run cannot start from: no sites to home transactions at, or an
   admission window that never admits (every arrival would queue forever). *)
let validate cfg =
  let require ok field = if not ok then invalid_arg ("Runtime.run: " ^ field) in
  require (cfg.n_sites >= 1) "n_sites must be >= 1";
  Option.iter
    (fun a ->
      require (a.max_in_flight >= 1) "admission.max_in_flight must be >= 1";
      require (a.queue_limit >= 0) "admission.queue_limit must be >= 0")
    cfg.admission

(* Install the run's profile as the ambient one only when it is enabled:
   a disabled profile must not mask an outer ambient profile (e.g. a
   campaign profiling its runs from the CLI). *)
let run cfg =
  validate cfg;
  if Profile.enabled cfg.profile then
    Profile.with_current cfg.profile (fun () -> run_inner cfg)
  else run_inner cfg

let spec_of (cfg : config) name =
  let oc = List.find (fun oc -> String.equal oc.obj_name name) cfg.objects in
  oc.obj_spec

let check_atomicity (cfg : config) outcome =
  let module A = Atomrep_atomicity.Atomicity in
  let property = Replicated.property_of_scheme cfg.scheme in
  List.filter_map
    (fun (name, history) ->
      match A.check (spec_of cfg name) property history with
      | Ok () -> None
      | Error f -> Some (name, Format.asprintf "%a" A.pp_failure f))
    outcome.histories

let check_common_order (cfg : config) outcome =
  (* The system-wide serialization order is the Begin-timestamp order for
     static atomicity and the Commit order (commit timestamps; observed
     commit order for locking) otherwise. Both are total orders shared by
     every object, so the system is atomic iff each object's committed
     subhistory is legal when serialized in it. *)
  List.filter_map
    (fun (name, history) ->
      let spec = spec_of cfg name in
      let h = Behavioral.strip_aborted history in
      let committed = Behavioral.committed h in
      let order =
        match cfg.scheme with
        | Replicated.Hybrid | Replicated.Locking -> committed
        | Replicated.Static ->
          (* Begin-entry order in the reconstructed history is the
             Begin-timestamp order. *)
          let committed = Action.Set.of_list committed in
          List.filter (fun a -> Action.Set.mem a committed) (Behavioral.begin_order h)
      in
      let serial = Behavioral.serialize h order in
      if Serial_spec.legal spec serial then None
      else Some (name, "committed subhistory illegal in system-wide order"))
    outcome.histories
