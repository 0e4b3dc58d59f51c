(* Crash-safe transaction termination: the backoff bound, the waits-for
   graph and both deadlock policies, the coordinator-killer stranding
   regression (the tentpole's headline contrast), status re-broadcast to
   every reachable repository for committed and aborted blockers, and the
   determinism witnesses for the new protocol machinery. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_clock
open Atomrep_sim
open Atomrep_replica
module Termination = Atomrep_txn.Termination
module Txn = Atomrep_txn.Txn
module Waits_for = Atomrep_cc.Waits_for
module Campaign = Atomrep_chaos.Campaign
module Monitors = Atomrep_chaos.Monitors
module Rng = Atomrep_stats.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let to_alcotest = List.map QCheck_alcotest.to_alcotest
let act i = Action.of_string (Printf.sprintf "T%d" i)

(* --- satellite 1: the backoff bound ------------------------------------ *)

(* The jitter is applied before the cap, so the delay can never exceed
   retry_delay_cap (the pre-fix code capped first and jittered after,
   overshooting the cap by up to 1.5x). Lower bound: half the uncapped
   exponential, unless the cap is below even that. *)
let prop_backoff_within_bounds =
  QCheck2.Test.make ~name:"backoff delay within [0.5*base*2^k, cap]" ~count:500
    QCheck2.Gen.(pair (int_range 0 12) (int_range 0 10_000))
    (fun (attempt, seed) ->
      let cap = Runtime.retry_delay_cap in
      let d = Runtime.backoff_delay (Rng.create seed) ~attempt in
      let exp = Runtime.retry_delay *. (2.0 ** float_of_int attempt) in
      d >= Float.min (0.5 *. exp) cap -. 1e-9 && d <= cap +. 1e-9)

(* --- waits-for graph --------------------------------------------------- *)

let test_waits_for_single_walk () =
  let g = Waits_for.create () in
  let alive _ = true in
  Waits_for.wait g ~waiter:(act 0) ~on:(act 1);
  Waits_for.wait g ~waiter:(act 1) ~on:(act 2);
  check_bool "chain is not a cycle" true
    (Waits_for.cycle_from g ~alive (act 0) = None);
  Waits_for.wait g ~waiter:(act 2) ~on:(act 0);
  (match Waits_for.cycle_from g ~alive (act 0) with
   | Some cycle ->
     check_int "three nodes" 3 (List.length cycle);
     check_bool "starts at the probe" true (Action.equal (List.hd cycle) (act 0))
   | None -> Alcotest.fail "cycle not found");
  (* A resolved (not-alive) member breaks the walk even if its stale edge
     is still in the graph. *)
  check_bool "dead member breaks the cycle" true
    (Waits_for.cycle_from g ~alive:(fun a -> not (Action.equal a (act 1))) (act 0)
     = None)

let prop_waits_for_n_cycle =
  QCheck2.Test.make ~name:"waits-for detects and loses N-cycles" ~count:60
    QCheck2.Gen.(pair (int_range 2 12) (int_range 0 1000))
    (fun (n, salt) ->
      let g = Waits_for.create () in
      let alive _ = true in
      let node i = act (salt + (i mod n)) in
      for i = 0 to n - 1 do
        Waits_for.wait g ~waiter:(node i) ~on:(node (i + 1))
      done;
      let found =
        match Waits_for.cycle_from g ~alive (node 0) with
        | Some cycle ->
          List.length cycle = n && Action.equal (List.hd cycle) (node 0)
        | None -> false
      in
      (* Clearing any one member's out-edge must break the cycle. *)
      Waits_for.clear g (node (salt mod n));
      found && Waits_for.cycle_from g ~alive (node 0) = None)

(* --- deadlock policies at the runtime --------------------------------- *)

(* Two transactions, two queues, opposite lock orders: T0 enqueues into q1
   then dequeues q2, T1 enqueues into q2 then dequeues q1. Under locking
   the Deq depends on the other's tentative Enq, so the second operations
   block on each other — a deliberate 2-cycle. *)
let queue_obj name =
  {
    Runtime.obj_name = name;
    obj_spec = Queue_type.spec;
    obj_relation = Static_dep.minimal Queue_type.spec ~max_len:4;
    obj_assignment = Runtime.default_queue_assignment ~n_sites:3;
    obj_members = None;
  }

let two_cycle_cfg ~deadlock ~seed =
  {
    Runtime.default_config with
    Runtime.scheme = Replicated.Locking;
    objects = [ queue_obj "q1"; queue_obj "q2" ];
    n_txns = 2;
    arrival_mean = 0.5;
    seed;
    script =
      (fun _ i ->
        if i = 0 then
          [
            { Runtime.target = "q1"; invocation = Queue_type.enq_inv "a" };
            { Runtime.target = "q2"; invocation = Queue_type.deq_inv };
          ]
        else
          [
            { Runtime.target = "q2"; invocation = Queue_type.enq_inv "b" };
            { Runtime.target = "q1"; invocation = Queue_type.deq_inv };
          ]);
    deadlock;
  }

let oracle_failures cfg outcome =
  Runtime.check_atomicity cfg outcome @ Runtime.check_common_order cfg outcome

let test_detect_breaks_two_cycle () =
  let cfg = two_cycle_cfg ~deadlock:Runtime.Detect ~seed:0 in
  let outcome = Runtime.run cfg in
  let m = outcome.Runtime.metrics in
  check_int "one victim" 1 m.Runtime.deadlock_aborts;
  check_int "the non-victim commits" 1 m.Runtime.committed;
  check_int "no retry-budget aborts" 0 m.Runtime.conflict_aborts;
  check_bool "oracle holds" true (oracle_failures cfg outcome = [])

let test_disabled_livelocks_until_backoff () =
  (* Without detection the cycle spins through the capped backoff until a
     retry budget runs out: many blocked waits, at least one conflict
     abort, no deadlock victims. The survivor can only commit because
     try_resolve saw the aborted blocker at its coordinator and re-broadcast
     the abort record over the blocker's lingering tentative entries. *)
  let cfg = two_cycle_cfg ~deadlock:Runtime.No_deadlock ~seed:0 in
  let outcome = Runtime.run cfg in
  let m = outcome.Runtime.metrics in
  check_int "no victims without a detector" 0 m.Runtime.deadlock_aborts;
  check_bool "retry budget exhausted" true (m.Runtime.conflict_aborts >= 1);
  check_bool "livelocked through the backoff" true (m.Runtime.blocked_waits > 4);
  check_int "survivor unblocked by abort re-broadcast" 1 m.Runtime.committed;
  check_bool "oracle holds" true (oracle_failures cfg outcome = [])

let test_wound_wait_preempts () =
  let cfg = two_cycle_cfg ~deadlock:Runtime.Wound_wait ~seed:0 in
  let outcome = Runtime.run cfg in
  let m = outcome.Runtime.metrics in
  check_int "all transactions terminal" 2 (m.Runtime.committed + m.Runtime.aborted);
  check_bool "a wound resolved the cycle" true (m.Runtime.deadlock_aborts >= 1);
  check_bool "the survivor commits" true (m.Runtime.committed >= 1);
  check_bool "oracle holds" true (oracle_failures cfg outcome = [])

(* N transactions in a ring of N queues, each enqueuing into its own and
   dequeuing its neighbor's: near-simultaneous arrivals form an N-cycle.
   The detector picks exactly one (youngest) victim; every non-victim
   commits. *)
let prop_detect_breaks_n_cycle =
  QCheck2.Test.make ~name:"detector breaks N-cycles, non-victims commit" ~count:12
    QCheck2.Gen.(pair (int_range 2 6) (int_range 0 100))
    (fun (n, seed) ->
      let objects = List.init n (fun i -> queue_obj (Printf.sprintf "q%d" i)) in
      let cfg =
        {
          Runtime.default_config with
          Runtime.scheme = Replicated.Locking;
          objects;
          n_txns = n;
          arrival_mean = 0.5;
          seed;
          script =
            (fun _ i ->
              [
                {
                  Runtime.target = Printf.sprintf "q%d" i;
                  invocation = Queue_type.enq_inv (Printf.sprintf "v%d" i);
                };
                {
                  Runtime.target = Printf.sprintf "q%d" ((i + 1) mod n);
                  invocation = Queue_type.deq_inv;
                };
              ]);
          deadlock = Runtime.Detect;
        }
      in
      let outcome = Runtime.run cfg in
      let m = outcome.Runtime.metrics in
      m.Runtime.deadlock_aborts = 1
      && m.Runtime.committed = n - 1
      && m.Runtime.conflict_aborts = 0
      && oracle_failures cfg outcome = [])

(* --- satellite 2: the stranding regression ----------------------------- *)

let killer_cfg ~termination ~seed =
  let profile =
    match Campaign.find_profile "coordinator_killer" with
    | Some p -> p
    | None -> Alcotest.fail "coordinator_killer profile missing"
  in
  {
    Runtime.default_config with
    Runtime.scheme = Replicated.Hybrid;
    n_txns = 120;
    seed;
    horizon = 40_000.0;
    install_faults =
      (fun net -> Atomrep_chaos.Nemesis.install profile.Campaign.nemesis net);
    termination;
  }

let test_killer_strands_without_termination () =
  (* Coordinators crashed inside the commit window leave their tentative
     entries on the repositories forever: nobody re-drives, nobody answers
     status queries, the step guards stop the resurrected driver. This is
     the historical give-up the tentpole replaces. *)
  let cfg = killer_cfg ~termination:Termination.Disabled ~seed:3 in
  let outcome = Runtime.run cfg in
  let m = outcome.Runtime.metrics in
  check_bool "tentative entries stranded forever" true
    (m.Runtime.stranded_entries > 0);
  check_int "no termination machinery ran" 0
    (m.Runtime.redrives + m.Runtime.coop_commits + m.Runtime.coop_aborts
    + m.Runtime.presumed_aborts + m.Runtime.orphans_reaped
    + m.Runtime.decision_log_writes);
  check_bool "oracle still holds (stranding is a liveness bug)" true
    (oracle_failures cfg outcome = [])

let test_cooperative_resolves_stranded () =
  let cfg = killer_cfg ~termination:Termination.Cooperative ~seed:3 in
  let outcome = Runtime.run cfg in
  let m = outcome.Runtime.metrics in
  check_int "every tentative entry resolved" 0 m.Runtime.stranded_entries;
  check_bool "the protocol did the resolving" true
    (m.Runtime.redrives + m.Runtime.coop_commits + m.Runtime.coop_aborts
     + m.Runtime.presumed_aborts + m.Runtime.orphans_reaped > 0);
  check_bool "decisions were logged before broadcasting" true
    (m.Runtime.decision_log_writes > 0);
  check_bool "oracle holds under cooperative termination" true
    (oracle_failures cfg outcome = [])

let test_presumed_abort_only_reduces_stranding () =
  let stranded termination =
    (Runtime.run (killer_cfg ~termination ~seed:3)).Runtime.metrics
      .Runtime.stranded_entries
  in
  let none = stranded Termination.Disabled in
  let presumed = stranded Termination.Presumed_abort_only in
  check_bool "recovery redrive alone already reduces stranding" true
    (presumed < none)

(* --- satellite 3: status re-broadcast reaches every reachable repo ----- *)

let make_obj ~seed =
  let engine = Engine.create ~seed in
  let net = Network.create engine ~n_sites:3 () in
  let obj =
    Replicated.create ~name:"q" ~spec:Queue_type.spec ~scheme:Replicated.Hybrid
      ~relation:(Static_dep.minimal Queue_type.spec ~max_len:3)
      ~assignment:(Runtime.default_queue_assignment ~n_sites:3)
      ~net ()
  in
  (engine, net, obj)

let execute_one engine obj ~clock ~txn invocation =
  let result = ref None in
  Replicated.execute obj ~txn ~clock invocation ~k:(fun r -> result := Some r);
  Engine.run engine;
  match !result with
  | Some (Replicated.Done _) -> ()
  | _ -> Alcotest.fail "operation did not complete"

let tentative_at obj ~site = List.length (Log.tentative (Replicated.repository_log obj ~site))

let committed_at obj ~site =
  List.length
    (View.committed (View.of_log Queue_type.spec (Replicated.repository_log obj ~site)))

let test_abort_rebroadcast_clears_all_reachable () =
  let engine, _net, obj = make_obj ~seed:7 in
  let clock = Lamport.create ~site:0 in
  let txn = Txn.create ~action:(act 0) ~begin_ts:(Lamport.tick clock) ~home_site:0 in
  execute_one engine obj ~clock ~txn (Queue_type.enq_inv "x");
  check_bool "a tentative entry exists somewhere" true
    (tentative_at obj ~site:0 + tentative_at obj ~site:1 + tentative_at obj ~site:2
    > 0);
  Replicated.broadcast_status obj (Log.Abort_record (act 0)) ~reachable_from:0;
  Engine.run engine;
  for site = 0 to 2 do
    check_int
      (Printf.sprintf "no tentative entry left at site %d" site)
      0 (tentative_at obj ~site)
  done

let test_commit_rebroadcast_commits_on_all_reachable () =
  let engine, _net, obj = make_obj ~seed:8 in
  let clock = Lamport.create ~site:0 in
  let txn = Txn.create ~action:(act 0) ~begin_ts:(Lamport.tick clock) ~home_site:0 in
  execute_one engine obj ~clock ~txn (Queue_type.enq_inv "x");
  Replicated.broadcast_status obj
    (Log.Commit_record (act 0, Lamport.tick clock))
    ~reachable_from:0;
  Engine.run engine;
  for site = 0 to 2 do
    (* The commit record piggybacks its action's entries, so even a
       repository whose final-quorum write was elsewhere ends up with the
       committed entry. *)
    check_int (Printf.sprintf "committed at site %d" site) 1 (committed_at obj ~site);
    check_int (Printf.sprintf "no tentative left at site %d" site) 0
      (tentative_at obj ~site)
  done

let test_rebroadcast_skips_crashed_site () =
  let engine, net, obj = make_obj ~seed:9 in
  let clock = Lamport.create ~site:0 in
  let txn = Txn.create ~action:(act 0) ~begin_ts:(Lamport.tick clock) ~home_site:0 in
  execute_one engine obj ~clock ~txn (Queue_type.enq_inv "x");
  let before = tentative_at obj ~site:2 in
  Network.crash net 2;
  Replicated.broadcast_status obj (Log.Abort_record (act 0)) ~reachable_from:0;
  Engine.run engine;
  check_int "up sites resolved" 0 (tentative_at obj ~site:0 + tentative_at obj ~site:1);
  check_int "crashed site untouched" before (tentative_at obj ~site:2);
  (* A later re-broadcast (what the orphan reaper does) finishes the job. *)
  Network.recover net 2;
  Replicated.broadcast_status obj (Log.Abort_record (act 0)) ~reachable_from:0;
  Engine.run engine;
  check_int "resolved after recovery" 0 (tentative_at obj ~site:2)

(* --- determinism witnesses --------------------------------------------- *)

let test_cooperative_replays_identically () =
  let run () = Runtime.run (killer_cfg ~termination:Termination.Cooperative ~seed:5) in
  let o1 = run () and o2 = run () in
  let m1 = o1.Runtime.metrics and m2 = o2.Runtime.metrics in
  check_int "committed" m1.Runtime.committed m2.Runtime.committed;
  check_int "aborted" m1.Runtime.aborted m2.Runtime.aborted;
  check_int "coop commits" m1.Runtime.coop_commits m2.Runtime.coop_commits;
  check_int "coop aborts" m1.Runtime.coop_aborts m2.Runtime.coop_aborts;
  check_int "presumed" m1.Runtime.presumed_aborts m2.Runtime.presumed_aborts;
  check_int "redrives" m1.Runtime.redrives m2.Runtime.redrives;
  check_int "orphans" m1.Runtime.orphans_reaped m2.Runtime.orphans_reaped;
  check_int "messages" m1.Runtime.msgs_sent m2.Runtime.msgs_sent;
  check_bool "identical histories" true (o1.Runtime.histories = o2.Runtime.histories)

let test_tracing_does_not_perturb_termination () =
  let cfg trace =
    { (killer_cfg ~termination:Termination.Cooperative ~seed:5) with Runtime.trace }
  in
  let off = Runtime.run (cfg None) in
  let on = Runtime.run (cfg (Some (Atomrep_obs.Trace.create ~n_sites:3 ()))) in
  check_int "committed identical" off.Runtime.metrics.Runtime.committed
    on.Runtime.metrics.Runtime.committed;
  check_int "stranded identical" off.Runtime.metrics.Runtime.stranded_entries
    on.Runtime.metrics.Runtime.stranded_entries;
  check_bool "identical histories" true (off.Runtime.histories = on.Runtime.histories)

let test_termination_diverges_only_by_protocol () =
  (* The mode off/on runs share the fault schedule (the commit-window hook
     fires unconditionally and draws nothing by itself); the counters
     witness that only the protocol's own actions differ. *)
  let off = (Runtime.run (killer_cfg ~termination:Termination.Disabled ~seed:5)).Runtime.metrics in
  let on = (Runtime.run (killer_cfg ~termination:Termination.Cooperative ~seed:5)).Runtime.metrics in
  check_int "disabled writes no decisions" 0 off.Runtime.decision_log_writes;
  check_int "disabled never redrives" 0 off.Runtime.redrives;
  check_bool "cooperative writes decisions" true (on.Runtime.decision_log_writes > 0);
  check_bool "stranding is the protocol's delta" true
    (off.Runtime.stranded_entries > on.Runtime.stranded_entries)

(* Every commit goes through the one terminal transition, so timely
   accounting cannot depend on which path committed — the driver's own
   commit, its vote drive, or a substitute coordinator: at the default
   (infinite) bound every commit is timely under every termination mode,
   and a finite bound only ever discounts commits. *)
let test_timely_counts_every_commit () =
  List.iter
    (fun termination ->
      let name = Termination.mode_name termination in
      let cfg = { Runtime.default_config with Runtime.n_txns = 60; seed = 3; termination } in
      let m = (Runtime.run cfg).Runtime.metrics in
      check_bool (name ^ " commits") true (m.Runtime.committed > 0);
      check_int (name ^ ": timely = committed at the default bound")
        m.Runtime.committed m.Runtime.timely_commits;
      let bounded =
        (Runtime.run { cfg with Runtime.timely_bound = 40.0 }).Runtime.metrics
      in
      check_int (name ^ ": the bound never changes what commits")
        m.Runtime.committed bounded.Runtime.committed;
      check_bool (name ^ ": timely <= committed under a finite bound") true
        (bounded.Runtime.timely_commits <= bounded.Runtime.committed
        && bounded.Runtime.timely_commits < m.Runtime.timely_commits))
    Termination.[ Disabled; Presumed_abort_only; Cooperative; Takeover ]

(* --- inertness: nothing fails, nothing to terminate -------------------- *)

(* With no fault injected, the orphan reaper and the takeover lease must
   change nothing. [Presumed_abort_only] is the reference: the same
   durable commit point and vote drive, with no reaper and no
   participant-driven rounds. [Cooperative] and [Takeover] must end every
   transaction exactly as it does, and win no lease, adopt nothing, fence
   no one and commit nothing cooperatively. ([Disabled] commits without
   the vote drive, a different message schedule, so only its counters
   are comparable.) *)
let test_termination_inert_without_faults () =
  List.iter
    (fun scheme ->
      for seed = 1 to 4 do
        let run termination =
          Runtime.run
            { Runtime.default_config with Runtime.scheme; seed; n_txns = 60; termination }
        in
        let reference = run Termination.Presumed_abort_only in
        List.iter
          (fun termination ->
            let o = run termination in
            let m = o.Runtime.metrics in
            let name =
              Printf.sprintf "%s seed %d %s" (Replicated.scheme_name scheme) seed
                (Termination.mode_name termination)
            in
            if termination <> Termination.Disabled then begin
              check_bool (name ^ ": per-transaction outcomes") true
                (o.Runtime.histories = reference.Runtime.histories);
              check_int (name ^ ": committed") reference.Runtime.metrics.Runtime.committed
                m.Runtime.committed
            end;
            check_int (name ^ ": leases") 0 m.Runtime.takeover_leases;
            check_int (name ^ ": adoptions") 0 m.Runtime.takeover_adoptions;
            check_int (name ^ ": fences") 0 m.Runtime.takeover_fenced;
            check_int (name ^ ": cooperative commits") 0 m.Runtime.coop_commits)
          Termination.[ Disabled; Cooperative; Takeover ]
      done)
    Replicated.[ Static; Hybrid; Locking ]

(* --- runs end when their work ends ---------------------------------------- *)

(* [atomrep simulate --txns 100]'s configuration (hybrid queue, seed 42,
   crash-recovery faults at [mtbf] with a 150 ms repair). *)
let simulate_cfg ?(n_sites = 3) ?(mtbf = 0.0) ?reconfig ?gray
    ?(termination = Termination.Disabled) () =
  {
    Runtime.default_config with
    Runtime.scheme = Replicated.Hybrid;
    n_txns = 100;
    n_sites;
    seed = 42;
    install_faults =
      (fun net -> if mtbf > 0.0 then Fault.crash_recover_all net ~mtbf ~mttr:150.0);
    objects = Runtime.queue_objects ~n_sites;
    reconfig;
    gray;
    termination;
  }

(* The sampler is a daemon, so it no longer stretches [duration] by a
   trailing tick: every metric of the hedged, demoted 5-site run is the
   same with and without it. *)
let test_sampler_leaves_metrics_alone () =
  let cfg = simulate_cfg ~n_sites:5 ~gray:Runtime.default_gray () in
  let bare = (Runtime.run cfg).Runtime.metrics in
  let sampled =
    (Runtime.run { cfg with Runtime.timeseries = Atomrep_obs.Timeseries.create ~width:500.0 () })
      .Runtime.metrics
  in
  check_bool "metrics identical, duration included" true (bare = sampled);
  check_bool "the run ends long before its horizon" true
    (bare.Runtime.duration < 10_000.0)

(* Each run ends before its horizon, and its transactions decide exactly
   as they did when the run went on to the horizon: the digest of the
   commit/abort events in trace order was taken from runs of the same
   configurations that simulated to 1,000,000 ms. *)
let test_runs_end_before_horizon () =
  List.iter
    (fun (name, cfg, digest) ->
      let tr = Atomrep_obs.Trace.create ~n_sites:cfg.Runtime.n_sites () in
      let m = (Runtime.run { cfg with Runtime.trace = Some tr }).Runtime.metrics in
      let outcomes = Buffer.create 1024 in
      Atomrep_obs.Trace.iter tr (fun e ->
          match e.Atomrep_obs.Trace.kind with
          | Atomrep_obs.Trace.Txn_commit { txn } -> Buffer.add_string outcomes (txn ^ ":c;")
          | Atomrep_obs.Trace.Txn_abort { txn; _ } -> Buffer.add_string outcomes (txn ^ ":a;")
          | _ -> ());
      check_bool (name ^ ": ends before the horizon") true
        (m.Runtime.duration < cfg.Runtime.horizon /. 100.0);
      Alcotest.(check string)
        (name ^ ": per-transaction outcomes") digest
        (Digest.to_hex (Digest.string (Buffer.contents outcomes))))
    [
      ( "hedge+demote",
        simulate_cfg ~gray:Runtime.default_gray (),
        "f054511c5d5209425a632945340be861" );
      ( "reconfigure, mtbf 400",
        simulate_cfg ~mtbf:400.0 ~reconfig:Runtime.default_reconfig (),
        "490cb0bc62acb39a75e409ba5d273617" );
      ( "cooperative, mtbf 400",
        simulate_cfg ~mtbf:400.0 ~termination:Termination.Cooperative (),
        "8328aaea5ce6a5080d10fbc94a02ae79" );
    ]

let suites =
  [
    ( "quiescence",
      [
        Alcotest.test_case "sampler leaves metrics alone" `Quick
          test_sampler_leaves_metrics_alone;
        Alcotest.test_case "runs end before the horizon" `Quick
          test_runs_end_before_horizon;
      ] );
    ( "termination",
      [
        Alcotest.test_case "waits-for single walk" `Quick test_waits_for_single_walk;
        Alcotest.test_case "detect breaks the 2-cycle" `Quick
          test_detect_breaks_two_cycle;
        Alcotest.test_case "disabled livelocks until backoff" `Quick
          test_disabled_livelocks_until_backoff;
        Alcotest.test_case "wound-wait preempts" `Quick test_wound_wait_preempts;
        Alcotest.test_case "killer strands without termination" `Slow
          test_killer_strands_without_termination;
        Alcotest.test_case "cooperative resolves stranded" `Slow
          test_cooperative_resolves_stranded;
        Alcotest.test_case "presumed-abort-only reduces stranding" `Slow
          test_presumed_abort_only_reduces_stranding;
        Alcotest.test_case "abort re-broadcast clears all reachable" `Quick
          test_abort_rebroadcast_clears_all_reachable;
        Alcotest.test_case "commit re-broadcast commits on all reachable" `Quick
          test_commit_rebroadcast_commits_on_all_reachable;
        Alcotest.test_case "re-broadcast skips crashed site" `Quick
          test_rebroadcast_skips_crashed_site;
        Alcotest.test_case "cooperative replays identically" `Slow
          test_cooperative_replays_identically;
        Alcotest.test_case "tracing does not perturb termination" `Slow
          test_tracing_does_not_perturb_termination;
        Alcotest.test_case "termination diverges only by protocol" `Slow
          test_termination_diverges_only_by_protocol;
        Alcotest.test_case "timely counts every commit path" `Quick
          test_timely_counts_every_commit;
        Alcotest.test_case "inert without faults" `Quick
          test_termination_inert_without_faults;
      ]
      @ to_alcotest
          [
            prop_backoff_within_bounds;
            prop_waits_for_n_cycle;
            prop_detect_breaks_n_cycle;
          ] );
  ]
