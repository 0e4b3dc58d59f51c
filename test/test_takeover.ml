(* Coordinator takeover: the lease cell's monotone term algebra, the
   repository-level vote fence (stale drivers refused, certified records
   never), the no-divergence monitor over hand-built and chaos traces,
   the live stranded gauge's single-incr/single-decr lifecycle, the
   try_resolve re-broadcast dedup, and the determinism witnesses. *)

open Atomrep_history
open Atomrep_clock
open Atomrep_replica
module Termination = Atomrep_txn.Termination
module Takeover = Atomrep_txn.Takeover
module Campaign = Atomrep_chaos.Campaign
module Trace = Atomrep_obs.Trace
module Monitors = Atomrep_chaos.Monitors
module Spec_monitor = Atomrep_obs.Spec_monitor

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let to_alcotest = List.map QCheck_alcotest.to_alcotest
let act i = Action.of_string (Printf.sprintf "T%d" i)
let ts n = { Lamport.Timestamp.counter = n; site = 0 }

(* --- the lease cell ---------------------------------------------------- *)

let test_lease_terms_are_monotone () =
  let t = Takeover.create () in
  check_int "implicit term is 0" 0 (Takeover.term_of t (act 0));
  check_bool "no grant yet" true (Takeover.current t (act 0) = None);
  check_bool "first bid wins" true
    (Takeover.grant t (act 0) ~term:2 ~holder:1 = Takeover.Granted);
  check_bool "lower bid fenced with the winning grant" true
    (Takeover.grant t (act 0) ~term:1 ~holder:2
    = Takeover.Fenced { Takeover.g_term = 2; g_holder = 1 });
  check_bool "equal-term different holder fenced (first writer wins)" true
    (Takeover.grant t (act 0) ~term:2 ~holder:2
    = Takeover.Fenced { Takeover.g_term = 2; g_holder = 1 });
  check_bool "same holder re-ack is idempotent" true
    (Takeover.grant t (act 0) ~term:2 ~holder:1 = Takeover.Granted);
  check_bool "out-bidding takes the lease" true
    (Takeover.grant t (act 0) ~term:3 ~holder:2 = Takeover.Granted);
  check_int "term advanced" 3 (Takeover.term_of t (act 0));
  (* Cells are per-action: the contest above never touched act 1. *)
  check_int "other actions unaffected" 0 (Takeover.term_of t (act 1))

let test_lease_fences_only_stale_terms () =
  let t = Takeover.create () in
  check_bool "nothing granted, nothing fenced" true
    (Takeover.fences t (act 0) ~term:0 = None);
  ignore (Takeover.grant t (act 0) ~term:2 ~holder:1);
  check_bool "implicit term 0 is now stale" true
    (Takeover.fences t (act 0) ~term:0 = Some 2);
  check_bool "term below the grant is stale" true
    (Takeover.fences t (act 0) ~term:1 = Some 2);
  check_bool "the holder's own term passes" true
    (Takeover.fences t (act 0) ~term:2 = None);
  check_bool "higher terms pass" true (Takeover.fences t (act 0) ~term:3 = None)

let test_lease_forget_is_amnesia () =
  let t = Takeover.create () in
  ignore (Takeover.grant t (act 0) ~term:5 ~holder:2);
  Takeover.forget t;
  check_int "grants are volatile" 0 (Takeover.term_of t (act 0));
  check_bool "no fence survives a crash" true
    (Takeover.fences t (act 0) ~term:0 = None);
  (* Forgetting widens who may drive, never what can be decided: a lower
     term can now win again. *)
  check_bool "term 1 wins after amnesia" true
    (Takeover.grant t (act 0) ~term:1 ~holder:0 = Takeover.Granted)

(* --- the repository fence ---------------------------------------------- *)

let test_repo_fences_stale_vote_offers () =
  let r = Repository.create ~site:1 () in
  check_int "implicit lease term" 0 (Repository.takeover_term r (act 0));
  check_bool "lease granted at term 2" true
    (Repository.grant_takeover r (act 0) ~term:2 ~holder:1 = Takeover.Granted);
  check_int "term visible" 2 (Repository.takeover_term r (act 0));
  (* The original coordinator drives at its implicit term 0: refused
     without touching the log, answered with the granted term. *)
  check_bool "stale precommit fenced" true
    (Repository.offer ~term:0 r (Log.Precommit (act 0, ts 1))
    = Repository.E_fenced 2);
  check_bool "stale preabort fenced" true
    (Repository.offer ~term:1 r (Log.Preabort (act 0)) = Repository.E_fenced 2);
  check_bool "fenced vote left no evidence" true
    (Repository.status_of r (act 0) = Repository.E_none);
  (* The lease holder votes with its own term and the vote lands. *)
  check_bool "holder's vote accepted" true
    (Repository.offer ~term:2 r (Log.Precommit (act 0, ts 1))
    = Repository.E_precommit (ts 1))

let test_repo_never_fences_certified_records () =
  let r = Repository.create ~site:1 () in
  ignore (Repository.grant_takeover r (act 0) ~term:4 ~holder:2);
  ignore (Repository.grant_takeover r (act 1) ~term:4 ~holder:2);
  (* A certified decision from a stale driver still lands: refusing one
     could strand resolved state, and agreement rests on vote stickiness,
     not on the fence. *)
  check_bool "stale commit record accepted" true
    (Repository.offer ~term:0 r (Log.Commit_record (act 0, ts 3))
    = Repository.E_committed (ts 3));
  check_bool "stale abort record accepted" true
    (Repository.offer ~term:0 r (Log.Abort_record (act 1)) = Repository.E_aborted);
  (* Unfenced offers (the legacy PR-5 paths pass no term) are never
     refused by the lease either. *)
  let r2 = Repository.create ~site:0 () in
  ignore (Repository.grant_takeover r2 (act 2) ~term:9 ~holder:1);
  check_bool "termless vote offer is unfenced" true
    (Repository.offer r2 (Log.Precommit (act 2, ts 1)) = Repository.E_precommit (ts 1))

let test_repo_amnesia_forgets_grants () =
  let r = Repository.create ~site:2 () in
  ignore (Repository.grant_takeover r (act 0) ~term:7 ~holder:1);
  Repository.amnesia r;
  check_int "lease state is volatile" 0 (Repository.takeover_term r (act 0));
  check_bool "votes pass at the implicit term again" true
    (Repository.offer ~term:0 r (Log.Precommit (act 0, ts 1))
    = Repository.E_precommit (ts 1))

(* --- the no-divergence monitor ----------------------------------------- *)

let decide tr ~txn ~site ~committed =
  ignore (Trace.emit tr ~site (Trace.Txn_decide { txn; site; committed }))

(* The catalogue's specs are instantiated with a {cfg; outcome} context
   that no_divergence never reads, and an outcome comes only from a run;
   one cheap real run supplies it. *)
let tiny_ctx =
  lazy
    (let cfg = { Runtime.default_config with Runtime.n_txns = 2; horizon = 5_000.0 } in
     { Monitors.cfg; outcome = Runtime.run cfg })

let divergences ?from_id tr =
  match Monitors.find "no_divergence" with
  | Some e -> Spec_monitor.run ?from_id e.Monitors.e_spec (Lazy.force tiny_ctx) tr
  | None -> Alcotest.fail "no_divergence missing from the monitor catalogue"

(* Per-transaction decision tallies, in first-decision order: an
   independent count of the Txn_decide events beside the monitor. *)
type verdict = {
  d_txn : string;
  d_commits : int;
  d_aborts : int;
  d_sites : int list; (* deciding sites, first-decision order *)
}

let decisions tr =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Txn_decide { txn; site; committed } ->
        let v =
          match Hashtbl.find_opt tbl txn with
          | Some v -> v
          | None ->
            order := txn :: !order;
            { d_txn = txn; d_commits = 0; d_aborts = 0; d_sites = [] }
        in
        let v =
          if committed then { v with d_commits = v.d_commits + 1 }
          else { v with d_aborts = v.d_aborts + 1 }
        in
        let v =
          if List.mem site v.d_sites then v else { v with d_sites = v.d_sites @ [ site ] }
        in
        Hashtbl.replace tbl txn v
      | _ -> ())
    (Trace.events tr);
  List.rev_map (fun txn -> Hashtbl.find tbl txn) !order

let test_monitor_accepts_redecisions () =
  let tr = Trace.create ~n_sites:3 () in
  decide tr ~txn:"T0" ~site:0 ~committed:true;
  decide tr ~txn:"T0" ~site:2 ~committed:true;
  decide tr ~txn:"T1" ~site:1 ~committed:false;
  (match decisions tr with
   | [ v0; v1 ] ->
     check_bool "T0 first" true (v0.d_txn = "T0");
     check_int "T0 commit verdicts" 2 v0.d_commits;
     check_int "T0 abort verdicts" 0 v0.d_aborts;
     check_bool "T0 deciders in first-decision order" true (v0.d_sites = [ 0; 2 ]);
     check_int "T1 abort verdicts" 1 v1.d_aborts
   | vs -> Alcotest.fail (Printf.sprintf "expected 2 verdicts, got %d" (List.length vs)));
  check_bool "re-deciding the same outcome is legal" true (divergences tr = [])

let test_monitor_flags_mixed_verdicts () =
  let tr = Trace.create ~n_sites:3 () in
  decide tr ~txn:"T0" ~site:0 ~committed:true;
  decide tr ~txn:"T1" ~site:1 ~committed:true;
  decide tr ~txn:"T0" ~site:2 ~committed:false;
  (match divergences tr with
   | [ v ] ->
     check_bool "the mixed transaction is named" true
       (v.Spec_monitor.v_monitor = "no_divergence(T0)")
   | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs)))

let test_monitor_from_id_scopes_runs () =
  (* Two runs sharing a bus can reuse transaction names; from_id scopes
     the fold to the second run so the first run's opposite verdict does
     not read as divergence. *)
  let tr = Trace.create ~n_sites:3 () in
  decide tr ~txn:"T0" ~site:0 ~committed:true;
  let mark = Trace.length tr in
  decide tr ~txn:"T0" ~site:1 ~committed:false;
  check_int "unscoped fold sees the collision" 1 (List.length (divergences tr));
  check_bool "scoped fold is clean" true (divergences ~from_id:mark tr = [])

(* --- the takeover runtime under the coordinator killer ----------------- *)

let killer_cfg ?trace ~takeover ~seed () =
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
    termination = (if takeover then Termination.Takeover else Termination.Cooperative);
    deadlock = Runtime.Detect;
    trace;
  }

let oracle_failures cfg outcome =
  Runtime.check_atomicity cfg outcome @ Runtime.check_common_order cfg outcome

let test_takeover_adopts_and_fences () =
  (* Seed 20 is a pinned reproducer where a healed original coordinator
     returns mid-takeover: the run must show adoptions (a lease holder
     finished someone else's transaction) and fences (a stale driver was
     refused and halted), with no divergence and the oracles intact. *)
  let tr = Trace.create ~n_sites:3 () in
  let cfg = killer_cfg ~trace:tr ~takeover:true ~seed:20 () in
  let outcome = Runtime.run cfg in
  let m = outcome.Runtime.metrics in
  check_bool "leases were won" true (m.Runtime.takeover_leases > 0);
  check_bool "in-doubt transactions were adopted" true
    (m.Runtime.takeover_adoptions > 0);
  check_bool "a stale driver was fenced" true (m.Runtime.takeover_fenced > 0);
  check_int "no tentative entry stranded" 0 m.Runtime.stranded_entries;
  check_bool "no two drivers diverged" true (divergences tr = []);
  check_bool "oracle holds" true (oracle_failures cfg outcome = [])

let test_stranded_gauge_lifecycle () =
  (* The live gauge is incremented once when a transaction first strands
     and decremented once when an external driver finishes it. A
     double-decrement (adoption racing the orphan reaper, re-entrant
     cooperative termination) would drive it negative; a missed decrement
     leaves it positive. Either way it cannot end at zero across seeds
     that exercise both adoption and reaping. *)
  let adoptions = ref 0 and orphans = ref 0 in
  for seed = 0 to 4 do
    let m =
      (Runtime.run (killer_cfg ~takeover:true ~seed ())).Runtime.metrics
    in
    check_int (Printf.sprintf "gauge drained at seed %d" seed) 0
      m.Runtime.stranded_live;
    check_int (Printf.sprintf "no stranding at seed %d" seed) 0
      m.Runtime.stranded_entries;
    adoptions := !adoptions + m.Runtime.takeover_adoptions;
    orphans := !orphans + m.Runtime.orphans_reaped
  done;
  check_bool "the sweep exercised adoption" true (!adoptions > 0);
  check_bool "the sweep exercised the reaper" true (!orphans > 0)

let test_rebroadcast_dedup_suppresses_repeats () =
  (* try_resolve used to re-broadcast a blocker's status to every site on
     every retry; the dedup sends each (blocker, site) pair once and
     counts the rest. Independent of takeover: pin it on the plain
     cooperative run too. *)
  let suppressed takeover =
    (Runtime.run (killer_cfg ~takeover ~seed:3 ())).Runtime.metrics
      .Runtime.rebroadcasts_suppressed
  in
  check_bool "duplicates suppressed under cooperative termination" true
    (suppressed false > 0);
  check_bool "duplicates suppressed under takeover" true (suppressed true > 0)

let test_takeover_replays_identically () =
  let run () =
    let outcome = Runtime.run (killer_cfg ~takeover:true ~seed:2 ()) in
    (outcome.Runtime.metrics, outcome.Runtime.histories)
  in
  let m1, h1 = run () and m2, h2 = run () in
  check_bool "metrics identical" true (m1 = m2);
  check_bool "histories identical" true (h1 = h2)

(* --- properties: no divergence under the storm ------------------------- *)

let takeover_storm () =
  match Campaign.find_profile "takeover_storm" with
  | Some p -> p
  | None -> Alcotest.fail "takeover_storm profile missing"

let prop_no_divergence_under_storm =
  QCheck2.Test.make ~name:"takeover storm never diverges" ~count:8
    QCheck2.Gen.(pair (int_range 0 200) (int_range 5 20))
    (fun (seed, intensity10) ->
      let tr = Trace.create ~n_sites:3 () in
      let cfg =
        Campaign.configure ~trace:tr
          {
            base = Campaign.takeover_base;
            scheme = Replicated.Hybrid;
            profile = takeover_storm ();
            seed;
            n_txns = 40;
            intensity = float_of_int intensity10 /. 10.0;
          }
      in
      let outcome = Runtime.run cfg in
      (* Every transaction's verdicts are one-sided, the monitor agrees,
         and the run stays atomic. *)
      List.for_all
        (fun v -> v.d_commits = 0 || v.d_aborts = 0)
        (decisions tr)
      && divergences tr = []
      && oracle_failures cfg outcome = [])

let prop_storm_gauge_drains =
  QCheck2.Test.make ~name:"storm leaves no live stranded entries" ~count:6
    QCheck2.Gen.(int_range 0 100)
    (fun seed ->
      let cfg =
        Campaign.configure
          {
            base = Campaign.takeover_base;
            scheme = Replicated.Hybrid;
            profile = takeover_storm ();
            seed;
            n_txns = 40;
            intensity = 1.0;
          }
      in
      let m = (Runtime.run cfg).Runtime.metrics in
      m.Runtime.stranded_live = 0 && m.Runtime.stranded_entries = 0)

let suites =
  [
    ( "takeover",
      [
        Alcotest.test_case "lease terms are monotone" `Quick
          test_lease_terms_are_monotone;
        Alcotest.test_case "lease fences only stale terms" `Quick
          test_lease_fences_only_stale_terms;
        Alcotest.test_case "lease forget is amnesia" `Quick
          test_lease_forget_is_amnesia;
        Alcotest.test_case "repository fences stale vote offers" `Quick
          test_repo_fences_stale_vote_offers;
        Alcotest.test_case "repository never fences certified records" `Quick
          test_repo_never_fences_certified_records;
        Alcotest.test_case "repository amnesia forgets grants" `Quick
          test_repo_amnesia_forgets_grants;
        Alcotest.test_case "monitor accepts re-decisions" `Quick
          test_monitor_accepts_redecisions;
        Alcotest.test_case "monitor flags mixed verdicts" `Quick
          test_monitor_flags_mixed_verdicts;
        Alcotest.test_case "monitor from_id scopes runs" `Quick
          test_monitor_from_id_scopes_runs;
        Alcotest.test_case "takeover adopts and fences" `Slow
          test_takeover_adopts_and_fences;
        Alcotest.test_case "stranded gauge lifecycle" `Slow
          test_stranded_gauge_lifecycle;
        Alcotest.test_case "re-broadcast dedup suppresses repeats" `Slow
          test_rebroadcast_dedup_suppresses_repeats;
        Alcotest.test_case "takeover replays identically" `Slow
          test_takeover_replays_identically;
      ]
      @ to_alcotest [ prop_no_divergence_under_storm; prop_storm_gauge_drains ] );
  ]
