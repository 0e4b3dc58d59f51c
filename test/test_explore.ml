(* The sweep behind chaos, explore and the fixture replays: shrink
   determinism (fresh monitor state per attempt), domain-count
   independence of sweep results on every campaign base, and the pinned
   regression fixtures. *)

open Atomrep_replica
open Atomrep_chaos

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let profile name =
  match Campaign.find_profile name with
  | Some p -> p
  | None -> Alcotest.failf "%s profile missing" name

(* The ungated-rejoin bug, re-enabled: amnesiac sites rejoin without a resync
   quorum, so storm sweeps have real violations for the explorer to find. *)
let ungated_base = { Campaign.default_base with Runtime.ungated_rejoin = true }

let all_monitors = Monitors.registry

(* A task's reproducer tuple (its base holds closures, so tasks do not
   compare structurally). *)
let tuple (t : Campaign.task) =
  (Replicated.scheme_name t.scheme, t.profile.profile_name, t.seed, t.n_txns, t.intensity)

(* Shrinking replays monitor state from scratch on every candidate run, so
   shrinking the same seeded violation twice must land on the same minimal
   tuple with byte-identical failure witnesses — any bleed of monitor
   state across attempts would make the second pass judge candidates
   differently. *)
let test_shrink_twice_identical_witnesses () =
  let seeded =
    {
      Campaign.v_task =
        {
          base = ungated_base;
          scheme = Replicated.Static;
          profile = profile "storm";
          seed = 5;
          n_txns = 60;
          intensity = 2.0;
        };
      v_failures = [];
      v_postmortem = None;
      v_flags = [];
    }
  in
  (* The seeded tuple really violates before we shrink it. *)
  let _, failures = Campaign.run ~monitors:all_monitors seeded.Campaign.v_task in
  check_bool "seeded tuple violates" true (failures <> []);
  let first = Campaign.shrink ~monitors:all_monitors seeded in
  let second = Campaign.shrink ~monitors:all_monitors seeded in
  check_bool "same shrunk tuple" true
    (tuple first.Campaign.v_task = tuple second.Campaign.v_task);
  check_int "same shrunk seed" 5 first.Campaign.v_task.seed;
  check_bool "shrunk reproducer still fails" true (first.Campaign.v_failures <> []);
  Alcotest.(check (list (pair string string)))
    "identical failure witnesses" first.Campaign.v_failures
    second.Campaign.v_failures

(* Everything a sweep's callers print: the chaos table (cells, violations
   with their reproducer lines and failures) and the postmortem paths. *)
let printed results =
  let report = Campaign.report results in
  ( Format.asprintf "%a" Campaign.pp_report report,
    List.map (fun v -> Campaign.reproducer_line v) report.Campaign.violations )

(* The same sweep on one and on two domains prints the same. *)
let same_on_one_and_two_domains ?monitors ?max_shrinks what tasks =
  let on domains = printed (Campaign.sweep ~domains ?monitors ?max_shrinks ~flags:[] tasks) in
  let table1, lines1 = on 1 and table2, lines2 = on 2 in
  Alcotest.(check string) (what ^ ": same table") table1 table2;
  Alcotest.(check (list string)) (what ^ ": same reproducer lines") lines1 lines2;
  table1

(* Totals and the violation list (tuples, failures, shrunk forms) match
   between a sequential and a two-domain sweep of a violating space. *)
let test_sweep_domain_determinism () =
  let tasks =
    Campaign.grid ~base:ungated_base ~schemes:[ Replicated.Static ]
      ~profiles:[ profile "storm" ] ~seeds:10 ~intensities:[ 2.0 ] ~n_txns:40
  in
  let table =
    same_on_one_and_two_domains ~monitors:all_monitors ~max_shrinks:1 "ungated storm" tasks
  in
  check_bool "ungated sweep finds violations" true
    (not (String.ends_with ~suffix:"0 violation(s)\n" table))

(* The chaos-only bases — a precomputed open-loop plan over admission
   control, gray mitigation with hedged rounds, the epoch coordinator
   under permanent kills, durable WALs under storage faults — give
   identical results on one and two domains under the full catalogue. *)
let test_campaign_bases_domain_independent () =
  List.iter
    (fun (what, base, name) ->
      ignore
        (same_on_one_and_two_domains ~monitors:all_monitors what
           (Campaign.grid ~base ~schemes:Replicated.[ Static; Hybrid; Locking ]
              ~profiles:[ profile name ] ~seeds:3 ~intensities:[ 1.0 ] ~n_txns:30)))
    [
      ("overload", Campaign.overload_base, "overload_storm");
      ("gray", Campaign.gray_base, "gray_storm");
      ("reconfig", Campaign.reconfig_base, "kills");
      ("storage", Campaign.storage_base, "storage_storm");
    ]

(* The pinned reproducers, replayed the way [chaos --replay] runs them:
   the ungated-rejoin double-dequeue tuple must still violate under the
   monitor catalogue, with a reproducer line that replays it, and the
   takeover adopt+fence tuple must run clean while actually adopting and
   fencing. *)
let test_fixture_replays () =
  let results = Campaign.replay_fixtures ~monitors:all_monitors Campaign.fixtures in
  List.iter2
    (fun (f : Campaign.fixture) (r : Campaign.result) ->
      check_bool (f.f_name ^ " holds") true (Campaign.fixture_holds f r);
      check_bool (f.f_name ^ " verdict as expected") f.f_expect_violation
        (r.r_failures <> []);
      check_bool (f.f_name ^ " not shrunk") true
        (Option.map (fun (v : Campaign.violation) -> tuple v.v_task) r.r_violation
        = if r.r_failures = [] then None else Some (tuple f.f_task)))
    Campaign.fixtures results;
  Alcotest.(check (list string))
    "the violating fixture's reproducer line"
    [
      "atomrep chaos --repro --schemes static --profiles storm --seed 41 --txns 60 \
       --intensity 2 --ungated-rejoin --monitor all";
    ]
    (List.filter_map
       (fun (r : Campaign.result) -> Option.map Campaign.reproducer_line r.r_violation)
       results);
  check_bool "ungated_rejoin fixture is pinned" true
    (Campaign.find_fixture "ungated_rejoin" <> None);
  check_bool "unknown fixtures are not found" true
    (Campaign.find_fixture "no_such_fixture" = None)

(* A locking run with more than seven commits is judged by the full
   dynamic check, not by its commit order alone: this ungated storm run
   serializes in commit order, but not in every order precedes allows. *)
let test_locking_checked_in_every_order () =
  let _, failures =
    Campaign.run ~monitors:all_monitors
      {
        base = ungated_base;
        scheme = Replicated.Locking;
        profile = profile "storm";
        seed = 40;
        n_txns = 30;
        intensity = 1.0;
      }
  in
  check_bool "commit_atomicity violated" true
    (List.exists (fun (m, _) -> String.equal m "commit_atomicity") failures)

let suites =
  [
    ( "explore",
      [
        Alcotest.test_case "shrink twice, identical witnesses" `Quick
          test_shrink_twice_identical_witnesses;
        Alcotest.test_case "sweep report independent of domain count" `Quick
          test_sweep_domain_determinism;
        Alcotest.test_case "campaign bases independent of domain count" `Quick
          test_campaign_bases_domain_independent;
        Alcotest.test_case "regression fixtures replay" `Quick test_fixture_replays;
        Alcotest.test_case "long locking runs get the dynamic check" `Quick
          test_locking_checked_in_every_order;
      ] );
  ]
