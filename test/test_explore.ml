(* The seed-sweep explorer: shrink determinism (fresh monitor state per
   attempt), domain-count independence of sweep reports, and the pinned
   regression fixtures. *)

open Atomrep_replica
open Atomrep_chaos

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let storm () =
  match Campaign.find_profile "storm" with
  | Some p -> p
  | None -> Alcotest.fail "storm profile missing"

(* The PR 1 bug, re-enabled: amnesiac sites rejoin without a resync
   quorum, so storm sweeps have real violations for the explorer to find. *)
let ungated_base = { Campaign.default_base with Runtime.ungated_rejoin = true }

let all_monitors = Monitors.registry

(* Shrinking replays monitor state from scratch on every candidate run, so
   shrinking the same seeded violation twice must land on the same minimal
   tuple with byte-identical failure witnesses — any bleed of monitor
   state across attempts would make the second pass judge candidates
   differently. *)
let test_shrink_twice_identical_witnesses () =
  let seeded =
    {
      Campaign.v_scheme = Replicated.Static;
      v_profile = storm ();
      v_seed = 5;
      v_n_txns = 60;
      v_intensity = 2.0;
      v_failures = [];
      v_postmortem = None;
      v_flags = None;
    }
  in
  (* The seeded tuple really violates before we shrink it. *)
  let _, failures =
    Campaign.reproduce ~base:ungated_base ~monitors:all_monitors
      ~scheme:seeded.Campaign.v_scheme ~profile:seeded.Campaign.v_profile
      ~seed:seeded.Campaign.v_seed ~n_txns:seeded.Campaign.v_n_txns
      ~intensity:seeded.Campaign.v_intensity ()
  in
  check_bool "seeded tuple violates" true (failures <> []);
  let first = Campaign.shrink ~base:ungated_base ~monitors:all_monitors seeded in
  let second = Campaign.shrink ~base:ungated_base ~monitors:all_monitors seeded in
  check_int "same shrunk txn count" first.Campaign.v_n_txns second.Campaign.v_n_txns;
  check_bool "same shrunk intensity" true
    (first.Campaign.v_intensity = second.Campaign.v_intensity);
  check_int "same shrunk seed" first.Campaign.v_seed second.Campaign.v_seed;
  check_bool "shrunk reproducer still fails" true (first.Campaign.v_failures <> []);
  Alcotest.(check (list (pair string string)))
    "identical failure witnesses" first.Campaign.v_failures
    second.Campaign.v_failures

(* The sweep report is independent of how many domains ran it: totals and
   the violation list (tuples, failures, shrunk forms) must match between
   a sequential and a two-domain sweep of the same space. *)
let test_sweep_domain_determinism () =
  let sweep domains =
    Explore.sweep ~domains ~n_txns:40 ~max_shrinks:1 ~base:ungated_base
      ~schemes:[ Replicated.Static ]
      ~profiles:[ storm () ]
      ~seeds:10 ~intensities:[ 2.0 ] ()
  in
  let seq = sweep 1 and par = sweep 2 in
  check_int "one domain" 1 seq.Explore.x_domains;
  check_int "two domains" 2 par.Explore.x_domains;
  check_int "same task count" seq.Explore.x_tasks par.Explore.x_tasks;
  check_int "same committed total" seq.Explore.x_committed par.Explore.x_committed;
  check_int "same aborted total" seq.Explore.x_aborted par.Explore.x_aborted;
  check_int "same shrunk count" seq.Explore.x_shrunk par.Explore.x_shrunk;
  let tuple v =
    ( Replicated.scheme_name v.Campaign.v_scheme,
      v.Campaign.v_seed,
      v.Campaign.v_n_txns,
      v.Campaign.v_intensity,
      v.Campaign.v_failures )
  in
  check_bool "ungated sweep finds violations" true (seq.Explore.x_violations <> []);
  check_bool "identical violation lists" true
    (List.map tuple seq.Explore.x_violations
    = List.map tuple par.Explore.x_violations)

(* The pinned reproducers: the PR 1 double-dequeue tuple must still
   violate under the monitor catalogue, and the takeover adopt+fence tuple
   must run clean while actually adopting and fencing. *)
let test_fixture_replays () =
  List.iter
    (fun (f : Explore.fixture) ->
      let r = Explore.replay f in
      check_bool (f.Explore.f_name ^ " holds") true r.Explore.rr_ok;
      if f.Explore.f_expect_violation then
        check_bool
          (f.Explore.f_name ^ " reproduces its violation")
          true
          (r.Explore.rr_failures <> []))
    Explore.fixtures;
  check_bool "ungated_rejoin fixture is pinned" true
    (Explore.find_fixture "ungated_rejoin" <> None);
  check_bool "unknown fixtures are not found" true
    (Explore.find_fixture "no_such_fixture" = None)

(* A locking run with more than seven commits is judged by the full
   dynamic check, not by its commit order alone: this ungated storm run
   serializes in commit order, but not in every order precedes allows. *)
let test_locking_checked_in_every_order () =
  let _, failures =
    Campaign.reproduce ~base:ungated_base ~monitors:all_monitors
      ~scheme:Replicated.Locking ~profile:(storm ()) ~seed:40 ~n_txns:30
      ~intensity:1.0 ()
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
        Alcotest.test_case "regression fixtures replay" `Quick test_fixture_replays;
        Alcotest.test_case "long locking runs get the dynamic check" `Quick
          test_locking_checked_in_every_order;
      ] );
  ]
