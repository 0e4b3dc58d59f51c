(* Online quorum reconfiguration: the heartbeat failure detector, the
   epoch layer and its cross-epoch intersection invariant, the
   availability-maximizing reassignment policy, and the runtime
   coordinator — including the negative paths: static atomicity refuses
   reassignment (Theorem 6 territory), a non-intersecting handoff with the
   barrier disabled fails closed, and an unsafe handoff that skips both is
   caught by the atomicity oracles and shrunk to a reproducer. *)

open Atomrep_spec
open Atomrep_core
open Atomrep_stats
open Atomrep_quorum
open Atomrep_sim
open Atomrep_replica
open Atomrep_chaos

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- failure detector --- *)

(* Keep probe RPCs far from their timeout so a healthy site never misses. *)
let detector_net engine ~n_sites =
  Network.create engine ~n_sites ~latency_mean:2.0 ()

let test_detector_no_false_suspicion () =
  let engine = Engine.create ~seed:7 in
  let net = detector_net engine ~n_sites:5 in
  let det = Detector.start net ~rng:(Rng.split (Engine.rng engine)) () in
  Engine.run ~until:5_000.0 engine;
  check_int "no churn without faults" 0 (Detector.transitions det);
  Alcotest.(check (list int)) "everyone live" [ 0; 1; 2; 3; 4 ] (Detector.live det)

let test_detector_bounded_detection () =
  let engine = Engine.create ~seed:3 in
  let net = detector_net engine ~n_sites:4 in
  let det = Detector.start net ~rng:(Rng.split (Engine.rng engine)) () in
  Fault.kill net ~site:3 ~at:200.0;
  let before = ref true and after = ref false in
  Engine.schedule_at engine ~time:190.0 (fun () -> before := Detector.suspected det 3);
  (* Worst case: one in-flight probe still succeeds, then [suspect_after]
     probes each cost at most a 1.25-jittered period plus the timeout:
     (3 + 1) * (50 + 25) = 300 after the kill. *)
  Engine.schedule_at engine ~time:600.0 (fun () -> after := Detector.suspected det 3);
  Engine.run ~until:700.0 engine;
  check_bool "not suspected before the kill" false !before;
  check_bool "suspected within the detection bound" true !after;
  check_bool "dropped from the live view" true (not (List.mem 3 (Detector.live det)))

let test_detector_clears_after_recovery () =
  let engine = Engine.create ~seed:5 in
  let net = detector_net engine ~n_sites:3 in
  let det = Detector.start net ~rng:(Rng.split (Engine.rng engine)) () in
  Engine.schedule_at engine ~time:200.0 (fun () -> Network.crash net 1);
  Engine.schedule_at engine ~time:800.0 (fun () -> Network.recover net 1);
  let down = ref false and back = ref true in
  Engine.schedule_at engine ~time:700.0 (fun () -> down := Detector.suspected det 1);
  Engine.schedule_at engine ~time:1_000.0 (fun () -> back := Detector.suspected det 1);
  Engine.run ~until:1_100.0 engine;
  check_bool "suspected while down" true !down;
  check_bool "cleared by the first reply after recovery" false !back;
  (* One raise plus one clear. *)
  check_int "transition count" 2 (Detector.transitions det)

let test_detector_deterministic_replay () =
  let timeline seed =
    let engine = Engine.create ~seed in
    let net = detector_net engine ~n_sites:4 in
    let det = Detector.start net ~rng:(Rng.split (Engine.rng engine)) () in
    Fault.kill net ~site:2 ~at:300.0;
    Engine.schedule_at engine ~time:900.0 (fun () -> Network.recover net 2);
    let samples = ref [] in
    List.iter
      (fun time ->
        Engine.schedule_at engine ~time (fun () ->
            samples := Detector.suspected det 2 :: !samples))
      [ 250.0; 500.0; 700.0; 1_000.0; 1_200.0 ];
    Engine.run ~until:1_300.0 engine;
    (List.rev !samples, Detector.transitions det)
  in
  check_bool "same seed, same suspicion timeline" true (timeline 11 = timeline 11);
  let samples, _ = timeline 11 in
  check_bool "timeline saw the suspicion" true (List.mem true samples)

let test_detector_dead_monitor_does_not_poison () =
  let engine = Engine.create ~seed:9 in
  let net = detector_net engine ~n_sites:3 in
  let det = Detector.start net ~rng:(Rng.split (Engine.rng engine)) () in
  (* With the monitor itself down, timed-out probes must not be counted. *)
  Engine.schedule_at engine ~time:100.0 (fun () -> Network.crash net 0);
  Engine.run ~until:2_000.0 engine;
  check_int "no suspicion raised by a dead monitor" 0 (Detector.transitions det)

(* --- epochs --- *)

let even_assignment ~n_sites i f =
  Assignment.make ~n_sites
    [
      ("Enq", { Assignment.initial = i; final = f });
      ("Deq", { Assignment.initial = i; final = f });
    ]

let queue_constraints =
  Op_constraint.of_relation (Static_dep.minimal Queue_type.spec ~max_len:4)

let test_epoch_make_validates () =
  let a = even_assignment ~n_sites:3 2 2 in
  let e = Epoch.make ~number:1 ~members:[ 2; 1; 0; 1 ] ~assignment:a in
  Alcotest.(check (list int)) "members deduplicated and sorted" [ 0; 1; 2 ]
    (Epoch.members e);
  check_int "number" 1 (Epoch.number e);
  check_bool "size mismatch rejected" true
    (try
       ignore (Epoch.make ~number:1 ~members:[ 0; 1 ] ~assignment:a);
       false
     with Invalid_argument _ -> true)

let test_epoch_intersects () =
  let constraints =
    [ { Op_constraint.dependent = "Deq"; supplier = "Enq"; labels = [ "Ok" ] } ]
  in
  let prev =
    Epoch.make ~number:0 ~members:[ 0; 1; 2 ] ~assignment:(even_assignment ~n_sites:3 2 2)
  in
  let same_members =
    Epoch.make ~number:1 ~members:[ 0; 1; 2 ] ~assignment:(even_assignment ~n_sites:3 2 2)
  in
  (* u = 3, and 2 + 2 > 3 in both directions. *)
  check_bool "overlapping members intersect" true
    (Epoch.intersects ~constraints ~prev ~next:same_members);
  let disjoint =
    Epoch.make ~number:1 ~members:[ 3; 4; 5 ] ~assignment:(even_assignment ~n_sites:3 2 2)
  in
  (* u = 6 and 2 + 2 < 6: the handoff needs the state-transfer barrier. *)
  check_bool "disjoint members do not intersect" false
    (Epoch.intersects ~constraints ~prev ~next:disjoint);
  let one_foot =
    Epoch.make ~number:1 ~members:[ 1; 2; 3; 4 ]
      ~assignment:(even_assignment ~n_sites:4 4 4)
  in
  (* u = 5 and 4 + 2 > 5 both ways: big quorums bridge a partial overlap. *)
  check_bool "wide quorums bridge overlap" true
    (Epoch.intersects ~constraints ~prev ~next:one_foot)

let test_repository_epoch_monotone_and_stable () =
  let r = Repository.create ~site:0 () in
  check_int "starts at epoch 0" 0 (Repository.epoch r);
  Repository.advance_epoch r 2;
  check_int "advances to newer" 2 (Repository.epoch r);
  Repository.advance_epoch r 1;
  check_int "ignores older" 2 (Repository.epoch r);
  Repository.amnesia r;
  (* Epoch membership is stable state: an amnesiac site must not rejoin a
     configuration it had already left. *)
  check_int "survives crash-with-amnesia" 2 (Repository.epoch r)

(* --- reassignment policy --- *)

let test_reassign_plan () =
  (match
     Reassign.plan ~live:[ 4; 1; 3 ] ~ops:[ "Enq"; "Deq" ]
       ~constraints:queue_constraints ()
   with
  | None -> Alcotest.fail "expected a plan over three live sites"
  | Some (members, a) ->
    Alcotest.(check (list int)) "members are the live sites" [ 1; 3; 4 ] members;
    check_bool "assignment satisfies the constraints" true
      (Assignment.satisfies a queue_constraints));
  check_bool "no plan from an empty live view" true
    (Reassign.plan ~live:[] ~ops:[ "Enq"; "Deq" ] ~constraints:queue_constraints ()
     = None)

(* A locking object intersects quorums on the relation it locks on, the
   dynamic one (Theorem 10): besides the static pairs, every Enq must see
   every earlier Enq. Timestamp schemes keep the configured static
   relation, which has no Enq/Enq pair. *)
let test_locking_plans_on_dynamic_relation () =
  let obj scheme =
    let net = Network.create (Engine.create ~seed:1) ~n_sites:5 () in
    Replicated.create ~name:"q" ~spec:Queue_type.spec ~scheme
      ~relation:(Static_dep.minimal Queue_type.spec)
      ~assignment:(Runtime.default_queue_assignment ~n_sites:5) ~net ()
  in
  let enq_enq (c : Op_constraint.t) = c.dependent = "Enq" && c.supplier = "Enq" in
  let locking = Replicated.constraints (obj Replicated.Locking) in
  check_bool "locking: initial(Enq) x final(Enq)" true (List.exists enq_enq locking);
  check_bool "hybrid: no Enq/Enq constraint" false
    (List.exists enq_enq (Replicated.constraints (obj Replicated.Hybrid)));
  match
    Reassign.plan ~live:[ 0; 1; 3; 4 ] ~ops:[ "Enq"; "Deq" ] ~constraints:locking ()
  with
  | None -> Alcotest.fail "expected a plan over four live sites"
  | Some (_, a) ->
    let enq = Assignment.sizes_of a "Enq" in
    check_bool "Enq quorums intersect each other" true (enq.initial + enq.final > 4);
    check_bool "plan satisfies the locking constraints" true
      (Assignment.satisfies a locking)

(* --- runtime coordinator: positive and negative paths --- *)

let kills_profile =
  match Campaign.find_profile "kills" with
  | Some p -> p
  | None -> Alcotest.fail "kills profile missing"

let run_reconfig_cell ~scheme ~seed =
  let cfg =
    Campaign.configure
      {
        base = Campaign.reconfig_base;
        scheme;
        profile = kills_profile;
        seed;
        n_txns = 25;
        intensity = 1.0;
      }
  in
  let outcome = Runtime.run cfg in
  let failures =
    Runtime.check_atomicity cfg outcome @ Runtime.check_common_order cfg outcome
  in
  (outcome.Runtime.metrics, failures)

let test_static_refuses_reconfiguration () =
  let m, failures = run_reconfig_cell ~scheme:Replicated.Static ~seed:3 in
  check_int "no handoffs under static atomicity" 0 m.Runtime.reconfigs;
  check_bool "refusals recorded" true (m.Runtime.reconfigs_refused > 0);
  check_int "epoch never advances" 0 m.Runtime.final_epoch;
  check_bool "still atomic" true (failures = [])

let test_hybrid_reconfigures_and_stays_atomic () =
  let m, failures = run_reconfig_cell ~scheme:Replicated.Hybrid ~seed:3 in
  check_bool "handoffs happened" true (m.Runtime.reconfigs > 0);
  check_bool "epoch advanced" true (m.Runtime.final_epoch >= 1);
  check_bool "detector saw the kills" true (m.Runtime.suspicion_transitions > 0);
  check_bool "still atomic" true (failures = [])

(* A six-site cluster whose queue lives on members {0,1,2}; when site 2
   dies the override proposes the disjoint member set {3,4,5}, so the only
   sound handoff is the state-transfer barrier. *)
let disjoint_base mutant =
  let three = Runtime.default_queue_assignment ~n_sites:3 in
  {
    Campaign.reconfig_base with
    Runtime.n_sites = 6;
    mutant;
    (* Fast arrivals commit plenty of queue state in epoch 0 before the
       kill triggers the handoff — the state an unsafe switch strands. *)
    arrival_mean = 50.0;
    objects =
      [
        {
          Runtime.obj_name = "queue";
          obj_spec = Queue_type.spec;
          obj_relation = Static_dep.minimal Queue_type.spec ~max_len:4;
          obj_assignment = three;
          obj_members = Some [ 0; 1; 2 ];
        };
      ];
    reconfig =
      Some
        {
          Runtime.plan_override =
            Some
              (fun ~live ~n_sites:_ ->
                if List.for_all (fun s -> List.mem s live) [ 3; 4; 5 ] then
                  Some ([ 3; 4; 5 ], three)
                else None);
        };
  }

(* A campaign on [base]: every seed below [seeds] for each scheme and
   profile, 30 transactions a run, violations shrunk. *)
let sweep ?(schemes = [ Replicated.Hybrid ]) ~base ~profiles ~seeds () =
  Campaign.report
    (Campaign.sweep ~flags:[]
       (Campaign.grid ~base ~schemes ~profiles ~seeds ~intensities:[ 1.0 ] ~n_txns:30))

let kill_member_profile =
  {
    Campaign.profile_name = "kill-member";
    nemesis = Nemesis.Staggered_kill { start = 600.0; gap = 1.0; victims = [ 2 ] };
  }

let test_unsafe_handoff_caught_and_shrunk () =
  let base = disjoint_base (Some Replicated.No_barrier) in
  let report = sweep ~base ~profiles:[ kill_member_profile ] ~seeds:6 () in
  check_bool "oracles catch the stranded epoch-0 state" true
    (report.Campaign.violations <> []);
  List.iter
    (fun v ->
      check_bool "shrunk reproducer still fails" true (v.Campaign.v_failures <> []);
      check_bool "shrunk within the original size" true (v.Campaign.v_task.n_txns <= 30))
    report.Campaign.violations

let test_barrier_handles_disjoint_handoff () =
  let base = disjoint_base None in
  (* Same seeds, same kill, same disjoint plan — with the barrier the
     campaign must stay violation-free... *)
  let report = sweep ~base ~profiles:[ kill_member_profile ] ~seeds:6 () in
  check_bool "barrier keeps the campaign clean" true
    (report.Campaign.violations = []);
  (* ...and non-vacuously: the handoff to {3,4,5} really happens. *)
  let cfg =
    Campaign.configure
      {
        base;
        scheme = Replicated.Hybrid;
        profile = kill_member_profile;
        seed = 0;
        n_txns = 30;
        intensity = 1.0;
      }
  in
  let outcome = Runtime.run cfg in
  check_bool "handoff to the disjoint members happened" true
    (outcome.Runtime.metrics.Runtime.reconfigs >= 1)

let test_reconfiguration_improves_committed () =
  (* The bench's acceptance comparison in miniature: under progressive
     permanent site loss that breaks the original majority, switching the
     coordinator on must strictly increase committed transactions. *)
  let kills =
    Nemesis.Staggered_kill { start = 3_000.0; gap = 4_000.0; victims = [ 4; 3; 2 ] }
  in
  let cfg reconfig seed =
    {
      Campaign.reconfig_base with
      Runtime.scheme = Replicated.Hybrid;
      seed;
      n_txns = 120;
      arrival_mean = 100.0;
      horizon = 25_000.0;
      install_faults = (fun net -> Nemesis.install kills net);
      reconfig = (if reconfig then Some Runtime.default_reconfig else None);
    }
  in
  (* Aggregated over several seeds: any single (seed, probe phase)
     alignment can go either way under permanent majority loss, but the
     policy must win on average. *)
  let committed reconfig =
    List.fold_left
      (fun acc seed ->
        acc + (Runtime.run (cfg reconfig seed)).Runtime.metrics.Runtime.committed)
      0 [ 0; 1; 2; 3 ]
  in
  let off = committed false and on = committed true in
  check_bool
    (Printf.sprintf "reconfiguration on (%d) beats off (%d)" on off)
    true (on > off)

let test_campaign_reconfig_smoke () =
  let report =
    sweep ~base:Campaign.reconfig_base ~schemes:Replicated.[ Hybrid; Locking ]
      ~profiles:[ kills_profile ] ~seeds:3 ()
  in
  check_bool "no violations with reconfiguration enabled" true
    (report.Campaign.violations = []);
  check_int "all cells ran" 6 report.Campaign.total_runs

let suites =
  [
    ( "reconfig",
      [
        Alcotest.test_case "detector: no false suspicion" `Quick
          test_detector_no_false_suspicion;
        Alcotest.test_case "detector: bounded detection" `Quick
          test_detector_bounded_detection;
        Alcotest.test_case "detector: clears after recovery" `Quick
          test_detector_clears_after_recovery;
        Alcotest.test_case "detector: deterministic replay" `Quick
          test_detector_deterministic_replay;
        Alcotest.test_case "detector: dead monitor is silent" `Quick
          test_detector_dead_monitor_does_not_poison;
        Alcotest.test_case "epoch: make validates" `Quick test_epoch_make_validates;
        Alcotest.test_case "epoch: intersection invariant" `Quick test_epoch_intersects;
        Alcotest.test_case "repository: epoch monotone and stable" `Quick
          test_repository_epoch_monotone_and_stable;
        Alcotest.test_case "reassign: plan over live sites" `Quick test_reassign_plan;
        Alcotest.test_case "reassign: locking plans on the dynamic relation" `Quick
          test_locking_plans_on_dynamic_relation;
        Alcotest.test_case "static scheme refuses reassignment" `Quick
          test_static_refuses_reconfiguration;
        Alcotest.test_case "hybrid reconfigures and stays atomic" `Quick
          test_hybrid_reconfigures_and_stays_atomic;
        Alcotest.test_case "unsafe handoff caught and shrunk" `Quick
          test_unsafe_handoff_caught_and_shrunk;
        Alcotest.test_case "barrier handles disjoint handoff" `Quick
          test_barrier_handles_disjoint_handoff;
        Alcotest.test_case "reconfiguration improves committed ops" `Quick
          test_reconfiguration_improves_committed;
        Alcotest.test_case "campaign smoke" `Quick test_campaign_reconfig_smoke;
      ] );
  ]
