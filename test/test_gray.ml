(* Gray-failure resilience: the fail-slow fault model's latency
   inflation, the detector's graded slow-suspicion, the hedged
   early-quorum multicast (re-issue to stragglers, first-reply-per-site
   dedup, breaker-aware spares), slow-site demotion end to end, and the
   byte-identity contract: with the mitigation layer off, the runtime
   must replay the pre-gray fingerprints bit for bit. *)

open Atomrep_stats
open Atomrep_sim
open Atomrep_replica
module Campaign = Atomrep_chaos.Campaign
module Monitors = Atomrep_chaos.Monitors

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let to_alcotest = List.map QCheck_alcotest.to_alcotest

(* --- the byte-identity contract ---------------------------------------- *)

(* One run's deterministic signature: every counter the simulation's
   random stream touches. A single perturbed draw — an extra probe, a
   reordered send, a hedge that fired when the config said off —
   changes at least the message count or the duration. *)
let signature (m : Runtime.metrics) =
  Printf.sprintf
    "c=%d a=%d ops=%d sent=%d drop=%d dup=%d dead=%d to=%d dur=%.6f latn=%d latmean=%.6f"
    m.Runtime.committed m.Runtime.aborted m.Runtime.ops_done m.Runtime.msgs_sent
    m.Runtime.msgs_dropped m.Runtime.msgs_duplicated m.Runtime.msgs_dead_dest
    m.Runtime.rpc_timeouts m.Runtime.duration
    (Summary.count m.Runtime.txn_latency)
    (Summary.mean m.Runtime.txn_latency)

let fingerprint cfg = signature (Runtime.run cfg).Runtime.metrics

let healthy_cfg ~scheme ~seed =
  { Runtime.default_config with Runtime.scheme; seed; n_txns = 40 }

let faulty_cfg ~scheme ~seed =
  let n_sites = 5 in
  {
    Runtime.default_config with
    Runtime.scheme;
    seed;
    n_txns = 40;
    n_sites;
    objects =
      [
        {
          Runtime.obj_name = "queue";
          obj_spec = Atomrep_spec.Queue_type.spec;
          obj_relation =
            Atomrep_core.Static_dep.minimal Atomrep_spec.Queue_type.spec
              ~max_len:4;
          obj_assignment = Runtime.default_queue_assignment ~n_sites;
          obj_members = None;
        };
      ];
    install_faults =
      (fun net -> Fault.crash_recover_all net ~mtbf:400.0 ~mttr:150.0);
  }

let reconfig_cfg ~scheme ~seed =
  {
    Campaign.reconfig_base with
    Runtime.scheme;
    seed;
    n_txns = 40;
    install_faults =
      (fun net -> Fault.crash_recover_all net ~mtbf:600.0 ~mttr:150.0);
  }

(* Golden fingerprints captured before the gray-failure layer landed:
   with [gray = None] (the default) the runtime must reproduce each of
   them exactly — the hedging machinery, the deferred-release plumbing
   and the fail-slow hooks may not perturb a single random draw. The
   healthy and faulty rows predate the PR unchanged; the reconfig rows
   were re-captured once, deliberately, when the detector's probe phase
   gained jitter (the thundering-herd satellite) — they encode the
   jittered schedule, which is itself part of the contract now. *)
let golden =
  [
    ( "healthy/static/seed0",
      healthy_cfg ~scheme:Replicated.Static ~seed:0,
      "c=40 a=0 ops=40 sent=1230 drop=0 dup=0 dead=0 to=0 dur=1640.578099 latn=40 latmean=105.121659"
    );
    ( "healthy/static/seed3",
      healthy_cfg ~scheme:Replicated.Static ~seed:3,
      "c=39 a=1 ops=39 sent=996 drop=0 dup=0 dead=0 to=0 dur=1160.177489 latn=39 latmean=42.042031"
    );
    ( "healthy/hybrid/seed0",
      healthy_cfg ~scheme:Replicated.Hybrid ~seed:0,
      "c=40 a=0 ops=40 sent=1395 drop=0 dup=0 dead=0 to=0 dur=1502.331424 latn=40 latmean=162.709839"
    );
    ( "healthy/hybrid/seed3",
      healthy_cfg ~scheme:Replicated.Hybrid ~seed:3,
      "c=40 a=0 ops=40 sent=1215 drop=0 dup=0 dead=0 to=0 dur=1416.673019 latn=40 latmean=112.319464"
    );
    ( "healthy/locking/seed0",
      healthy_cfg ~scheme:Replicated.Locking ~seed:0,
      "c=40 a=0 ops=40 sent=1752 drop=0 dup=0 dead=0 to=0 dur=2626.649363 latn=40 latmean=379.550765"
    );
    ( "healthy/locking/seed3",
      healthy_cfg ~scheme:Replicated.Locking ~seed:3,
      "c=40 a=0 ops=40 sent=1575 drop=0 dup=0 dead=0 to=0 dur=1790.217145 latn=40 latmean=293.033433"
    );
    ( "faulty/static/seed0",
      faulty_cfg ~scheme:Replicated.Static ~seed:0,
      "c=15 a=9 ops=17 sent=1599 drop=0 dup=0 dead=194 to=113 dur=2264.838268 latn=15 latmean=224.364066"
    );
    ( "faulty/hybrid/seed0",
      faulty_cfg ~scheme:Replicated.Hybrid ~seed:0,
      "c=14 a=14 ops=16 sent=1333 drop=0 dup=0 dead=121 to=79 dur=1560.934154 latn=14 latmean=111.388800"
    );
    ( "faulty/locking/seed3",
      faulty_cfg ~scheme:Replicated.Locking ~seed:3,
      "c=2 a=15 ops=2 sent=1034 drop=0 dup=0 dead=230 to=104 dur=1502.225136 latn=2 latmean=17.860524"
    );
    ( "reconfig/hybrid/seed0",
      reconfig_cfg ~scheme:Replicated.Hybrid ~seed:0,
      "c=29 a=10 ops=29 sent=1754 drop=0 dup=0 dead=145 to=130 dur=4696.434321 latn=29 latmean=65.571180"
    );
    ( "reconfig/locking/seed0",
      reconfig_cfg ~scheme:Replicated.Locking ~seed:0,
      "c=27 a=11 ops=28 sent=1896 drop=0 dup=0 dead=153 to=125 dur=4776.404141 latn=27 latmean=73.616916"
    );
  ]

(* Long-history goldens: the default queue at 240 transactions, so every
   gather merges logs holding hundreds of resolved actions. Captured
   before the log gained its status index; a lookup that disagreed with
   the old full-log scan on any action would change these. *)
let golden_long =
  let cfg scheme =
    { Runtime.default_config with Runtime.scheme; seed = 0; n_txns = 240 }
  in
  [
    ( "long/static/seed0",
      cfg Replicated.Static,
      "c=232 a=8 ops=232 sent=7053 drop=0 dup=0 dead=0 to=0 dur=7226.657904 latn=232 latmean=98.864856"
    );
    ( "long/hybrid/seed0",
      cfg Replicated.Hybrid,
      "c=238 a=2 ops=238 sent=7878 drop=0 dup=0 dead=0 to=0 dur=7294.660606 latn=238 latmean=128.792526"
    );
    ( "long/locking/seed0",
      cfg Replicated.Locking,
      "c=204 a=36 ops=204 sent=12627 drop=0 dup=0 dead=0 to=0 dur=8369.558283 latn=204 latmean=425.308126"
    );
  ]

(* The mitigation path's fingerprint: the base signature plus every
   decision the gray layer takes. A scoring change that moved one
   suspicion, hedge or demotion would change these counts. *)
let gray_fingerprint cfg =
  let m = (Runtime.run cfg).Runtime.metrics in
  signature m
  ^ Printf.sprintf " hedges=%d wins=%d late=%d demoted=%d slow=%d"
      m.Runtime.hedges m.Runtime.hedge_wins m.Runtime.hedge_late
      m.Runtime.demoted_rounds m.Runtime.slow_suspicions

let gray_on_cfg ~scheme ~seed =
  { (faulty_cfg ~scheme ~seed) with
    Runtime.n_txns = 60;
    install_faults = (fun _ -> ());
    fail_slow = [ (2, 1000.0, Network.Slow_constant 8.0) ];
    gray = Some Runtime.default_gray;
    horizon = 30_000.0;
  }

(* Gray-on goldens: 5 sites, one 8x fail-slow site from 1 s, hedging,
   demotion and latency scoring armed. Captured before the latency books
   kept sorted mirrors; every detector decision, hedge and demotion must
   replay exactly. *)
let golden_gray =
  [
    ( "gray/static/seed0",
      gray_on_cfg ~scheme:Replicated.Static ~seed:0,
      "c=60 a=0 ops=60 sent=3530 drop=0 dup=0 dead=0 to=58 dur=2673.882705 latn=60 latmean=137.362324 hedges=10 wins=3 late=397 demoted=34 slow=3"
    );
    ( "gray/hybrid/seed0",
      gray_on_cfg ~scheme:Replicated.Hybrid ~seed:0,
      "c=56 a=4 ops=56 sent=4643 drop=0 dup=0 dead=0 to=68 dur=3666.973358 latn=56 latmean=309.295573 hedges=16 wins=6 late=539 demoted=123 slow=5"
    );
    ( "gray/locking/seed0",
      gray_on_cfg ~scheme:Replicated.Locking ~seed:0,
      "c=54 a=6 ops=54 sent=5719 drop=0 dup=0 dead=0 to=87 dur=3828.394131 latn=54 latmean=553.197009 hedges=20 wins=1 late=751 demoted=149 slow=3"
    );
  ]

(* The protocol paths' fingerprint: the base signature plus every counter
   the termination driver, the deadlock policies, admission and the WAL
   move. [timely_commits] is left out on purpose: its accounting under the
   termination modes was fixed after these rows were captured. *)
let paths_fingerprint cfg =
  let m = (Runtime.run cfg).Runtime.metrics in
  signature m
  ^ Printf.sprintf
      " coopc=%d coopa=%d pres=%d dl=%d redr=%d orph=%d lease=%d adopt=%d \
       fenced=%d cont=%d shed=%d rspent=%d rexh=%d strand=%d wal=%d"
      m.Runtime.coop_commits m.Runtime.coop_aborts m.Runtime.presumed_aborts
      m.Runtime.deadlock_aborts m.Runtime.redrives m.Runtime.orphans_reaped
      m.Runtime.takeover_leases m.Runtime.takeover_adoptions
      m.Runtime.takeover_fenced m.Runtime.takeover_contended m.Runtime.shed
      m.Runtime.retries_spent m.Runtime.retries_budget_exhausted
      m.Runtime.stranded_entries m.Runtime.wal_flushes

let campaign_cfg ?(n_txns = 60) ~base ~profile ~scheme ~seed () =
  match Campaign.find_profile profile with
  | Some profile ->
    Campaign.configure { base; scheme; profile; seed; n_txns; intensity = 1.0 }
  | None -> Alcotest.failf "unknown profile %s" profile

(* A hot single-queue open-loop plan (80 arrivals/s for 3 s) behind
   admission control with a 1 s sojourn deadline, shed-reads-first, the
   circuit breaker and a finite retry budget. *)
let hot_open_cfg ?(termination = Atomrep_txn.Termination.Disabled)
    ?(deadlock = Runtime.No_deadlock) ~retry_budget ~scheme ~seed () =
  let module Openloop = Atomrep_workload.Openloop in
  let plan = Openloop.plan ~n_objects:1 ~seed:42 ~rate:0.08 ~horizon:3000.0 () in
  Openloop.apply plan
    {
      Runtime.default_config with
      Runtime.scheme;
      seed;
      horizon = 5000.0;
      termination;
      deadlock;
      admission =
        Some
          {
            Runtime.default_admission with
            Runtime.deadline = 1000.0;
            adm_shed_policy = Runtime.Shed_reads_first;
            adm_breaker = true;
          };
      retry_budget;
    }

(* Two hot queues, each transaction enqueueing into one and dequeueing the
   other in a random order: under locking the crossing waits close cycles
   often enough for either deadlock policy to pick victims. *)
let contended_cfg ~deadlock ~seed =
  let queue name =
    {
      Runtime.obj_name = name;
      obj_spec = Atomrep_spec.Queue_type.spec;
      obj_relation =
        Atomrep_core.Static_dep.minimal Atomrep_spec.Queue_type.spec ~max_len:4;
      obj_assignment = Runtime.default_queue_assignment ~n_sites:3;
      obj_members = None;
    }
  in
  {
    Campaign.termination_base with
    Runtime.scheme = Replicated.Locking;
    seed;
    deadlock;
    n_txns = 40;
    arrival_mean = 8.0;
    objects = [ queue "q1"; queue "q2" ];
    script =
      (fun rng _ ->
        let a, b = if Rng.bool rng then ("q1", "q2") else ("q2", "q1") in
        [
          { Runtime.target = a; invocation = Atomrep_spec.Queue_type.enq_inv "x" };
          { Runtime.target = b; invocation = Atomrep_spec.Queue_type.deq_inv };
        ]);
  }

(* Goldens for the paths the runtime's terminal transition, vote drives,
   retry ladder, admission gate and recovery redrive run through — captured
   before those paths were restructured: termination under commit-window
   ambushes, takeover, both deadlock policies, the overload surface
   (open-loop plan, admission with breaker, shed-reads-first, a retry
   budget of 12) and durable WALs under crash-with-amnesia. The
   takeover/coordinator_killer row's seed 20 is a tuple whose healed
   coordinator is fenced mid-takeover, so it covers adoption and
   fencing. *)
let golden_paths =
  let presumed =
    {
      Campaign.termination_base with
      Runtime.termination = Atomrep_txn.Termination.Presumed_abort_only;
    }
  in
  [
    ( "paths/presumed/coordinator_killer/hybrid/seed0",
      campaign_cfg ~base:presumed ~profile:"coordinator_killer"
        ~scheme:Replicated.Hybrid ~seed:0 (),
      "c=14 a=46 ops=17 sent=1464 drop=25 dup=23 dead=146 to=92 dur=2374.321925 latn=14 latmean=210.360921 coopc=0 coopa=0 pres=16 dl=9 redr=0 orph=0 lease=0 adopt=0 fenced=0 cont=0 shed=0 rspent=95 rexh=0 strand=4 wal=0"
    );
    ( "paths/cooperative/coordinator_killer/hybrid/seed0",
      campaign_cfg ~base:Campaign.termination_base ~profile:"coordinator_killer"
        ~scheme:Replicated.Hybrid ~seed:0 (),
      "c=18 a=42 ops=24 sent=1671 drop=26 dup=26 dead=204 to=128 dur=2457.348700 latn=18 latmean=225.130017 coopc=0 coopa=2 pres=21 dl=7 redr=0 orph=4 lease=0 adopt=0 fenced=0 cont=0 shed=0 rspent=93 rexh=0 strand=0 wal=0"
    );
    ( "paths/cooperative/coordinator_killer/locking/seed1",
      campaign_cfg ~base:Campaign.termination_base ~profile:"coordinator_killer"
        ~scheme:Replicated.Locking ~seed:1 (),
      "c=10 a=50 ops=13 sent=1695 drop=18 dup=19 dead=194 to=109 dur=2483.524861 latn=9 latmean=368.758008 coopc=0 coopa=1 pres=21 dl=8 redr=1 orph=2 lease=0 adopt=0 fenced=0 cont=0 shed=0 rspent=126 rexh=0 strand=0 wal=0"
    );
    ( "paths/takeover/takeover_storm/static/seed0",
      campaign_cfg ~base:Campaign.takeover_base ~profile:"takeover_storm"
        ~scheme:Replicated.Static ~seed:0 (),
      "c=12 a=48 ops=14 sent=1501 drop=72 dup=23 dead=165 to=110 dur=2501.621396 latn=12 latmean=118.248199 coopc=0 coopa=0 pres=23 dl=6 redr=0 orph=7 lease=1 adopt=0 fenced=0 cont=1 shed=0 rspent=92 rexh=0 strand=0 wal=0"
    );
    ( "paths/takeover/takeover_storm/hybrid/seed2",
      campaign_cfg ~base:Campaign.takeover_base ~profile:"takeover_storm"
        ~scheme:Replicated.Hybrid ~seed:2 (),
      "c=9 a=51 ops=16 sent=1135 drop=34 dup=8 dead=272 to=175 dur=2253.605774 latn=6 latmean=201.594453 coopc=2 coopa=2 pres=19 dl=4 redr=3 orph=13 lease=4 adopt=2 fenced=0 cont=3 shed=0 rspent=44 rexh=0 strand=0 wal=0"
    );
    ( "paths/deadlock-detect/locking/seed0",
      contended_cfg ~deadlock:Runtime.Detect ~seed:0,
      "c=4 a=36 ops=15 sent=2436 drop=0 dup=0 dead=0 to=0 dur=2495.686227 latn=4 latmean=2087.431496 coopc=0 coopa=0 pres=0 dl=28 redr=0 orph=0 lease=0 adopt=0 fenced=0 cont=0 shed=0 rspent=200 rexh=0 strand=0 wal=0"
    );
    ( "paths/wound-wait/locking/seed0",
      contended_cfg ~deadlock:Runtime.Wound_wait ~seed:0,
      "c=3 a=37 ops=12 sent=1854 drop=0 dup=0 dead=0 to=0 dur=2355.029504 latn=3 latmean=2125.627432 coopc=0 coopa=0 pres=0 dl=33 redr=0 orph=0 lease=0 adopt=0 fenced=0 cont=0 shed=0 rspent=148 rexh=0 strand=0 wal=0"
    );
    ( "paths/takeover/coordinator_killer/hybrid/seed1",
      campaign_cfg ~n_txns:120 ~base:Campaign.takeover_base
        ~profile:"coordinator_killer" ~scheme:Replicated.Hybrid ~seed:1 (),
      "c=20 a=100 ops=31 sent=2612 drop=33 dup=37 dead=411 to=272 dur=4752.416273 latn=19 latmean=247.799775 coopc=0 coopa=4 pres=42 dl=9 redr=1 orph=8 lease=11 adopt=0 fenced=0 cont=2 shed=0 rspent=149 rexh=0 strand=0 wal=0"
    );
    ( "paths/takeover/coordinator_killer/hybrid/seed20",
      campaign_cfg ~n_txns:120 ~base:Campaign.takeover_base
        ~profile:"coordinator_killer" ~scheme:Replicated.Hybrid ~seed:20 (),
      "c=19 a=101 ops=28 sent=2920 drop=36 dup=22 dead=574 to=363 dur=6250.778097 latn=14 latmean=180.594272 coopc=4 coopa=7 pres=27 dl=15 redr=5 orph=21 lease=15 adopt=4 fenced=2 cont=13 shed=0 rspent=167 rexh=0 strand=0 wal=0"
    );
    ( "paths/overload/overload_storm/locking/seed1",
      campaign_cfg ~n_txns:300 ~base:Campaign.overload_base
        ~profile:"overload_storm" ~scheme:Replicated.Locking ~seed:1 (),
      "c=75 a=38 ops=76 sent=2273 drop=94 dup=27 dead=0 to=66 dur=11739.235773 latn=75 latmean=69.947753 coopc=0 coopa=0 pres=0 dl=0 redr=0 orph=0 lease=0 adopt=0 fenced=0 cont=0 shed=0 rspent=68 rexh=0 strand=4 wal=0"
    );
    ( "paths/hot-open/locking/budget12/seed0",
      hot_open_cfg ~retry_budget:12 ~scheme:Replicated.Locking ~seed:0 (),
      "c=101 a=142 ops=101 sent=4143 drop=0 dup=0 dead=0 to=0 dur=4057.926125 latn=101 latmean=189.110635 coopc=0 coopa=0 pres=0 dl=0 redr=0 orph=0 lease=0 adopt=0 fenced=0 cont=0 shed=142 rspent=205 rexh=0 strand=0 wal=0"
    );
    ( "paths/hot-open/locking/budget12/wound-wait/cooperative/seed0",
      hot_open_cfg ~termination:Atomrep_txn.Termination.Cooperative
        ~deadlock:Runtime.Wound_wait ~retry_budget:12
        ~scheme:Replicated.Locking ~seed:0 (),
      "c=97 a=146 ops=97 sent=5346 drop=0 dup=0 dead=0 to=0 dur=3835.156357 latn=97 latmean=148.919543 coopc=0 coopa=0 pres=0 dl=52 redr=0 orph=0 lease=0 adopt=0 fenced=0 cont=0 shed=94 rspent=246 rexh=0 strand=0 wal=0"
    );
    ( "paths/hot-open/static/budget12/seed1",
      hot_open_cfg ~retry_budget:12 ~scheme:Replicated.Static ~seed:1 (),
      "c=149 a=94 ops=149 sent=5628 drop=0 dup=0 dead=0 to=0 dur=3680.901524 latn=149 latmean=51.681061 coopc=0 coopa=0 pres=0 dl=0 redr=0 orph=0 lease=0 adopt=0 fenced=0 cont=0 shed=75 rspent=232 rexh=0 strand=0 wal=0"
    );
    ( "paths/hot-open/hybrid/budget2/seed0",
      hot_open_cfg ~retry_budget:2 ~scheme:Replicated.Hybrid ~seed:0 (),
      "c=132 a=111 ops=132 sent=7200 drop=0 dup=0 dead=0 to=0 dur=3109.083928 latn=132 latmean=47.295575 coopc=0 coopa=0 pres=0 dl=0 redr=0 orph=0 lease=0 adopt=0 fenced=0 cont=0 shed=0 rspent=319 rexh=111 strand=0 wal=0"
    );
    ( "paths/wal/amnesia/hybrid/seed0",
      campaign_cfg ~base:Campaign.storage_base ~profile:"amnesia"
        ~scheme:Replicated.Hybrid ~seed:0 (),
      "c=11 a=34 ops=11 sent=1003 drop=0 dup=0 dead=218 to=93 dur=1999.816482 latn=11 latmean=78.822035 coopc=0 coopa=0 pres=0 dl=0 redr=0 orph=0 lease=0 adopt=0 fenced=0 cont=0 shed=0 rspent=72 rexh=0 strand=0 wal=65"
    );
  ]

let check_goldens ?(fp = fingerprint) rows =
  List.iter
    (fun (name, cfg, expected) -> check_string name expected (fp cfg))
    rows

let test_golden_fingerprints () = check_goldens golden
let test_golden_long_fingerprints () = check_goldens golden_long

let test_golden_paths_fingerprints () =
  check_goldens ~fp:paths_fingerprint golden_paths

let test_golden_gray_fingerprints () =
  List.iter
    (fun (name, cfg, expected) ->
      check_string name expected (gray_fingerprint cfg))
    golden_gray

let test_dormant_fail_slow_is_free () =
  (* Wiring that never bites must never perturb: an injection scheduled
     past the horizon, and a constant inflation of exactly 1.0, both
     replay the untouched run bit for bit — set_fail_slow draws no RNG,
     and the constant law multiplies without drawing. *)
  List.iter
    (fun seed ->
      let base = healthy_cfg ~scheme:Replicated.Hybrid ~seed in
      let never =
        {
          base with
          Runtime.fail_slow = [ (1, 1.0e9, Network.Slow_constant 8.0) ];
        }
      in
      let unit_factor =
        {
          base with
          Runtime.fail_slow = [ (1, 0.0, Network.Slow_constant 1.0) ];
        }
      in
      let want = fingerprint base in
      check_string
        (Printf.sprintf "onset past horizon, seed %d" seed)
        want (fingerprint never);
      check_string
        (Printf.sprintf "factor 1.0, seed %d" seed)
        want (fingerprint unit_factor))
    [ 0; 3 ]

let scheme_gen =
  QCheck2.Gen.oneofl [ Replicated.Static; Replicated.Hybrid; Replicated.Locking ]

let prop_hedging_off_replays =
  QCheck2.Test.make ~name:"gray: hedging-off runs replay bit-identically"
    ~count:8
    QCheck2.Gen.(pair scheme_gen (int_bound 1_000))
    (fun (scheme, seed) ->
      let fp () =
        fingerprint
          { Runtime.default_config with Runtime.scheme; seed; n_txns = 12 }
      in
      fp () = fp ())

(* --- the fail-slow fault model ----------------------------------------- *)

let test_constant_inflation_scales_delivery () =
  let mean_delivery factor =
    let engine = Engine.create ~seed:2 in
    let net = Network.create engine ~n_sites:2 ~latency_mean:5.0 () in
    (match factor with
     | Some f -> Network.set_fail_slow net ~site:1 (Network.Slow_constant f)
     | None -> ());
    let total = ref 0.0 in
    let n = 200 in
    for _ = 1 to n do
      Network.send net ~src:0 ~dst:1 (fun () ->
          total := !total +. Engine.now engine)
    done;
    Engine.run ~until:1.0e9 engine;
    !total /. float_of_int n
  in
  let base = mean_delivery None and slow = mean_delivery (Some 8.0) in
  (* Same seed, same draws: the constant law multiplies each one by
     exactly the factor, so the ratio is exact, not statistical. *)
  check_bool "constant 8x inflates delivery by exactly 8x" true
    (Float.abs ((slow /. base) -. 8.0) < 1e-6)

let test_detector_flags_fail_slow_site () =
  let engine = Engine.create ~seed:7 in
  let net = Network.create engine ~n_sites:5 ~latency_mean:2.0 () in
  let det =
    Detector.start net
      ~rng:(Rng.split (Engine.rng engine))
      ~slow:Detector.default_slow_config ()
  in
  Engine.schedule_at engine ~time:500.0 (fun () ->
      Network.set_fail_slow net ~site:3 (Network.Slow_constant 8.0));
  Engine.run ~until:8_000.0 engine;
  (* An 8x-inflated site misses most 25ms probe budgets: it surfaces
     through the binary miss-streak verdict, the graded latency score,
     or both — either way the steering view must exclude it. *)
  let flagged = Detector.suspected det 3 || Detector.slow_suspected det 3 in
  let fast = Detector.fast_sites det in
  check_bool "the fail-slow site is flagged" true flagged;
  check_bool "steering avoids it" true (not (List.mem 3 fast));
  check_bool "healthy sites stay in the fast set" true
    (List.for_all (fun s -> List.mem s fast) [ 0; 1; 2; 4 ])

(* --- the hedged early-quorum multicast --------------------------------- *)

let test_straggler_never_redrives_gather () =
  let engine = Engine.create ~seed:11 in
  let net = Network.create engine ~n_sites:4 ~latency_mean:5.0 () in
  let gathers = ref 0 and gathered = ref [] and late = ref 0 in
  Rpc.multicast
    ~enough:(fun replies -> List.length replies >= 2)
    ~on_late:(fun ~dst:_ ~ok:_ -> incr late)
    net ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:1_000.0
    ~handler:(fun dst -> dst)
    ~gather:(fun replies ->
      incr gathers;
      gathered := replies);
  Engine.run ~until:5_000.0 engine;
  check_int "gather fired exactly once" 1 !gathers;
  check_int "at the satisfying set, not the full roster" 2
    (List.length !gathered);
  check_int "the straggler was reported late" 1 !late

let test_hedge_reissues_to_straggler_and_dedups () =
  let engine = Engine.create ~seed:5 in
  let net = Network.create engine ~n_sites:4 ~latency_mean:5.0 () in
  Network.set_fail_slow net ~site:3 (Network.Slow_constant 200.0);
  let hedged = ref [] and gathers = ref 0 and gathered = ref [] in
  let hedge =
    {
      Rpc.h_delay = (fun () -> 60.0);
      h_spares = [];
      h_max = 3;
      h_on_hedge = (fun ~dst -> hedged := dst :: !hedged);
      h_on_win = (fun ~dst:_ -> ());
    }
  in
  Rpc.multicast ~hedge net ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:20_000.0
    ~handler:(fun dst -> dst)
    ~gather:(fun replies ->
      incr gathers;
      gathered := replies);
  Engine.run ~until:100_000.0 engine;
  check_int "gather once, after every issued call settled" 1 !gathers;
  check_bool "the unanswered site was re-issued to" true (List.mem 3 !hedged);
  (* The slow original and its hedge both eventually answer: the site
     still votes exactly once. *)
  check_int "three unique voters" 3 (List.length !gathered);
  let sites = List.sort compare (List.map fst !gathered) in
  check_bool "no site counted twice" true
    (List.sort_uniq compare sites = sites)

let test_hedge_skips_breaker_open_site () =
  let engine = Engine.create ~seed:9 in
  let net = Network.create engine ~n_sites:4 ~latency_mean:5.0 () in
  Network.set_fail_slow net ~site:1 (Network.Slow_constant 30.0);
  Network.set_fail_slow net ~site:2 (Network.Slow_constant 30.0);
  (* Site 3 is routed out, as an open circuit breaker would: a hedge
     there would only burn the refusal. *)
  Network.set_router net (Some (fun ~src:_ ~dst -> dst <> 3));
  let hedged = ref [] and gathers = ref 0 in
  let hedge =
    {
      Rpc.h_delay = (fun () -> 50.0);
      h_spares = [ 3 ];
      h_max = 3;
      h_on_hedge = (fun ~dst -> hedged := dst :: !hedged);
      h_on_win = (fun ~dst:_ -> ());
    }
  in
  Rpc.multicast ~hedge net ~src:0 ~dsts:[ 1; 2 ] ~timeout:5_000.0
    ~handler:(fun dst -> dst)
    ~gather:(fun _ -> incr gathers);
  Engine.run ~until:20_000.0 engine;
  check_int "gather once" 1 !gathers;
  check_bool "both lagging primaries were re-issued to" true
    (List.mem 1 !hedged && List.mem 2 !hedged);
  check_bool "the routed-out spare was never hedged" true
    (not (List.mem 3 !hedged))

(* --- slow-site demotion and hedging, end to end ------------------------ *)

let gray_e2e_cfg ~gray ~seed =
  { (faulty_cfg ~scheme:Replicated.Hybrid ~seed) with
    Runtime.n_txns = 100;
    install_faults = (fun _ -> ());
    fail_slow = [ (2, 500.0, Network.Slow_constant 8.0) ];
    gray;
  }

let test_mitigation_beats_baseline () =
  let run gray =
    let outcome, failures =
      Monitors.check_run ~monitors:Monitors.registry (gray_e2e_cfg ~gray ~seed:0)
    in
    (outcome.Runtime.metrics, failures)
  in
  let base, base_fails = run None in
  let mit, mit_fails = run (Some Runtime.default_gray) in
  check_int "baseline: full monitor catalogue green" 0 (List.length base_fails);
  check_int "mitigated: full monitor catalogue green" 0 (List.length mit_fails);
  check_bool "hedges fired" true (mit.Runtime.hedges > 0);
  check_bool "rounds were demoted around the slow site" true
    (mit.Runtime.demoted_rounds > 0);
  check_bool "the slow site was suspected" true
    (mit.Runtime.slow_suspicions > 0);
  check_bool "mitigation does not lose commits" true
    (mit.Runtime.committed >= base.Runtime.committed);
  let p99 m = Summary.percentile m.Runtime.txn_latency 0.99 in
  check_bool "p99 commit latency improves under one fail-slow site" true
    (p99 mit < p99 base)

let test_gray_storm_monitors_green () =
  (* The CI smoke in miniature: the default base with gray mitigation
     on (hedging, demotion and latency scoring armed) under the
     gray_storm profile, judged by the full monitor catalogue —
     hedge_safety included, so a hedged duplicate surfacing as a double
     commit or conflicting verdicts would fail here first. *)
  let profile =
    match Campaign.find_profile "gray_storm" with
    | Some p -> p
    | None -> Alcotest.fail "gray_storm profile missing"
  in
  List.iter
    (fun seed ->
      let cfg =
        Campaign.configure
          {
            base =
              { Campaign.default_base with Runtime.gray = Some Runtime.default_gray };
            scheme = Replicated.Hybrid;
            profile;
            seed;
            n_txns = 40;
            intensity = 1.0;
          }
      in
      let _, failures = Monitors.check_run ~monitors:Monitors.registry cfg in
      check_int (Printf.sprintf "seed %d green" seed) 0 (List.length failures))
    [ 0; 1; 2 ]

let suites =
  [
    ( "gray.identity",
      Alcotest.
        [
          test_case "golden fingerprints, hedging off" `Quick
            test_golden_fingerprints;
          test_case "golden fingerprints, 240-transaction queue" `Quick
            test_golden_long_fingerprints;
          test_case "golden fingerprints, gray mitigation on" `Quick
            test_golden_gray_fingerprints;
          test_case "golden fingerprints, termination/deadlock/admission/WAL"
            `Quick test_golden_paths_fingerprints;
          test_case "dormant fail-slow wiring is free" `Quick
            test_dormant_fail_slow_is_free;
        ]
      @ to_alcotest [ prop_hedging_off_replays ] );
    ( "gray.failslow",
      Alcotest.
        [
          test_case "constant inflation scales delivery" `Quick
            test_constant_inflation_scales_delivery;
          test_case "detector flags the fail-slow site" `Quick
            test_detector_flags_fail_slow_site;
        ] );
    ( "gray.hedging",
      Alcotest.
        [
          test_case "straggler never re-drives the gather" `Quick
            test_straggler_never_redrives_gather;
          test_case "hedge re-issues to the straggler, dedups its vote"
            `Quick test_hedge_reissues_to_straggler_and_dedups;
          test_case "hedge skips a breaker-open site" `Quick
            test_hedge_skips_breaker_open_site;
        ] );
    ( "gray.endtoend",
      Alcotest.
        [
          test_case "hedging + demotion beat the baseline" `Quick
            test_mitigation_beats_baseline;
          test_case "gray_storm stays green under the full catalogue" `Quick
            test_gray_storm_monitors_green;
        ] );
  ]
