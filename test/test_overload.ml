(* Graceful degradation under overload: open-loop plan determinism and
   the Zipf sampler (qcheck), the shed-safety and session-monotonicity
   monitors and the liveness grace window over hand-built traces, the
   per-site circuit breaker's state machine, and the admission-controlled
   runtime end to end — including the locking conflict-table regression
   the open-loop load exposed. *)

open Atomrep_stats
open Atomrep_replica
module Openloop = Atomrep_workload.Openloop
module Campaign = Atomrep_chaos.Campaign
module Monitors = Atomrep_chaos.Monitors
module Trace = Atomrep_obs.Trace
module SM = Atomrep_obs.Spec_monitor

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let to_alcotest = List.map QCheck_alcotest.to_alcotest

(* --- the Zipf sampler -------------------------------------------------- *)

let test_zipf_cdf_shape () =
  let cdf = Openloop.zipf_cdf ~n:16 ~theta:0.9 in
  check_int "one cell per rank" 16 (Array.length cdf);
  Array.iteri
    (fun i p ->
      if i > 0 then
        check_bool "cdf is nondecreasing" true (p >= cdf.(i - 1)))
    cdf;
  check_bool "cdf ends at 1" true (Float.abs (cdf.(15) -. 1.0) < 1e-9);
  check_bool "rank 0 is the hottest" true
    (cdf.(0) > 1.0 /. 16.0);
  (* theta 0 degenerates to uniform. *)
  let flat = Openloop.zipf_cdf ~n:10 ~theta:0.0 in
  Array.iteri
    (fun i p ->
      check_bool "uniform at theta 0" true
        (Float.abs (p -. (float_of_int (i + 1) /. 10.0)) < 1e-9))
    flat

let prop_zipf_sample_in_range_and_deterministic =
  QCheck.Test.make ~name:"zipf_sample: in range, same seed same draws"
    ~count:50
    QCheck.(pair (int_range 1 64) (int_range 0 10_000))
    (fun (n, seed) ->
      let cdf = Openloop.zipf_cdf ~n ~theta:0.9 in
      let draw rng = Array.init 32 (fun _ -> Openloop.zipf_sample rng ~cdf) in
      let a = draw (Rng.create seed) and b = draw (Rng.create seed) in
      Array.for_all (fun k -> k >= 0 && k < n) a && a = b)

(* --- open-loop plans --------------------------------------------------- *)

let curves =
  [
    Openloop.Constant;
    Openloop.Ramp 4.0;
    Openloop.Diurnal { trough = 0.3; period = 2_000.0 };
    Openloop.Flash_crowd { at = 1_000.0; duration = 500.0; mult = 6.0 };
  ]

let plan_of (seed, rate_pm, curve_i, profile_i) =
  Openloop.plan
    ~curve:(List.nth curves (curve_i mod List.length curves))
    ~profile:
      (List.nth
         [ Openloop.Read_mostly; Openloop.Write_heavy; Openloop.Queue_fanout ]
         (profile_i mod 3))
    ~n_objects:3 ~n_sites:3 ~n_sessions:6 ~seed
    ~rate:(0.001 +. (float_of_int rate_pm /. 1000.0 *. 0.009))
    ~horizon:4_000.0 ()

let prop_plan_deterministic =
  QCheck.Test.make
    ~name:"plan: same arguments, same schedule, script ignores engine RNG"
    ~count:30
    QCheck.(
      quad (int_range 0 1_000) (int_range 0 1_000) (int_range 0 3)
        (int_range 0 2))
    (fun args ->
      let p1 = plan_of args and p2 = plan_of args in
      let l1 = Openloop.load p1 and l2 = Openloop.load p2 in
      let n = Openloop.n_txns p1 in
      n = Openloop.n_txns p2
      && l1.Runtime.arrivals = l2.Runtime.arrivals
      && List.for_all
           (fun i ->
             l1.Runtime.home_of i = l2.Runtime.home_of i
             && l1.Runtime.session_of i = l2.Runtime.session_of i
             && l1.Runtime.class_of i = l2.Runtime.class_of i
             (* different, freshly seeded engine RNGs: the scripts must
                still be byte-identical across the two draws *)
             && Openloop.script p1 (Rng.create 1) i
                = Openloop.script p2 (Rng.create 999) i)
           (List.init n (fun i -> i)))

let prop_plan_arrivals_well_formed =
  QCheck.Test.make
    ~name:"plan: arrivals nondecreasing within horizon, sessions pinned"
    ~count:30
    QCheck.(pair (int_range 0 1_000) (int_range 0 3))
    (fun (seed, curve_i) ->
      let p = plan_of (seed, 500, curve_i, 2) in
      let l = Openloop.load p in
      let a = l.Runtime.arrivals in
      let ok = ref true in
      Array.iteri
        (fun i t ->
          if t < 0.0 || t > 4_000.0 then ok := false;
          if i > 0 && t < a.(i - 1) then ok := false)
        a;
      for i = 0 to Array.length a - 1 do
        let s = l.Runtime.session_of i in
        if s < 0 || s >= 6 then ok := false;
        (* one session, one home site, one Lamport clock *)
        if l.Runtime.home_of i <> s mod 3 then ok := false
      done;
      !ok)

let test_curve_multipliers () =
  let fc = Openloop.Flash_crowd { at = 1_000.0; duration = 500.0; mult = 6.0 } in
  let m t = Openloop.multiplier fc ~horizon:4_000.0 t in
  check_bool "before the burst" true (m 999.0 = 1.0);
  check_bool "inside the burst" true (m 1_250.0 = 6.0);
  check_bool "after the burst" true (m 1_500.0 = 1.0);
  let ramp = Openloop.Ramp 4.0 in
  check_bool "ramp starts at 1x" true
    (Openloop.multiplier ramp ~horizon:4_000.0 0.0 = 1.0);
  check_bool "ramp ends at 4x" true
    (Float.abs (Openloop.multiplier ramp ~horizon:4_000.0 4_000.0 -. 4.0) < 1e-9)

(* --- the shed-safety monitor over hand-built traces -------------------- *)

(* The catalogue's specs are instantiated with a {cfg; outcome} context,
   and an outcome comes only from a run; the trace-level specs read at
   most the configuration, so one cheap real outcome serves every
   hand-built-trace test. *)
let tiny_ctx =
  lazy
    (let cfg =
       { Runtime.default_config with Runtime.n_txns = 2; horizon = 5_000.0 }
     in
     { Monitors.cfg; outcome = Runtime.run cfg })

let judge ?(ctx = Lazy.force tiny_ctx) name tr =
  match Monitors.find name with
  | Some e -> SM.run e.Monitors.e_spec ctx tr
  | None -> Alcotest.fail (name ^ " missing from the monitor catalogue")

(* A trace bus with a hand-cranked clock, so quiesce can land far past
   any liveness grace window. *)
let clocked_trace () =
  let tr = Trace.create ~n_sites:3 () in
  let now = ref 0.0 in
  Trace.set_clock tr (fun () -> !now);
  (tr, now)

let quiesce ?(up = 3) ?(partitioned = false) tr =
  ignore (Trace.emit tr ~site:(-1) (Trace.Quiesce { up; n_sites = 3; partitioned }))

let test_shed_safety_accepts_clean_shed () =
  let tr, now = clocked_trace () in
  ignore (Trace.emit tr ~site:0 (Trace.Shed { txn = "T0"; reason = "deadline" }));
  ignore
    (Trace.emit tr ~site:1
       (Trace.Repo_append { txn = "T0"; op = "Enq"; tentative = true }));
  ignore
    (Trace.emit tr ~site:1 (Trace.Repo_resolve { txn = "T0"; committed = false }));
  ignore (Trace.emit tr ~site:0 (Trace.Txn_abort { txn = "T0"; reason = "shed" }));
  now := 1_000_000.0;
  quiesce tr;
  check_bool "resolved shed is clean" true (judge "shed_safety" tr = [])

let test_shed_safety_flags_residual_entry () =
  let tr, now = clocked_trace () in
  ignore (Trace.emit tr ~site:0 (Trace.Shed { txn = "T0"; reason = "queue_full" }));
  ignore
    (Trace.emit tr ~site:2
       (Trace.Repo_append { txn = "T0"; op = "Enq"; tentative = true }));
  now := 1_000_000.0;
  quiesce tr;
  (match judge "shed_safety" tr with
   | [ v ] ->
     check_bool "the surviving site is named" true
       (String.length v.SM.v_message > 0
       && String.index_opt v.SM.v_message '2' <> None)
   | vs ->
     Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs)))

let test_shed_safety_unfair_run_owes_nothing () =
  (* Same residue, but the network never healed: the obligation leg is
     fairness-gated, so no verdict. *)
  let tr, now = clocked_trace () in
  ignore (Trace.emit tr ~site:0 (Trace.Shed { txn = "T0"; reason = "queue_full" }));
  ignore
    (Trace.emit tr ~site:2
       (Trace.Repo_append { txn = "T0"; op = "Enq"; tentative = true }));
  now := 1_000_000.0;
  quiesce ~up:2 tr;
  check_bool "no obligation on an unfair run" true
    (judge "shed_safety" tr = [])

let test_shed_safety_flags_shed_commit () =
  let tr, _now = clocked_trace () in
  ignore (Trace.emit tr ~site:0 (Trace.Shed { txn = "T3"; reason = "deadline" }));
  ignore (Trace.emit tr ~site:0 (Trace.Txn_commit { txn = "T3" }));
  quiesce tr;
  (match judge "shed_safety" tr with
   | [ v ] ->
     check_bool "commit of a shed txn is the violation" true
       (v.SM.v_event <> None)
   | vs ->
     Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs)))

let test_shed_safety_amnesia_clears_site () =
  (* An amnesiac crash wipes the volatile log: the wiped site's entry is
     no longer evidence. *)
  let tr, now = clocked_trace () in
  ignore (Trace.emit tr ~site:0 (Trace.Shed { txn = "T0"; reason = "queue_full" }));
  ignore
    (Trace.emit tr ~site:2
       (Trace.Repo_append { txn = "T0"; op = "Enq"; tentative = true }));
  ignore (Trace.emit tr ~site:2 (Trace.Crash { site = 2; amnesia = true }));
  now := 1_000_000.0;
  quiesce tr;
  check_bool "amnesia discharges the obligation" true
    (judge "shed_safety" tr = [])

(* --- the per-session monotonicity monitor ------------------------------ *)

let session_commit tr ~session ~txn ~counter =
  ignore
    (Trace.emit tr ~site:(session mod 3)
       (Trace.Session_commit { session; txn; counter; site = session mod 3 }))

let test_session_monotonic_accepts_increasing () =
  let tr, _ = clocked_trace () in
  session_commit tr ~session:0 ~txn:"T0" ~counter:3;
  session_commit tr ~session:1 ~txn:"T1" ~counter:1;
  session_commit tr ~session:0 ~txn:"T2" ~counter:7;
  session_commit tr ~session:1 ~txn:"T3" ~counter:2;
  quiesce tr;
  check_bool "interleaved sessions, each increasing" true
    (judge "session_monotonic" tr = [])

let test_session_monotonic_flags_backwards () =
  let tr, _ = clocked_trace () in
  session_commit tr ~session:0 ~txn:"T0" ~counter:5;
  session_commit tr ~session:1 ~txn:"T1" ~counter:9;
  session_commit tr ~session:0 ~txn:"T2" ~counter:5 (* not strictly above *);
  quiesce tr;
  match judge "session_monotonic" tr with
  | [ v ] ->
    check_bool "keyed instance names the session" true
      (v.SM.v_monitor = "session_monotonic(0)")
  | vs ->
    Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs))

(* --- the liveness grace window ------------------------------------------ *)

(* Each obligation-carrying monitor with one obligation opened at t=0 on a
   hand-clocked bus, so the quiesce time is the obligation's exact age:
   [Monitors.grace] is the boundary, reported at and past it, never
   before, and never on a quiesce that is partitioned or has a site down.
   indoubt_liveness is judged under an enabled termination protocol. *)
let grace_cases =
  let emit tr site kind = ignore (Trace.emit tr ~site kind) in
  [
    ( "blocked_liveness",
      (fun ctx -> ctx),
      fun tr -> emit tr 0 (Trace.Lock_wait { txn = "T0"; blocker = "T1" }) );
    ( "indoubt_liveness",
      (fun (ctx : Monitors.ctx) ->
        { ctx with
          Monitors.cfg =
            { ctx.Monitors.cfg with
              Runtime.termination = Atomrep_txn.Termination.Cooperative } }),
      fun tr -> emit tr 0 (Trace.Commit_point { txn = "T0" }) );
    ( "shed_safety",
      (fun ctx -> ctx),
      fun tr ->
        emit tr 0 (Trace.Shed { txn = "T0"; reason = "deadline" });
        emit tr 2 (Trace.Repo_append { txn = "T0"; op = "Enq"; tentative = true }) );
  ]

let test_liveness_grace_boundary () =
  List.iter
    (fun (name, ctx_of, open_obligation) ->
      let verdicts ~age ?up ?partitioned () =
        let tr, now = clocked_trace () in
        open_obligation tr;
        now := age;
        quiesce ?up ?partitioned tr;
        List.length (judge ~ctx:(ctx_of (Lazy.force tiny_ctx)) name tr)
      in
      let g = Monitors.grace in
      check_int (name ^ ": just under grace is not reported") 0
        (verdicts ~age:(Float.pred g) ());
      check_int (name ^ ": exactly grace is reported") 1 (verdicts ~age:g ());
      check_int (name ^ ": partitioned quiesce reports nothing") 0
        (verdicts ~age:(10.0 *. g) ~partitioned:true ());
      check_int (name ^ ": a site down reports nothing") 0
        (verdicts ~age:(10.0 *. g) ~up:2 ()))
    grace_cases;
  (* indoubt_liveness owes nothing without a termination protocol. *)
  let tr, now = clocked_trace () in
  ignore (Trace.emit tr ~site:0 (Trace.Commit_point { txn = "T0" }));
  now := 10.0 *. Monitors.grace;
  quiesce tr;
  check_int "indoubt_liveness: disabled termination reports nothing" 0
    (List.length (judge "indoubt_liveness" tr))

(* --- the circuit breaker's state machine -------------------------------- *)

let mk_breaker () =
  Breaker.create ~window:4 ~threshold:0.5 ~cooldown:100.0 ~probes:2 ~n_sites:2
    ()

let feed b ~site ~now oks = List.iter (fun ok -> Breaker.record b ~site ~now ~ok) oks

let test_breaker_trips_on_failure_fraction () =
  let b = mk_breaker () in
  check_bool "starts closed" true (Breaker.state b ~site:0 = Breaker.Closed);
  feed b ~site:0 ~now:0.0 [ true; false; true ];
  check_bool "window not yet full" true (Breaker.state b ~site:0 = Breaker.Closed);
  feed b ~site:0 ~now:1.0 [ false ];
  check_bool "2/4 failures trips" true (Breaker.state b ~site:0 = Breaker.Open);
  check_bool "open refuses traffic" false (Breaker.allow b ~site:0 ~now:50.0);
  check_bool "other site unaffected" true (Breaker.state b ~site:1 = Breaker.Closed);
  check_bool "other site flows" true (Breaker.allow b ~site:1 ~now:50.0)

let test_breaker_half_open_probe_cycle () =
  let b = mk_breaker () in
  feed b ~site:0 ~now:0.0 [ false; false; false; false ];
  check_bool "tripped" true (Breaker.state b ~site:0 = Breaker.Open);
  (* Stragglers from calls issued before the trip are ignored. *)
  feed b ~site:0 ~now:10.0 [ false; false ];
  check_bool "cooldown admits the probe" true (Breaker.allow b ~site:0 ~now:101.0);
  check_bool "now half-open" true (Breaker.state b ~site:0 = Breaker.Half_open);
  (* A half-open failure re-opens for another cooldown. *)
  feed b ~site:0 ~now:102.0 [ false ];
  check_bool "probe failure re-opens" true (Breaker.state b ~site:0 = Breaker.Open);
  check_bool "and refuses again" false (Breaker.allow b ~site:0 ~now:150.0);
  ignore (Breaker.allow b ~site:0 ~now:203.0);
  feed b ~site:0 ~now:204.0 [ true ];
  check_bool "one success is not enough" true
    (Breaker.state b ~site:0 = Breaker.Half_open);
  feed b ~site:0 ~now:205.0 [ true ];
  check_bool "two consecutive successes close it" true
    (Breaker.state b ~site:0 = Breaker.Closed);
  check_bool "closed flows" true (Breaker.allow b ~site:0 ~now:206.0)

let test_breaker_transition_hook_counts_trips () =
  let b = mk_breaker () in
  let trips = ref 0 in
  Breaker.set_transition_hook b (fun ~site:_ ~state ->
      if state = Breaker.Open then incr trips);
  feed b ~site:0 ~now:0.0 [ false; false; false; false ];
  ignore (Breaker.allow b ~site:0 ~now:101.0);
  feed b ~site:0 ~now:102.0 [ false ];
  check_int "both open transitions observed" 2 !trips

(* --- the admission-controlled runtime, end to end ----------------------- *)

let test_overload_base_sheds_and_stays_safe () =
  (* The chaos base under its own flash crowd, with the admission window
     cinched tight enough that the burst alone overflows it (the stock
     base only sheds once a nemesis amplifies retries): shedding must
     happen, and the whole monitor catalogue must stay green. *)
  let cfg =
    {
      Campaign.overload_base with
      Runtime.admission =
        Some
          {
            Runtime.max_in_flight = 2;
            queue_limit = 3;
            deadline = 800.0;
            adm_shed_policy = Runtime.Shed_reads_first;
            adm_breaker = true;
          };
    }
  in
  let outcome, failures = Monitors.check_run ~monitors:Monitors.registry cfg in
  let m = outcome.Runtime.metrics in
  check_bool "the crowd overwhelms the window" true (m.Runtime.shed > 0);
  check_bool "but work still commits" true (m.Runtime.committed > 0);
  check_bool "every shed is an abort" true (m.Runtime.shed <= m.Runtime.aborted);
  check_bool "timely is a subset of committed" true
    (m.Runtime.timely_commits <= m.Runtime.committed);
  check_bool "sojourns were recorded" true (Summary.count m.Runtime.sojourn > 0);
  check_bool "full catalogue green" true (failures = [])

let test_overload_run_is_deterministic () =
  let run () =
    let outcome = Runtime.run Campaign.overload_base in
    let m = outcome.Runtime.metrics in
    ( m.Runtime.committed,
      m.Runtime.aborted,
      m.Runtime.shed,
      m.Runtime.timely_commits,
      m.Runtime.retries_spent )
  in
  check_bool "same seed, same overload outcome" true (run () = run ())

let hot_queue_cfg ~scheme ~retry_budget =
  (* One hot queue, everyone contending: the regime that amplifies
     retries (and the one that exposed the locking conflict table built
     from the wrong relation). *)
  let plan =
    Openloop.plan ~profile:Openloop.Queue_fanout ~n_objects:1 ~n_sites:3
      ~n_sessions:6 ~seed:11 ~rate:0.02 ~horizon:3_000.0 ()
  in
  Openloop.apply plan
    {
      Runtime.default_config with
      Runtime.scheme;
      seed = 7;
      horizon = 15_000.0;
      retry_budget;
    }

let test_retry_budget_exhausts_under_contention () =
  let starved =
    Runtime.run (hot_queue_cfg ~scheme:Replicated.Locking ~retry_budget:1)
  in
  let sm = starved.Runtime.metrics in
  check_bool "budget 1 exhausts under a hot queue" true
    (sm.Runtime.retries_budget_exhausted > 0);
  check_bool "exhaustions abort" true
    (sm.Runtime.retries_budget_exhausted <= sm.Runtime.aborted);
  let unbounded =
    Runtime.run (hot_queue_cfg ~scheme:Replicated.Locking ~retry_budget:max_int)
  in
  let um = unbounded.Runtime.metrics in
  check_int "an infinite budget never exhausts" 0
    um.Runtime.retries_budget_exhausted;
  check_bool "and spends more retries than the starved run" true
    (um.Runtime.retries_spent > sm.Runtime.retries_spent)

let test_locking_stays_atomic_on_hot_queue () =
  (* Regression: locking's conflict table must come from the dynamic
     dependency relation (Theorem 10) — on the dependency relation alone,
     concurrent Enqs slip through and commit-order serialization breaks
     exactly here. *)
  let cfg = hot_queue_cfg ~scheme:Replicated.Locking ~retry_budget:max_int in
  let outcome = Runtime.run cfg in
  check_bool "some commits happened" true
    (outcome.Runtime.metrics.Runtime.committed > 0);
  check_bool "local atomicity holds" true (Runtime.check_atomicity cfg outcome = []);
  check_bool "one system-wide order holds" true
    (Runtime.check_common_order cfg outcome = [])

(* Sizes a run cannot start from are refused up front, naming the field:
   no sites would crash the home draw, and a zero-slot window would queue
   every arrival forever without counting it anywhere. *)
let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rejects field cfg =
  match Runtime.run cfg with
  | _ -> Alcotest.failf "ran with a bad %s" field
  | exception Invalid_argument msg ->
    check_bool (field ^ " named in " ^ msg) true
      (contains msg field)

let gated adm = { Runtime.default_config with Runtime.admission = Some adm }

let test_run_rejects_zero_sites () =
  rejects "n_sites" { Runtime.default_config with Runtime.n_sites = 0 }

let test_run_rejects_zero_window () =
  rejects "max_in_flight"
    (gated { Runtime.default_admission with Runtime.max_in_flight = 0 })

let test_run_rejects_negative_queue () =
  rejects "queue_limit"
    (gated { Runtime.default_admission with Runtime.queue_limit = -1 })

let suites =
  [
    ( "overload.openloop",
      Alcotest.
        [
          test_case "zipf cdf shape" `Quick test_zipf_cdf_shape;
          test_case "curve multipliers" `Quick test_curve_multipliers;
        ]
      @ to_alcotest
          [
            prop_zipf_sample_in_range_and_deterministic;
            prop_plan_deterministic;
            prop_plan_arrivals_well_formed;
          ] );
    ( "overload.monitors",
      Alcotest.
        [
          test_case "shed_safety: clean shed" `Quick
            test_shed_safety_accepts_clean_shed;
          test_case "shed_safety: residual entry" `Quick
            test_shed_safety_flags_residual_entry;
          test_case "shed_safety: unfair run" `Quick
            test_shed_safety_unfair_run_owes_nothing;
          test_case "shed_safety: shed then committed" `Quick
            test_shed_safety_flags_shed_commit;
          test_case "shed_safety: amnesia clears" `Quick
            test_shed_safety_amnesia_clears_site;
          test_case "session_monotonic: increasing" `Quick
            test_session_monotonic_accepts_increasing;
          test_case "session_monotonic: backwards" `Quick
            test_session_monotonic_flags_backwards;
          test_case "liveness grace boundary" `Quick test_liveness_grace_boundary;
        ] );
    ( "overload.breaker",
      Alcotest.
        [
          test_case "trips on failure fraction" `Quick
            test_breaker_trips_on_failure_fraction;
          test_case "half-open probe cycle" `Quick
            test_breaker_half_open_probe_cycle;
          test_case "transition hook" `Quick
            test_breaker_transition_hook_counts_trips;
        ] );
    ( "overload.runtime",
      Alcotest.
        [
          test_case "overload base sheds, stays safe" `Quick
            test_overload_base_sheds_and_stays_safe;
          test_case "overload run is deterministic" `Quick
            test_overload_run_is_deterministic;
          test_case "retry budget exhausts" `Quick
            test_retry_budget_exhausts_under_contention;
          test_case "locking atomic on a hot queue" `Quick
            test_locking_stays_atomic_on_hot_queue;
          test_case "rejects zero sites" `Quick test_run_rejects_zero_sites;
          test_case "rejects a zero in-flight window" `Quick
            test_run_rejects_zero_window;
          test_case "rejects a negative queue limit" `Quick
            test_run_rejects_negative_queue;
        ] );
  ]
