(* Chaos subsystem: fault schedules, crash-amnesia recovery, campaign
   determinism, and the violation-reproducer workflow. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_sim
open Atomrep_replica
open Atomrep_chaos

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- fault schedules --- *)

let test_flap_cycles () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  Fault.flap net ~site:1 ~start:10.0 ~every:50.0 ~down_for:20.0;
  let samples = ref [] in
  List.iter
    (fun t ->
      Engine.schedule engine ~delay:t (fun () ->
          samples := (t, Network.site_up net 1) :: !samples))
    [ 5.0; 15.0; 35.0; 85.0; 105.0 ];
  Engine.run ~until:120.0 engine;
  let expect t = List.assoc t (List.rev !samples) in
  (* Down windows: [10,30) from [start], then [80,100) — the next crash
     comes [every] after the recovery, not after the previous crash. *)
  check_bool "up before start" true (expect 5.0);
  check_bool "down in first window" false (expect 15.0);
  check_bool "up between windows" true (expect 35.0);
  check_bool "down in second window" false (expect 85.0);
  check_bool "up after second window" true (expect 105.0)

let test_one_way_outage_is_asymmetric () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  Fault.one_way_outage net ~src:0 ~dst:1 ~every:10.0 ~duration:30.0;
  let forward = ref false and backward = ref false in
  Engine.schedule engine ~delay:15.0 (fun () ->
      Network.send net ~src:0 ~dst:1 (fun () -> forward := true);
      Network.send net ~src:1 ~dst:0 (fun () -> backward := true));
  (* Outage windows: [10,40), [50,80). A send at 45 lands in the healed
     gap and must get through. *)
  let healed = ref false in
  Engine.schedule engine ~delay:45.0 (fun () ->
      Network.send net ~src:0 ~dst:1 (fun () -> healed := true));
  Engine.run ~until:60.0 engine;
  check_bool "failed direction drops" false !forward;
  check_bool "reverse direction delivers" true !backward;
  check_bool "healed link delivers" true !healed

let test_clock_skew_schedule_fires () =
  let engine = Engine.create ~seed:3 in
  let net = Network.create engine ~n_sites:1 () in
  let injected = ref [] in
  Network.set_skew_handler net (fun ~site ~amount -> injected := (site, amount) :: !injected);
  Fault.clock_skew net ~site:0 ~every:25.0 ~max_skew:4;
  Engine.run ~until:260.0 engine;
  check_int "about ten injections" 10 (List.length !injected);
  check_bool "amounts bounded" true
    (List.for_all (fun (s, a) -> s = 0 && a >= 0 && a <= 4) !injected)

let test_rolling_partition_rotates () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:3 () in
  Fault.rolling_partition net ~every:50.0 ~duration:20.0;
  let first = ref None and second = ref None in
  (* First window isolates site 0, second isolates site 1. *)
  Engine.schedule engine ~delay:60.0 (fun () ->
      first := Some (Network.reachable net 0 1, Network.reachable net 1 2));
  Engine.schedule engine ~delay:130.0 (fun () ->
      second := Some (Network.reachable net 0 1, Network.reachable net 0 2));
  Engine.run ~until:150.0 engine;
  Alcotest.(check (option (pair bool bool)))
    "first window: 0 cut off, 1-2 fine" (Some (false, true)) !first;
  Alcotest.(check (option (pair bool bool)))
    "second window: 1 cut off, 0-2 fine" (Some (false, true)) !second

let test_duplication_and_counters () =
  let engine = Engine.create ~seed:7 in
  let net = Network.create engine ~n_sites:2 () in
  Network.set_duplication net 1.0;
  let deliveries = ref 0 in
  Network.send net ~src:0 ~dst:1 (fun () -> incr deliveries);
  Engine.run engine;
  check_int "duplicate delivered" 2 !deliveries;
  check_int "duplication counted" 1 (Network.stats net).Network.duplicated;
  (* Dead-destination deliveries are counted, not silently lost. *)
  Network.set_duplication net 0.0;
  Network.send net ~src:0 ~dst:1 (fun () -> ());
  Network.crash net 1;
  Engine.run engine;
  check_int "dead destination counted" 1 (Network.stats net).Network.dead_dest

let test_rpc_timeout_counter () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  Network.crash net 1;
  Rpc.call net ~src:0 ~dst:1 ~timeout:20.0 ~handler:(fun () -> ()) ~reply:ignore;
  Engine.run engine;
  check_int "timeout counted" 1 (Network.stats net).Network.rpc_timeouts

(* --- crash-amnesia and recovery --- *)

let ts c = { Atomrep_clock.Lamport.Timestamp.counter = c; site = 0 }

let entry c name seq event =
  Log.Entry
    {
      Log.ets = ts c;
      action = Action.of_string name;
      begin_ts = ts c;
      seq;
      event;
    }

let test_repository_amnesia_keeps_stable_state () =
  let repo = Repository.create ~site:0 () in
  Repository.append repo [ entry 1 "A" 0 (Queue_type.enq "x") ];
  Repository.append repo [ entry 2 "B" 0 (Queue_type.enq "y") ];
  Repository.append repo [ Log.Commit_record (Action.of_string "A", ts 3) ];
  Repository.intend repo
    { Repository.i_action = Action.of_string "C"; i_op = "Deq"; i_bts = ts 4; i_seq = 0 };
  Repository.amnesia repo;
  check_int "lock table gone" 0 (List.length (Repository.intentions repo));
  let log = Repository.read repo in
  check_int "only the committed entry survives" 1 (List.length (Log.entries log));
  check_bool "commit record survives" true
    (Option.is_some (Log.commit_ts log (Action.of_string "A")))

let test_amnesia_rejoin_resyncs_from_peer () =
  let engine = Engine.create ~seed:5 in
  let net = Network.create engine ~n_sites:3 () in
  Network.set_resync_quorum net 2;
  let obj =
    Replicated.create ~name:"q" ~spec:Queue_type.spec ~scheme:Replicated.Hybrid
      ~relation:(Static_dep.minimal Queue_type.spec ~max_len:3)
      ~assignment:(Runtime.default_queue_assignment ~n_sites:3)
      ~net ()
  in
  (* Site 2 is down with amnesia while a commit is broadcast: it misses the
     record entirely, so only rejoin-time state transfer can supply it. *)
  Network.crash_with_amnesia net 2;
  Replicated.broadcast_status obj
    (Log.Commit_record (Action.of_string "T0", ts 5))
    ~reachable_from:0;
  Engine.run engine;
  check_bool "missed while down" true
    (Option.is_none
       (Log.commit_ts (Replicated.repository_log obj ~site:2) (Action.of_string "T0")));
  check_bool "rejoin accepted" true (Network.recover_resync net 2);
  check_bool "record restored by resync" true
    (Option.is_some
       (Log.commit_ts (Replicated.repository_log obj ~site:2) (Action.of_string "T0")))

let test_resync_quorum_gates_rejoin () =
  let engine = Engine.create ~seed:5 in
  let net = Network.create engine ~n_sites:3 () in
  Network.set_resync_quorum net 2;
  Network.crash_with_amnesia net 2;
  Network.crash net 1;
  check_bool "one peer is not enough" false (Network.recover_resync net 2);
  check_bool "still down" false (Network.site_up net 2);
  Network.recover net 1;
  check_bool "two peers suffice" true (Network.recover_resync net 2);
  check_bool "up again" true (Network.site_up net 2)

(* --- determinism: the replay guarantee reproducers depend on --- *)

let storm_cfg seed =
  let profile =
    match Campaign.find_profile "storm" with
    | Some p -> p
    | None -> Alcotest.fail "storm profile missing"
  in
  Campaign.configure
    {
      base = Campaign.default_base;
      scheme = Replicated.Static;
      profile;
      seed;
      n_txns = 25;
      intensity = 1.0;
    }

let test_identical_seeds_replay_identically () =
  let o1 = Runtime.run (storm_cfg 11) and o2 = Runtime.run (storm_cfg 11) in
  let m1 = o1.Runtime.metrics and m2 = o2.Runtime.metrics in
  check_int "committed" m1.Runtime.committed m2.Runtime.committed;
  check_int "aborted" m1.Runtime.aborted m2.Runtime.aborted;
  check_int "ops" m1.Runtime.ops_done m2.Runtime.ops_done;
  check_int "blocked waits" m1.Runtime.blocked_waits m2.Runtime.blocked_waits;
  check_int "messages sent" m1.Runtime.msgs_sent m2.Runtime.msgs_sent;
  check_int "messages dropped" m1.Runtime.msgs_dropped m2.Runtime.msgs_dropped;
  check_int "messages duplicated" m1.Runtime.msgs_duplicated m2.Runtime.msgs_duplicated;
  check_int "rpc timeouts" m1.Runtime.rpc_timeouts m2.Runtime.rpc_timeouts;
  check_bool "identical histories" true (o1.Runtime.histories = o2.Runtime.histories)

let test_different_seeds_differ () =
  let o1 = Runtime.run (storm_cfg 11) and o2 = Runtime.run (storm_cfg 12) in
  check_bool "different histories" false (o1.Runtime.histories = o2.Runtime.histories)

(* --- campaigns --- *)

let test_small_campaign_is_clean () =
  let profiles =
    List.filter
      (fun p -> List.mem p.Campaign.profile_name [ "amnesia"; "storm" ])
      Campaign.builtin_profiles
  in
  let report =
    Campaign.report
      (Campaign.sweep ~flags:[]
         (Campaign.grid ~base:Campaign.default_base
            ~schemes:[ Replicated.Static; Replicated.Hybrid ]
            ~profiles ~seeds:3 ~intensities:[ 1.0 ] ~n_txns:30))
  in
  check_int "all cells swept" 12 report.Campaign.total_runs;
  check_int "no violations" 0 (List.length report.Campaign.violations);
  check_bool "work was done" true
    (List.for_all (fun c -> c.Campaign.c_committed > 0) report.Campaign.cells)

(* An intentionally weakened dependency relation (the Deq-vs-Deq pairs
   dropped) lets two concurrent Deqs race through the read phase without
   meeting a conflicting intention, double-dequeueing an element. The
   campaign must catch it and shrink the reproducer. *)
let weakened_base =
  let spec = Queue_type.spec in
  let full = Static_dep.minimal spec ~max_len:4 in
  let weak =
    Relation.of_list
      (List.filter
         (fun ((inv : Event.Invocation.t), (e : Event.t)) ->
           not (String.equal inv.op "Deq" && String.equal e.inv.op "Deq"))
         (Relation.elements full))
  in
  {
    Campaign.default_base with
    Runtime.arrival_mean = 3.0;
    objects =
      [
        {
          Runtime.obj_name = "queue";
          obj_spec = spec;
          obj_relation = weak;
          obj_assignment = Runtime.default_queue_assignment ~n_sites:3;
            obj_members = None;
        };
      ];
  }

let test_weakened_relation_is_caught_and_shrunk () =
  let profiles =
    List.filter
      (fun p -> String.equal p.Campaign.profile_name "flaky")
      Campaign.builtin_profiles
  in
  let n_txns = 40 in
  let report =
    Campaign.report
      (Campaign.sweep ~flags:[]
         (Campaign.grid ~base:weakened_base ~schemes:[ Replicated.Static ] ~profiles
            ~seeds:10 ~intensities:[ 1.0 ] ~n_txns))
  in
  check_bool "campaign catches the weakened relation" true
    (report.Campaign.violations <> []);
  let v = List.hd report.Campaign.violations in
  check_bool "shrunk txn count" true (v.Campaign.v_task.n_txns <= n_txns);
  check_bool "shrunk reproducer still fails" true (v.Campaign.v_failures <> []);
  check_bool "reproducer line is self-contained" true
    (let line = Campaign.reproducer_line v in
     String.length line > 0
     && String.sub line 0 13 = "atomrep chaos");
  (* The reproducer tuple replays to the same verdict. *)
  let _, failures = Campaign.run v.Campaign.v_task in
  check_bool "reproducer replays deterministically" true (failures <> [])

(* The weakened campaign on one and on two domains: the same chaos table
   (cells, shrunk violations with their failures and postmortem paths),
   the same reproducer lines, and the same postmortem files. *)
let test_weakened_campaign_domain_independent () =
  let profiles =
    List.filter
      (fun p -> String.equal p.Campaign.profile_name "flaky")
      Campaign.builtin_profiles
  in
  let tasks =
    Campaign.grid ~base:weakened_base ~schemes:[ Replicated.Static ] ~profiles ~seeds:4
      ~intensities:[ 1.0 ] ~n_txns:40
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "atomrep-sweep-%d" (Unix.getpid ()))
  in
  let on domains =
    let report =
      Campaign.report
        (Campaign.sweep ~domains ~postmortem_dir:dir ~flags:[ "--durability"; "none" ] tasks)
    in
    let files = if Sys.file_exists dir then Sys.readdir dir else [||] in
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
    if Sys.file_exists dir then Sys.rmdir dir;
    Array.sort String.compare files;
    ( Format.asprintf "%a" Campaign.pp_report report,
      List.map Campaign.reproducer_line report.Campaign.violations,
      Array.to_list files )
  in
  let table1, lines1, files1 = on 1 and table2, lines2, files2 = on 2 in
  check_bool "the campaign has violations to shrink" true (lines1 <> []);
  check_bool "a postmortem and a trace per violation" true
    (List.length files1 = 2 * List.length lines1);
  Alcotest.(check string) "same table" table1 table2;
  Alcotest.(check (list string)) "same reproducer lines" lines1 lines2;
  Alcotest.(check (list string)) "same postmortem files" files1 files2

(* Replays sharing one trace bus (chaos --repro --trace) reuse transaction
   names; each must still be judged on its own events only. The tuple is
   one where folding the whole shared bus flagged hedge_safety(T0) and
   no_divergence(T9) on the later schemes. *)
let test_shared_bus_replays_judged_alone () =
  let profile =
    match Campaign.find_profile "crashes" with
    | Some p -> p
    | None -> Alcotest.fail "crashes profile missing"
  in
  let replay trace scheme =
    let _, failures =
      Campaign.run ~monitors:Monitors.registry ~trace
        { base = Campaign.default_base; scheme; profile; seed = 2; n_txns = 30; intensity = 1.0 }
    in
    List.map fst failures
  in
  let fresh () =
    Atomrep_obs.Trace.create ~n_sites:Campaign.default_base.Runtime.n_sites ()
  in
  let shared = fresh () in
  List.iter
    (fun scheme ->
      let before = Atomrep_obs.Trace.length shared in
      let on_shared = replay shared scheme in
      check_bool "the replay landed on the shared bus" true
        (Atomrep_obs.Trace.length shared > before);
      Alcotest.(check (list string))
        (Replicated.scheme_name scheme ^ " verdict as if judged alone")
        (replay (fresh ()) scheme) on_shared)
    Replicated.[ Static; Hybrid; Locking ]

let test_nemesis_scale_soft_limits () =
  let nem =
    Nemesis.Compose
      [
        Nemesis.Crash_storm { mtbf = 100.0; mttr = 50.0; amnesia = true };
        Nemesis.Flaky_links { drop = 0.2; dup = 0.2; spike = 0.2; one_way = false };
        Nemesis.Skew { every = 100.0; max_skew = 4 };
      ]
  in
  match Nemesis.scale 0.5 nem with
  | Nemesis.Compose
      [ Nemesis.Crash_storm c; Nemesis.Flaky_links f; Nemesis.Skew s ] ->
    check_bool "rarer crashes" true (c.mtbf > 100.0);
    check_bool "faster repairs" true (c.mttr < 50.0);
    check_bool "less loss" true (f.drop < 0.2);
    check_int "half the skew" 2 s.max_skew
  | _ -> Alcotest.fail "scale changed the nemesis shape"

(* A reproducer line carries the flags that built the campaign's base,
   --ungated-rejoin when the base re-enables it, and any monitor selection
   other than chaos's default. *)
let test_reproducer_line_carries_flags () =
  let flags = [ "--termination"; "cooperative"; "--takeover" ] in
  let v v_flags =
    {
      Campaign.v_task =
        {
          base = Campaign.default_base;
          scheme = Replicated.Hybrid;
          profile = List.hd Campaign.builtin_profiles;
          seed = 3;
          n_txns = 20;
          intensity = 0.5;
        };
      v_failures = [];
      v_postmortem = None;
      v_flags;
    }
  in
  let line ~base ~monitors =
    Campaign.reproducer_line (v (Campaign.replay_flags ~base ~monitors flags))
  in
  Alcotest.(check string)
    "default monitors add no flag"
    "atomrep chaos --repro --schemes hybrid --profiles crashes --seed 3 --txns 20 \
     --intensity 0.5 --termination cooperative --takeover"
    (line ~base:Campaign.default_base ~monitors:Monitors.history);
  check_bool "whole catalogue" true
    (String.ends_with ~suffix:"--takeover --monitor all"
       (line ~base:Campaign.default_base ~monitors:Monitors.registry));
  Alcotest.(check string)
    "ungated rejoin replays with its flag"
    "atomrep chaos --repro --schemes hybrid --profiles crashes --seed 3 --txns 20 \
     --intensity 0.5 --termination cooperative --takeover --ungated-rejoin --monitor all"
    (line
       ~base:{ Campaign.default_base with Runtime.ungated_rejoin = true }
       ~monitors:Monitors.registry)

let suites =
  [
    ( "chaos",
      [
        Alcotest.test_case "flapping cycles" `Quick test_flap_cycles;
        Alcotest.test_case "one-way outage asymmetric" `Quick
          test_one_way_outage_is_asymmetric;
        Alcotest.test_case "clock-skew schedule" `Quick test_clock_skew_schedule_fires;
        Alcotest.test_case "rolling partition rotates" `Quick
          test_rolling_partition_rotates;
        Alcotest.test_case "duplication and counters" `Quick
          test_duplication_and_counters;
        Alcotest.test_case "rpc timeout counter" `Quick test_rpc_timeout_counter;
        Alcotest.test_case "amnesia keeps stable state" `Quick
          test_repository_amnesia_keeps_stable_state;
        Alcotest.test_case "rejoin resyncs from peers" `Quick
          test_amnesia_rejoin_resyncs_from_peer;
        Alcotest.test_case "resync quorum gates rejoin" `Quick
          test_resync_quorum_gates_rejoin;
        Alcotest.test_case "identical seeds replay identically" `Quick
          test_identical_seeds_replay_identically;
        Alcotest.test_case "different seeds differ" `Quick test_different_seeds_differ;
        Alcotest.test_case "weakened campaign independent of domain count" `Quick
          test_weakened_campaign_domain_independent;
        Alcotest.test_case "small campaign clean" `Quick test_small_campaign_is_clean;
        Alcotest.test_case "weakened relation caught and shrunk" `Quick
          test_weakened_relation_is_caught_and_shrunk;
        Alcotest.test_case "shared-bus replays judged alone" `Quick
          test_shared_bus_replays_judged_alone;
        Alcotest.test_case "nemesis intensity scaling" `Quick
          test_nemesis_scale_soft_limits;
        Alcotest.test_case "reproducer line carries the flags" `Quick
          test_reproducer_line_carries_flags;
      ] );
  ]
