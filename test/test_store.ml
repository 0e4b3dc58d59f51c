(* Stable storage: the simulated WAL's flush/crash/recover contract,
   checkpoint compaction, storage fault injection, the durable repository
   wiring, and the corrupted-segment -> quorum-gated-resync path. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_clock
open Atomrep_sim
open Atomrep_replica
module Wal = Atomrep_store.Wal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ts c = { Lamport.Timestamp.counter = c; site = 0 }

let entry c name seq event =
  Log.Entry
    {
      Log.ets = ts c;
      action = Action.of_string name;
      begin_ts = ts c;
      seq;
      event;
    }

(* --- WAL unit tests --- *)

let test_crash_drops_unflushed_suffix () =
  let w = Wal.create () in
  Wal.append w "a";
  Wal.append w "b";
  (match Wal.flush w with Ok 2 -> () | _ -> Alcotest.fail "flush");
  Wal.append w "c";
  Wal.crash w;
  let r = Wal.recover w in
  Alcotest.(check (list string)) "flushed prefix" [ "a"; "b" ] r.Wal.tail;
  check_int "replayed" 2 r.Wal.replayed;
  check_int "nothing truncated" 0 r.Wal.truncated;
  check_bool "not corrupt" false r.Wal.corrupt

let test_torn_tail_truncated_not_corrupt () =
  let w = Wal.create () in
  Wal.append w "a";
  ignore (Wal.flush w);
  Wal.inject w Wal.Torn_write;
  Wal.append w "b";
  Wal.crash w;
  check_int "torn write persisted" 2 (Wal.durable_size w);
  let r = Wal.recover w in
  Alcotest.(check (list string)) "prefix survives" [ "a" ] r.Wal.tail;
  check_int "torn record dropped" 1 r.Wal.truncated;
  check_bool "an expected torn tail, not corruption" false r.Wal.corrupt;
  check_int "torn writes counted" 1 (Wal.stats w).Wal.torn_writes;
  (* Truncation is physical, so a second recovery is a fixpoint. *)
  let r2 = Wal.recover w in
  Alcotest.(check (list string)) "same prefix" [ "a" ] r2.Wal.tail;
  check_int "nothing left to truncate" 0 r2.Wal.truncated

let test_mid_log_bit_rot_is_corruption () =
  let w = Wal.create () in
  List.iter (Wal.append w) [ "a"; "b"; "c" ];
  ignore (Wal.flush w);
  Wal.inject w (Wal.Bit_rot 1) (* second-oldest durable record *);
  let r = Wal.recover w in
  Alcotest.(check (list string)) "valid prefix only" [ "a" ] r.Wal.tail;
  check_int "rotted record and its suffix dropped" 2 r.Wal.truncated;
  check_bool "detected as corruption" true r.Wal.corrupt;
  check_int "rot counted" 1 (Wal.stats w).Wal.rotted

let test_lost_flush_persists_nothing () =
  let w = Wal.create () in
  Wal.append w "a";
  Wal.inject w Wal.Lost_flush;
  (match Wal.flush w with
  | Ok 1 -> () (* the barrier was acknowledged... *)
  | _ -> Alcotest.fail "lost flush still acks");
  Wal.crash w;
  let r = Wal.recover w in
  check_int "...but nothing hit the platter" 0 r.Wal.replayed;
  check_int "lost flush counted" 1 (Wal.stats w).Wal.lost_flushes

let test_disk_full_rejects_until_freed () =
  let w = Wal.create () in
  Wal.inject w Wal.Disk_full;
  Wal.append w "a";
  (match Wal.flush w with
  | Error `Disk_full -> ()
  | Ok _ -> Alcotest.fail "full disk must reject the barrier");
  check_int "rejection counted" 1 (Wal.stats w).Wal.full_rejections;
  Wal.inject w Wal.Disk_free;
  (match Wal.flush w with
  | Ok 1 -> () (* the buffer survived the rejection *)
  | _ -> Alcotest.fail "freed disk flushes the retained buffer");
  check_int "durable now" 1 (Wal.durable_size w)

let test_segments_roll_and_checkpoint_compacts () =
  let w = Wal.create ~segment_records:4 () in
  for i = 1 to 10 do
    Wal.append w (string_of_int i);
    ignore (Wal.flush w)
  done;
  check_int "segments rolled" 3 (Wal.segments w);
  check_int "ten durable records" 10 (Wal.durable_size w);
  (match Wal.checkpoint w [ "s1"; "s2" ] with
  | Ok 3 -> () (* three segments compacted away *)
  | _ -> Alcotest.fail "checkpoint");
  check_int "one segment left" 1 (Wal.segments w);
  check_int "one snapshot cell" 1 (Wal.durable_size w);
  Wal.append w "t";
  ignore (Wal.flush w);
  let r = Wal.recover w in
  Alcotest.(check (list string)) "snapshot restored" [ "s1"; "s2" ] r.Wal.snapshot;
  Alcotest.(check (list string)) "tail after the checkpoint" [ "t" ] r.Wal.tail;
  check_int "replay = snapshot + tail" 3 r.Wal.replayed

(* --- qcheck: recovery is exact and idempotent --- *)

(* For any seed-derived schedule of appends, flushes, and armed torn
   writes, crash-recovery replays exactly the flushed prefix, and
   replay . crash . replay is a fixpoint. *)
let prop_recovery_exact_and_idempotent =
  QCheck2.Test.make ~name:"recovery replays exactly the flushed prefix"
    ~count:300 QCheck2.Gen.nat (fun seed ->
      let rng = Atomrep_stats.Rng.create seed in
      let w =
        Wal.create ~segment_records:(1 + Atomrep_stats.Rng.int rng 7) ()
      in
      let flushed = ref [] (* newest first *) and buffered = ref [] in
      for i = 1 to 2 + Atomrep_stats.Rng.int rng 40 do
        match Atomrep_stats.Rng.int rng 4 with
        | 0 | 1 ->
          Wal.append w i;
          buffered := i :: !buffered
        | 2 ->
          ignore (Wal.flush w);
          flushed := !buffered @ !flushed;
          buffered := []
        | _ -> Wal.inject w Wal.Torn_write
      done;
      Wal.crash w;
      let expect = List.rev !flushed in
      let r = Wal.recover w in
      let r2 =
        Wal.crash w;
        Wal.recover w
      in
      r.Wal.snapshot = [] && r.Wal.tail = expect && not r.Wal.corrupt
      && r2.Wal.tail = expect && r2.Wal.truncated = 0)

(* --- repository durability --- *)

(* The amnesia high-watermark regression: the volatile watermark must be
   recomputed from the stable log. Before the fix, a site that had merely
   witnessed a tentative timestamp kept claiming it after amnesia — i.e.
   it over-witnessed a timestamp it never durably saw. *)
let test_volatile_amnesia_recomputes_high () =
  let r = Repository.create ~site:0 () in
  Repository.append r
    [
      entry 1 "A" 0 (Queue_type.enq "x");
      Log.Commit_record (Action.of_string "A", ts 5);
    ];
  Repository.append r [ entry 10 "B" 0 (Queue_type.enq "y") ] (* tentative *);
  check_int "watermark witnessed the tentative entry" 10
    (Repository.high_ts r).Lamport.Timestamp.counter;
  Repository.amnesia r;
  check_int "after amnesia: largest durably-seen timestamp" 5
    (Repository.high_ts r).Lamport.Timestamp.counter

let test_durable_amnesia_keeps_flushed_prefix_only () =
  let r =
    Repository.create ~durability:(Repository.durable ~group_commit:true ())
      ~site:0 ()
  in
  (* Entry-only batch under group commit: buffered, not yet durable. *)
  Repository.append r [ entry 1 "A" 0 (Queue_type.enq "x") ];
  (match Repository.store r with
  | Some w -> check_int "group commit defers the barrier" 0 (Wal.durable_size w)
  | None -> Alcotest.fail "durable repository must expose its WAL");
  Repository.amnesia r;
  (match Repository.recover r with
  | Some rec1 -> check_int "nothing was durable" 0 rec1.Repository.r_replayed
  | None -> Alcotest.fail "durable recover");
  check_int "log empty after recovery" 0 (Log.size (Repository.read r));
  (* A batch carrying a commit record flushes everything buffered. *)
  Repository.append r [ entry 2 "A" 0 (Queue_type.enq "x") ];
  Repository.append r [ Log.Commit_record (Action.of_string "A", ts 7) ];
  Repository.amnesia r;
  (match Repository.recover r with
  | Some rec2 -> check_int "both records replayed" 2 rec2.Repository.r_replayed
  | None -> Alcotest.fail "durable recover");
  let log = Repository.read r in
  check_int "entry restored" 1 (List.length (Log.entries log));
  check_bool "commit restored" true
    (Option.is_some (Log.commit_ts log (Action.of_string "A")));
  check_int "watermark restored from the WAL" 7
    (Repository.high_ts r).Lamport.Timestamp.counter

let test_epoch_fencing_is_durable () =
  let r =
    Repository.create ~durability:(Repository.durable ~group_commit:true ())
      ~site:0 ()
  in
  Repository.advance_epoch r 3;
  (match Repository.store r with
  | Some w ->
    check_bool "epoch joins flush immediately, group commit or not" true
      (Wal.durable_size w >= 1)
  | None -> Alcotest.fail "durable repository must expose its WAL");
  Repository.amnesia r;
  ignore (Repository.recover r);
  check_int "epoch survives crash via the WAL" 3 (Repository.epoch r)

(* Checkpoint compaction is observationally invisible: for every type in
   the registry, a compacted-then-recovered repository computes the same
   view, high watermark, and epoch as an uncompacted one. *)
let test_checkpoint_observational_equality_all_types () =
  List.iter
    (fun (name, spec) ->
      let events =
        List.filteri (fun i _ -> i < 6) (Serial_spec.event_universe spec ~max_len:3)
      in
      let records =
        List.concat
          (List.mapi
             (fun i ev ->
               let a = "A" ^ string_of_int i in
               entry (i + 1) a 0 ev
               ::
               (if i = 1 then [ Log.Abort_record (Action.of_string a) ]
                else if i mod 2 = 0 then
                  [ Log.Commit_record (Action.of_string a, ts (100 + i)) ]
                else []))
             events)
      in
      let mk () =
        let r =
          Repository.create
            ~durability:(Repository.durable ~segment_records:4 ())
            ~site:0 ()
        in
        List.iter (fun rc -> Repository.append r [ rc ]) records;
        Repository.advance_epoch r 2;
        r
      in
      let compacted = mk () and plain = mk () in
      Repository.checkpoint compacted;
      List.iter Repository.amnesia [ compacted; plain ];
      List.iter (fun r -> ignore (Repository.recover r)) [ compacted; plain ];
      let observe r =
        let v = View.of_log spec (Repository.read r) in
        ( List.map Event.to_string (View.committed_events v),
          List.length (View.tentative v),
          Repository.high_ts r,
          Repository.epoch r )
      in
      check_bool (name ^ ": compaction observationally invisible") true
        (observe compacted = observe plain))
    Type_registry.all

(* --- corrupted segment -> quorum-gated resync (acceptance) --- *)

let test_corrupt_recovery_routed_through_resync () =
  let engine = Engine.create ~seed:7 in
  let net = Network.create engine ~n_sites:3 () in
  Network.set_resync_quorum net 2;
  let obj =
    Replicated.create ~name:"q" ~spec:Queue_type.spec ~scheme:Replicated.Hybrid
      ~relation:(Static_dep.minimal Queue_type.spec ~max_len:3)
      ~assignment:(Runtime.default_queue_assignment ~n_sites:3)
      ~net ~durability:(Repository.durable ()) ()
  in
  Replicated.broadcast_status obj
    (Log.Commit_record (Action.of_string "T0", ts 5))
    ~reachable_from:0;
  Engine.run engine;
  (* Site 2 crashes; while it is down its durable log rots, and it misses
     a second commit entirely. *)
  Network.crash_with_amnesia net 2;
  Network.inject_storage_fault net ~site:2 (Wal.Bit_rot 0);
  Replicated.broadcast_status obj
    (Log.Commit_record (Action.of_string "T1", ts 6))
    ~reachable_from:0;
  Engine.run engine;
  (* With only one live peer the rejoin is refused: no recovery runs, the
     corrupt log is not served. *)
  Network.crash net 1;
  check_bool "resync quorum gates the rejoin" false (Network.recover_resync net 2);
  check_int "no recovery before the quorum" 0 (List.length (Replicated.recoveries obj));
  Network.recover net 1;
  check_bool "rejoin accepted with a quorum" true (Network.recover_resync net 2);
  (match Replicated.recoveries obj with
  | [ r ] ->
    check_int "recovered site" 2 r.Repository.r_site;
    check_bool "corruption detected at recovery" true r.Repository.r_corrupt;
    check_int "corrupt suffix discarded" 0 r.Repository.r_replayed
  | l -> Alcotest.failf "expected one recovery, got %d" (List.length l));
  let log = Replicated.repository_log obj ~site:2 in
  check_bool "rotted record restored by peer resync" true
    (Option.is_some (Log.commit_ts log (Action.of_string "T0")));
  check_bool "missed record restored by peer resync" true
    (Option.is_some (Log.commit_ts log (Action.of_string "T1")));
  check_int "fault counted" 1 (Network.stats net).Network.storage_faults

(* --- storage_storm campaign and determinism --- *)

let storage_storm () =
  match Atomrep_chaos.Campaign.find_profile "storage_storm" with
  | Some p -> p
  | None -> Alcotest.fail "storage_storm profile missing"

let test_storage_storm_campaign_clean () =
  let module Campaign = Atomrep_chaos.Campaign in
  let report =
    Campaign.report
      (Campaign.sweep ~flags:[]
         (Campaign.grid ~base:Campaign.storage_base ~schemes:[ Replicated.Hybrid ]
            ~profiles:[ storage_storm () ]
            ~seeds:3 ~intensities:[ 1.0 ] ~n_txns:30))
  in
  check_int "three runs" 3 report.Campaign.total_runs;
  check_bool "no violations under storage faults" true
    (report.Campaign.violations = [])

let test_durable_runs_deterministic () =
  let module Campaign = Atomrep_chaos.Campaign in
  let cfg =
    Campaign.configure
      {
        base = Campaign.storage_base;
        scheme = Replicated.Hybrid;
        profile = storage_storm ();
        seed = 11;
        n_txns = 25;
        intensity = 1.0;
      }
  in
  let o1 = Runtime.run cfg and o2 = Runtime.run cfg in
  let m1 = o1.Runtime.metrics and m2 = o2.Runtime.metrics in
  check_int "committed" m1.Runtime.committed m2.Runtime.committed;
  check_int "wal flushes" m1.Runtime.wal_flushes m2.Runtime.wal_flushes;
  check_int "flushed records" m1.Runtime.wal_flushed_records
    m2.Runtime.wal_flushed_records;
  check_int "torn writes" m1.Runtime.wal_torn_writes m2.Runtime.wal_torn_writes;
  check_int "rotted" m1.Runtime.wal_rotted m2.Runtime.wal_rotted;
  check_int "checkpoints" m1.Runtime.wal_checkpoints m2.Runtime.wal_checkpoints;
  check_int "recoveries" m1.Runtime.recoveries m2.Runtime.recoveries;
  check_int "storage faults" m1.Runtime.storage_faults m2.Runtime.storage_faults;
  check_bool "identical histories" true (o1.Runtime.histories = o2.Runtime.histories)

let suites =
  [
    ( "store",
      [
        Alcotest.test_case "crash drops unflushed suffix" `Quick
          test_crash_drops_unflushed_suffix;
        Alcotest.test_case "torn tail truncated, not corrupt" `Quick
          test_torn_tail_truncated_not_corrupt;
        Alcotest.test_case "mid-log bit rot is corruption" `Quick
          test_mid_log_bit_rot_is_corruption;
        Alcotest.test_case "lost flush persists nothing" `Quick
          test_lost_flush_persists_nothing;
        Alcotest.test_case "disk full rejects until freed" `Quick
          test_disk_full_rejects_until_freed;
        Alcotest.test_case "segments roll, checkpoint compacts" `Quick
          test_segments_roll_and_checkpoint_compacts;
        QCheck_alcotest.to_alcotest prop_recovery_exact_and_idempotent;
        Alcotest.test_case "volatile amnesia recomputes high watermark" `Quick
          test_volatile_amnesia_recomputes_high;
        Alcotest.test_case "durable amnesia keeps flushed prefix" `Quick
          test_durable_amnesia_keeps_flushed_prefix_only;
        Alcotest.test_case "epoch fencing is durable" `Quick
          test_epoch_fencing_is_durable;
        Alcotest.test_case "checkpoint observationally invisible (all types)"
          `Quick test_checkpoint_observational_equality_all_types;
        Alcotest.test_case "corrupt recovery routed through resync" `Quick
          test_corrupt_recovery_routed_through_resync;
        Alcotest.test_case "storage_storm campaign clean" `Quick
          test_storage_storm_campaign_clean;
        Alcotest.test_case "durable runs deterministic" `Quick
          test_durable_runs_deterministic;
      ] );
  ]
