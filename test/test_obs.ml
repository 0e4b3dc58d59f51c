(* Observability: trace bus stamps, span trees, exporters, the metrics
   registry, the tracing-off overhead guard, and the causal postmortem for
   the pre-fix amnesia double-dequeue. *)

open Atomrep_replica
open Atomrep_chaos
module Trace = Atomrep_obs.Trace
module Json = Atomrep_obs.Json
module Metrics = Atomrep_obs.Metrics
module Export = Atomrep_obs.Export
module Postmortem = Atomrep_obs.Postmortem

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let storm () =
  match Campaign.find_profile "storm" with
  | Some p -> p
  | None -> Alcotest.fail "storm profile missing"

(* A fault-free fixed-seed run with a bus attached. *)
let clean_traced_run () =
  let trace = Trace.create ~n_sites:3 () in
  let cfg =
    { Runtime.default_config with Runtime.seed = 42; n_txns = 30; trace = Some trace }
  in
  (trace, Runtime.run cfg)

(* A storm run with a bus attached: crashes, partitions, drops. *)
let storm_traced_run () =
  let trace = Trace.create ~n_sites:3 () in
  let cfg =
    Campaign.configure ~trace
      {
        base = Campaign.default_base;
        scheme = Replicated.Static;
        profile = storm ();
        seed = 11;
        n_txns = 25;
        intensity = 1.0;
      }
  in
  (trace, Runtime.run cfg)

(* --- the bus itself --- *)

let test_disabled_bus_is_inert () =
  check_bool "null disabled" false (Trace.enabled Trace.null);
  check_int "emit returns -1" (-1)
    (Trace.emit Trace.null ~site:0 (Trace.Txn_begin { txn = "T0" }));
  check_int "span_begin returns -1" (-1) (Trace.span_begin Trace.null ~site:0 "txn");
  Trace.span_end Trace.null ~site:0 ~span:(-1) ~outcome:"done";
  check_int "nothing recorded" 0 (Trace.length Trace.null)

let test_emit_stamps_and_edges () =
  let tr = Trace.create ~n_sites:2 () in
  let a = Trace.emit tr ~site:0 (Trace.Txn_begin { txn = "T0" }) in
  let b = Trace.emit tr ~site:0 (Trace.Rpc_send { src = 0; dst = 1 }) in
  let c = Trace.emit tr ~site:1 ~cause:b (Trace.Rpc_recv { src = 0; dst = 1 }) in
  let ev i = Trace.get tr i in
  check_int "program-order lamport" 1 (ev a).Trace.lamport;
  check_int "second event advances" 2 (ev b).Trace.lamport;
  check_bool "prev chains the site" true ((ev b).Trace.prev = Some a);
  check_bool "delivery names its send" true ((ev c).Trace.cause = Some b);
  check_bool "delivery after send (lamport)" true
    ((ev c).Trace.lamport > (ev b).Trace.lamport);
  (* A negative cause (a disabled emit's id) is treated as absent. *)
  let d = Trace.emit tr ~site:1 ~cause:(-1) Trace.Heal in
  check_bool "negative cause dropped" true ((ev d).Trace.cause = None)

(* --- span trees from a real run --- *)

let test_span_tree_well_formed () =
  let trace, _ = clean_traced_run () in
  let spans = Trace.spans trace in
  check_bool "spans exist" true (spans <> []);
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace tbl s.Trace.span_id s) spans;
  List.iter
    (fun s ->
      check_bool "closed at horizon" true (s.Trace.t_end <> None);
      check_bool "outcome recorded" true (s.Trace.span_outcome <> None);
      (match s.Trace.t_end with
       | Some te -> check_bool "non-negative duration" true (te >= s.Trace.t_begin)
       | None -> ());
      match s.Trace.span_parent with
      | None -> ()
      | Some p ->
        (match Hashtbl.find_opt tbl p with
         | None -> Alcotest.fail "span parent missing from the trace"
         | Some parent ->
           check_bool "parent opened first" true
             (parent.Trace.t_begin <= s.Trace.t_begin)))
    spans;
  (* Every transaction opens a txn span; ops and commits nest under it. *)
  let with_label l = List.filter (fun s -> s.Trace.label = l) spans in
  check_int "one txn span per transaction" 30 (List.length (with_label "txn"));
  check_bool "commit spans nest under txns" true
    (List.for_all (fun s -> s.Trace.span_parent <> None) (with_label "commit"))

let test_span_durations_feed_histograms () =
  let trace, outcome = clean_traced_run () in
  let durations = Trace.span_durations trace in
  check_bool "txn label present" true (List.mem_assoc "txn" durations);
  (* The runtime folds the same histograms into the registry. *)
  let scheme_l =
    [ ("scheme", Replicated.scheme_name Runtime.default_config.Runtime.scheme) ]
  in
  let s =
    Metrics.histogram_summary outcome.Runtime.registry ~labels:scheme_l "span.txn"
  in
  check_int "registry histogram matches" 30 (Atomrep_stats.Summary.count s)

(* --- Lamport discipline under chaos --- *)

let test_lamport_monotone_per_site () =
  let trace, _ = storm_traced_run () in
  check_bool "storm produced events" true (Trace.length trace > 100);
  let last = Hashtbl.create 8 in
  List.iter
    (fun e ->
      (match Hashtbl.find_opt last e.Trace.site with
       | Some l ->
         check_bool "strictly increasing per site" true (e.Trace.lamport > l)
       | None -> ());
      Hashtbl.replace last e.Trace.site e.Trace.lamport;
      (* Causal edges respect the clock condition. *)
      match e.Trace.cause with
      | Some c ->
        check_bool "cause happens-before (lamport)" true
          ((Trace.get trace c).Trace.lamport < e.Trace.lamport)
      | None -> ())
    (Trace.events trace)

(* --- exporters --- *)

let test_chrome_export_round_trips () =
  let trace, _ = storm_traced_run () in
  match Json.parse (Export.chrome_string trace) with
  | Error e -> Alcotest.fail ("chrome export is not valid JSON: " ^ e)
  | Ok doc ->
    (match Json.member "traceEvents" doc with
     | Some (Json.List entries) ->
       check_int "event count round-trips" (Export.expected_chrome_events trace)
         (List.length entries)
     | _ -> Alcotest.fail "traceEvents missing")

let test_jsonl_every_line_parses () =
  let trace, _ = clean_traced_run () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Export.jsonl trace))
  in
  check_int "one line per event" (Trace.length trace) (List.length lines);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("bad JSONL line: " ^ e))
    lines

let test_flame_mentions_span_labels () =
  let trace, _ = clean_traced_run () in
  let flame = Export.flame trace in
  let has needle =
    let nl = String.length needle and fl = String.length flame in
    let rec go i = i + nl <= fl && (String.sub flame i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "txn row" true (has "txn");
  check_bool "commit row" true (has "commit")

(* --- metrics registry --- *)

let test_registry_get_or_create () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg ~labels:[ ("scheme", "static"); ("reason", "x") ] "c" in
  (* Same identity under reordered labels: same underlying cell. *)
  let b = Metrics.counter reg ~labels:[ ("reason", "x"); ("scheme", "static") ] "c" in
  Metrics.incr a;
  Metrics.incr b;
  check_int "shared cell" 2
    (Metrics.counter_value reg ~labels:[ ("scheme", "static"); ("reason", "x") ] "c");
  check_int "absent identity reads 0" 0 (Metrics.counter_value reg "missing");
  let other = Metrics.counter reg ~labels:[ ("scheme", "hybrid") ] "c" in
  Metrics.add other 3;
  check_int "sum over label sets" 5 (Metrics.counter_sum reg "c")

let test_registry_json_parses () =
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter reg ~labels:[ ("scheme", "static") ] "txn.committed");
  Metrics.set (Metrics.gauge reg "sim.duration") 12.5;
  Metrics.observe (Metrics.histogram reg "txn.latency") 3.0;
  match Json.parse (Json.to_string (Metrics.to_json reg)) with
  | Error e -> Alcotest.fail ("metrics JSON invalid: " ^ e)
  | Ok doc ->
    check_bool "counters section" true (Json.member "counters" doc <> None);
    check_bool "gauges section" true (Json.member "gauges" doc <> None);
    check_bool "histograms section" true (Json.member "histograms" doc <> None)

let test_run_populates_registry () =
  let _, outcome = clean_traced_run () in
  let reg = outcome.Runtime.registry in
  let m = outcome.Runtime.metrics in
  check_int "committed counter is the projection's source" m.Runtime.committed
    (Metrics.counter_sum reg "txn.committed");
  check_int "ops counter" m.Runtime.ops_done (Metrics.counter_sum reg "op.done")

(* --- tracing-off overhead guard: bit-identical runs --- *)

let overhead_cfg trace =
  Campaign.configure ?trace
    {
      base = Campaign.default_base;
      scheme = Replicated.Static;
      profile = storm ();
      seed = 3;
      n_txns = 25;
      intensity = 1.0;
    }

let test_tracing_off_is_metric_identical () =
  let off = Runtime.run (overhead_cfg None) in
  let on = Runtime.run (overhead_cfg (Some (Trace.create ~n_sites:3 ()))) in
  let m1 = off.Runtime.metrics and m2 = on.Runtime.metrics in
  check_int "committed" m1.Runtime.committed m2.Runtime.committed;
  check_int "aborted" m1.Runtime.aborted m2.Runtime.aborted;
  check_int "ops" m1.Runtime.ops_done m2.Runtime.ops_done;
  check_int "blocked waits" m1.Runtime.blocked_waits m2.Runtime.blocked_waits;
  check_int "messages sent" m1.Runtime.msgs_sent m2.Runtime.msgs_sent;
  check_int "messages dropped" m1.Runtime.msgs_dropped m2.Runtime.msgs_dropped;
  check_int "rpc timeouts" m1.Runtime.rpc_timeouts m2.Runtime.rpc_timeouts;
  check_bool "identical simulated duration" true
    (m1.Runtime.duration = m2.Runtime.duration);
  check_bool "identical histories" true (off.Runtime.histories = on.Runtime.histories)

(* --- causal postmortems --- *)

let test_actions_of_failure_tokens () =
  Alcotest.(check (list string))
    "tokens deduplicated in order" [ "T3"; "T12" ]
    (Postmortem.actions_of_failure "T3 overtakes T12 because T3 raced")

let test_causal_cone_walks_both_edges () =
  let tr = Trace.create ~n_sites:2 () in
  let a = Trace.emit tr ~site:0 (Trace.Txn_begin { txn = "T0" }) in
  let b = Trace.emit tr ~site:0 (Trace.Rpc_send { src = 0; dst = 1 }) in
  let c = Trace.emit tr ~site:1 ~cause:b (Trace.Rpc_recv { src = 0; dst = 1 }) in
  let unrelated = Trace.emit tr ~site:1 Trace.Heal in
  let cone = Postmortem.causal_cone tr ~targets:[ c ] in
  let ids = List.map (fun e -> e.Trace.id) cone in
  check_bool "target included" true (List.mem c ids);
  check_bool "cause pulled in" true (List.mem b ids);
  check_bool "program-order past pulled in" true (List.mem a ids);
  check_bool "future excluded" false (List.mem unrelated ids)

(* Targets are every event whose fields name a violating transaction, not
   only the txn_*, lock_* and repo_append kinds: T7's last events
   (its commit point, a driver's verdict and a cooperative-termination
   round at site 2, after unrelated events there) are all targets of a
   failure naming T7, and an event of T70 is not. *)
let test_postmortem_targets_every_kind_naming_the_txn () =
  let tr = Trace.create ~n_sites:3 () in
  let emit site kind = Trace.emit tr ~site kind in
  let begin_ = emit 0 (Trace.Txn_begin { txn = "T7" }) in
  let other = emit 1 (Trace.Txn_begin { txn = "T70" }) in
  ignore (emit 2 (Trace.Crash { site = 2; amnesia = false }));
  ignore (emit 2 (Trace.Repo_append { txn = "T8"; op = "Enq"; tentative = true }));
  let point = emit 2 (Trace.Commit_point { txn = "T7" }) in
  let decide = emit 2 (Trace.Txn_decide { txn = "T7"; site = 2; committed = true }) in
  let coop = emit 2 (Trace.Coop_term { txn = "T7"; outcome = "coop-commit" }) in
  let victim = emit 1 (Trace.Deadlock { victim = "T9"; cycle = [ "T9"; "T7" ] }) in
  let pm =
    Postmortem.build tr ~header:[]
      ~failures:[ ("queue", "illegal serialization: order [T7]") ]
  in
  let targeted id = List.mem id pm.Postmortem.targets in
  check_bool "txn_begin is a target" true (targeted begin_);
  check_bool "commit_point is a target" true (targeted point);
  check_bool "txn_decide is a target" true (targeted decide);
  check_bool "coop_term is a target" true (targeted coop);
  check_bool "a deadlock cycle naming T7 is a target" true (targeted victim);
  check_bool "T70 is not T7" false (targeted other);
  check_int "exactly those five" 5 (List.length pm.Postmortem.targets)

(* Replay the PR 1 double-dequeue: with quorum gating and commit piggyback
   both disabled (the [Ungated_rejoin] mutant), a storm run loses a tentative append to
   crash-with-amnesia and the rejoined repository serves a stale view. The
   postmortem's causal slice must surface the whole mechanism: the amnesia
   crash, the ungated rejoin, and the tentative append that was lost.
   (Empirically verified violating tuple; the slice is a strict subset of
   the trace, so these are causal-cone facts, not whole-trace facts.) *)
let test_postmortem_slices_amnesia_violation () =
  let base = { Campaign.default_base with Runtime.mutant = Some Replicated.Ungated_rejoin } in
  let v =
    {
      Campaign.v_task =
        {
          base;
          scheme = Replicated.Static;
          profile = storm ();
          seed = 41;
          n_txns = 60;
          intensity = 2.0;
        };
      v_failures = [];
      v_postmortem = None;
      v_flags = [];
    }
  in
  let trace, pm = Campaign.trace_violation v in
  check_bool "oracle failure reproduced" true (pm.Postmortem.targets <> []);
  let n_slice = List.length pm.Postmortem.slice in
  check_bool "slice nonempty" true (n_slice > 0);
  check_bool "slice is a strict subset" true (n_slice < Trace.length trace);
  let has p = Postmortem.contains pm p in
  check_bool "cone holds the amnesia crash" true
    (has (function Trace.Crash { amnesia = true; _ } -> true | _ -> false));
  check_bool "cone holds the ungated rejoin" true
    (has (function Trace.Recover _ -> true | _ -> false));
  check_bool "cone holds the lost tentative append" true
    (has (function Trace.Repo_append { tentative = true; _ } -> true | _ -> false));
  let rendered = Postmortem.render pm in
  check_bool "render mentions the violating actions" true
    (String.length rendered > 0)

(* --- the spec-monitor DSL --- *)

module SM = Atomrep_obs.Spec_monitor

(* An empty trace discharges every spec: nothing is stepped, a single
   at_quiesce sees only its init state, and a keyed spec never even
   instantiates. *)
let test_spec_empty_trace () =
  let tr = Trace.create ~n_sites:1 () in
  let never =
    SM.make ~name:"never" ~observes:[ "txn_begin" ]
      ~init:(fun () -> ())
      ~step:(fun () _ -> SM.Violate ((), "stepped on an empty trace"))
      ()
  in
  check_bool "nothing stepped" true (SM.run never () tr = []);
  let obligated =
    SM.keyed ~name:"per_txn" ~observes:[ "txn_begin" ]
      ~key:(fun _ -> Some "T0")
      ~init:(fun _ -> ())
      ~step:(fun () _ -> SM.Continue ())
      ~at_quiesce:(fun _ () -> [ "standing obligation" ])
      ()
  in
  check_bool "keyed: no instance, no obligation" true (SM.run obligated () tr = [])

(* Events outside [observes] never reach [step]; the quiesce check still judges
   what the filtered view amounted to. *)
let test_spec_on_filter () =
  let tr = Trace.create ~n_sites:1 () in
  ignore (Trace.emit tr ~site:0 (Trace.Txn_begin { txn = "T0" }));
  ignore (Trace.emit tr ~site:0 Trace.Heal);
  let commits_only =
    SM.make ~name:"commits_only"
      ~observes:[ "txn_commit" ]
      ~init:(fun () -> 0)
      ~step:(fun n e ->
        match e.Trace.kind with
        | Trace.Txn_commit _ -> SM.Continue (n + 1)
        | _ -> SM.Violate (n, "stepped on an event outside [observes]"))
      ~at_quiesce:(fun n ->
        if n = 1 then [] else [ Printf.sprintf "saw %d commit(s)" n ])
      ()
  in
  let vs = SM.run commits_only () tr in
  check_int "only the quiesce obligation fires" 1 (List.length vs);
  check_bool "no step-anchored violation" true
    (List.for_all (fun v -> v.SM.v_event = None) vs);
  ignore (Trace.emit tr ~site:0 (Trace.Txn_commit { txn = "T0" }));
  check_bool "commit observed, spec discharged" true (SM.run commits_only () tr = [])

(* A label no trace kind carries is a typo, not an empty subscription:
   building the spec fails, naming the label and the spec. *)
let test_spec_unknown_label_rejected () =
  let rejects what build =
    match build () with
    | _ -> Alcotest.failf "%s: unknown label accepted" what
    | exception Invalid_argument msg ->
      let mentions sub =
        let n = String.length sub and m = String.length msg in
        let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
        at 0
      in
      check_bool (what ^ ": names the label") true (mentions "txn_comit");
      check_bool (what ^ ": names the spec") true (mentions "typo_spec")
  in
  rejects "make" (fun () ->
      SM.make ~name:"typo_spec" ~observes:[ "txn_begin"; "txn_comit" ]
        ~init:(fun () -> ())
        ~step:(fun () _ -> SM.Continue ())
        ());
  rejects "keyed" (fun () ->
      SM.keyed ~name:"typo_spec" ~observes:[ "txn_comit" ]
        ~key:(fun _ -> None)
        ~init:(fun _ -> ())
        ~step:(fun () _ -> SM.Continue ())
        ())

(* Accept finalizes a keyed instance: its state is GC'd, and a later event
   under the same key allocates a fresh machine. *)
let test_spec_keyed_gc () =
  let open_close =
    SM.keyed ~name:"txn_open"
      ~observes:[ "txn_begin"; "txn_commit" ]
      ~key:(fun e ->
        match e.Trace.kind with
        | Trace.Txn_begin { txn } | Trace.Txn_commit { txn } -> Some txn
        | _ -> None)
      ~init:(fun _ -> ())
      ~step:(fun () e ->
        match e.Trace.kind with
        | Trace.Txn_commit _ -> SM.Accept
        | _ -> SM.Continue ())
      ()
  in
  let tr = Trace.create ~n_sites:1 () in
  let inst = SM.instantiate open_close () in
  let feed kind = SM.observe inst (Trace.get tr (Trace.emit tr ~site:0 kind)) in
  feed (Trace.Txn_begin { txn = "T0" });
  feed (Trace.Txn_begin { txn = "T1" });
  check_int "two live instances" 2 (SM.live_instances inst);
  feed (Trace.Txn_commit { txn = "T0" });
  check_int "accept GCs T0" 1 (SM.live_instances inst);
  feed (Trace.Txn_commit { txn = "T1" });
  check_int "accept GCs T1" 0 (SM.live_instances inst);
  feed (Trace.Txn_begin { txn = "T0" });
  check_int "reused key allocates a fresh machine" 1 (SM.live_instances inst);
  check_bool "no violations" true (SM.quiesce inst = [])

(* A violated child of a conjunction is short-circuited — one
   counterexample, no quiesce check — while its siblings keep observing
   every event and still get their own verdicts. *)
let test_spec_conjunction_short_circuit () =
  let steps = ref 0 in
  let tripwire =
    SM.make ~name:"tripwire" ~observes:[ "heal" ]
      ~init:(fun () -> ())
      ~step:(fun () _ -> SM.Violate ((), "first event trips"))
      ~at_quiesce:(fun () -> [ "tripwire quiesce must be skipped" ])
      ()
  in
  let counter =
    SM.make ~name:"counter" ~observes:[ "heal" ]
      ~init:(fun () -> ())
      ~step:(fun () _ ->
        incr steps;
        SM.Continue ())
      ~at_quiesce:(fun () -> [ Printf.sprintf "saw %d events" !steps ])
      ()
  in
  let both = SM.all ~name:"both" [ tripwire; counter ] in
  let tr = Trace.create ~n_sites:1 () in
  for _ = 1 to 3 do
    ignore (Trace.emit tr ~site:0 Trace.Heal)
  done;
  let names = List.map (fun v -> v.SM.v_monitor) (SM.run both () tr) in
  check_int "tripwire contributes exactly one counterexample" 1
    (List.length (List.filter (String.equal "tripwire") names));
  check_int "sibling keeps stepping after the short-circuit" 3 !steps;
  check_bool "sibling's quiesce verdict still surfaces" true
    (List.mem "counter" names)

(* The default judge (the catalogue's commit_atomicity and common_order
   entries) must agree run for run with the direct history checkers it
   wraps: same verdict, same failure count, and every reference failure
   "obj: why" carried in some catalogue message. Random schemes and seeds
   on the ungated storm base so both clean and violating runs are
   exercised. *)
let prop_default_judge_agrees_with_reference_oracles =
  QCheck2.Test.make ~name:"default judge agrees with reference oracles" ~count:25
    QCheck2.Gen.(
      pair
        (oneofl [ Replicated.Static; Replicated.Hybrid; Replicated.Locking ])
        (int_bound 999))
    (fun (scheme, seed) ->
      let base = { Campaign.default_base with Runtime.mutant = Some Replicated.Ungated_rejoin } in
      let cfg =
        Campaign.configure
          { base; scheme; profile = storm (); seed; n_txns = 40; intensity = 2.0 }
      in
      let outcome, judged = Monitors.check_run cfg in
      let reference =
        Runtime.check_atomicity cfg outcome @ Runtime.check_common_order cfg outcome
      in
      let contains ~sub s =
        let n = String.length sub and m = String.length s in
        let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
        at 0
      in
      (reference = []) = (judged = [])
      && List.length reference = List.length judged
      && List.for_all
           (fun (obj, why) ->
             let line = obj ^ ": " ^ why in
             List.exists (fun (_, msg) -> contains ~sub:line msg) judged)
           reference)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "disabled bus is inert" `Quick test_disabled_bus_is_inert;
        Alcotest.test_case "emit stamps and edges" `Quick test_emit_stamps_and_edges;
        Alcotest.test_case "span tree well-formed" `Quick test_span_tree_well_formed;
        Alcotest.test_case "span durations feed histograms" `Quick
          test_span_durations_feed_histograms;
        Alcotest.test_case "lamport monotone per site" `Quick
          test_lamport_monotone_per_site;
        Alcotest.test_case "chrome export round-trips" `Quick
          test_chrome_export_round_trips;
        Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_every_line_parses;
        Alcotest.test_case "flame mentions span labels" `Quick
          test_flame_mentions_span_labels;
        Alcotest.test_case "registry get-or-create" `Quick test_registry_get_or_create;
        Alcotest.test_case "registry json parses" `Quick test_registry_json_parses;
        Alcotest.test_case "run populates registry" `Quick test_run_populates_registry;
        Alcotest.test_case "tracing off is metric-identical" `Quick
          test_tracing_off_is_metric_identical;
        Alcotest.test_case "failure action tokens" `Quick test_actions_of_failure_tokens;
        Alcotest.test_case "causal cone walks both edges" `Quick
          test_causal_cone_walks_both_edges;
        Alcotest.test_case "postmortem targets every kind naming the txn" `Quick
          test_postmortem_targets_every_kind_naming_the_txn;
        Alcotest.test_case "postmortem slices the amnesia violation" `Quick
          test_postmortem_slices_amnesia_violation;
        Alcotest.test_case "spec DSL: empty trace" `Quick test_spec_empty_trace;
        Alcotest.test_case "spec DSL: events outside [on]" `Quick test_spec_on_filter;
        Alcotest.test_case "spec DSL: unknown label rejected" `Quick
          test_spec_unknown_label_rejected;
        Alcotest.test_case "spec DSL: keyed-instance GC" `Quick test_spec_keyed_gc;
        Alcotest.test_case "spec DSL: conjunction short-circuit" `Quick
          test_spec_conjunction_short_circuit;
        QCheck_alcotest.to_alcotest prop_default_judge_agrees_with_reference_oracles;
      ] );
  ]
