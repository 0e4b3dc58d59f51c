(* Performance observability: phase profiler, sim-time time-series
   windowing, the judge-only trace bus (with the guard that it keeps every
   monitor-observed event), and the BENCH regression gate. *)

open Atomrep_replica
open Atomrep_chaos
module Trace = Atomrep_obs.Trace
module Profile = Atomrep_obs.Profile
module Timeseries = Atomrep_obs.Timeseries
module Bench_diff = Atomrep_obs.Bench_diff
module Json = Atomrep_obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- profile --- *)

let test_profile_records_phases () =
  let p = Profile.create () in
  let clock = ref 0.0 in
  Profile.set_clock p (fun () -> !clock);
  let v =
    Profile.time p (Profile.key ~subsystem:"engine" "dispatch") (fun () ->
        clock := !clock +. 2.0;
        Profile.time p (Profile.key ~subsystem:"network" "send") (fun () ->
            clock := !clock +. 1.0;
            7))
  in
  check_int "thunk value returned" 7 v;
  ignore (Profile.time p (Profile.key ~subsystem:"engine" "dispatch") (fun () -> ()));
  let phases = Profile.phases p in
  check_int "two phases" 2 (List.length phases);
  (* Hottest first: dispatch accumulated 3.0 — its own 2.0 plus the
     nested send's 1.0, since phases are inclusive — and send 1.0. *)
  let hot = List.hd phases in
  check_string "hottest is dispatch" "dispatch" hot.Profile.p_phase;
  check_string "subsystem kept" "engine" hot.Profile.p_subsystem;
  check_int "dispatch counted twice" 2 hot.Profile.p_count;
  check_bool "inclusive wall" true (abs_float (hot.Profile.p_wall -. 3.0) < 1e-9);
  check_bool "total wall sums phases" true
    (abs_float (Profile.total_wall p -. 4.0) < 1e-9);
  check_int "top 1" 1 (List.length (Profile.top p ~n:1))

let test_profile_null_is_inert () =
  check_bool "null disabled" false (Profile.enabled Profile.null);
  let v = Profile.time Profile.null (Profile.key ~subsystem:"x" "y") (fun () -> 3) in
  check_int "thunk still runs" 3 v;
  check_int "nothing recorded" 0 (List.length (Profile.phases Profile.null))

let test_profile_exception_still_counts () =
  let p = Profile.create () in
  (try
     Profile.time p (Profile.key ~subsystem:"wal" "flush") (fun () -> failwith "boom")
   with Failure _ -> ());
  match Profile.phases p with
  | [ c ] -> check_int "partial measurement recorded" 1 c.Profile.p_count
  | l -> Alcotest.failf "expected one phase, got %d" (List.length l)

let test_profile_ambient_install () =
  let p = Profile.create () in
  check_bool "default ambient disabled" false (Profile.enabled (Profile.current ()));
  let r =
    Profile.with_current p (fun () ->
        check_bool "installed" true (Profile.enabled (Profile.current ()));
        Profile.record (Profile.key ~subsystem:"trace" "publish") (fun () -> 11))
  in
  check_int "record returns" 11 r;
  check_bool "restored after" false (Profile.enabled (Profile.current ()));
  check_int "recorded against installed profile" 1
    (List.length (Profile.phases p));
  (* Restore also on exceptions. *)
  (try Profile.with_current p (fun () -> failwith "boom") with Failure _ -> ());
  check_bool "restored after raise" false (Profile.enabled (Profile.current ()))

let test_profile_json_shape () =
  let p = Profile.create () in
  ignore (Profile.time p (Profile.key ~subsystem:"a" "b") (fun () -> ()));
  match Profile.to_json p with
  | Json.Obj [ ("phases", Json.List [ Json.Obj fields ]) ] ->
    check_bool "has subsystem" true (List.mem_assoc "subsystem" fields);
    check_bool "has wall_s" true (List.mem_assoc "wall_s" fields)
  | _ -> Alcotest.fail "unexpected profile json shape"

(* --- timeseries windowing --- *)

let test_timeseries_empty_gap_windows () =
  let ts = Timeseries.create ~width:10.0 () in
  let s = Timeseries.series ts ~agg:Timeseries.Sum "c" in
  Timeseries.observe ts s ~now:1.0 5.0;
  (* Skip windows 1 and 2 entirely: they must materialize empty. *)
  Timeseries.observe ts s ~now:35.0 2.0;
  Timeseries.finish ts ~now:40.0;
  let ws = Timeseries.windows ts in
  check_int "four windows" 4 (List.length ws);
  (match ws with
   | [ w0; w1; w2; w3 ] ->
     check_bool "w0 sum" true (Timeseries.value w0 s = Some 5.0);
     check_bool "gap w1 empty" true (Timeseries.value w1 s = None);
     check_bool "gap w2 empty" true (Timeseries.value w2 s = None);
     check_bool "w3 sum" true (Timeseries.value w3 s = Some 2.0);
     check_int "indices consecutive" 3 w3.Timeseries.w_index;
     check_bool "all complete" true
       (List.for_all (fun w -> w.Timeseries.w_complete) ws)
   | _ -> Alcotest.fail "bad windows");
  (* CSV keeps the empty rows (no holes). *)
  let lines = String.split_on_char '\n' (String.trim (Timeseries.to_csv ts)) in
  check_int "header + 4 rows" 5 (List.length lines)

let test_timeseries_single_sample_run () =
  let ts = Timeseries.create ~width:10.0 () in
  let s = Timeseries.series ts "g" in
  Timeseries.observe ts s ~now:3.0 42.0;
  Timeseries.finish ts ~now:3.5;
  match Timeseries.windows ts with
  | [ w ] ->
    check_bool "value kept" true (Timeseries.value w s = Some 42.0);
    check_bool "partial final window" false w.Timeseries.w_complete;
    check_bool "nominal until" true (w.Timeseries.w_until = 10.0)
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)

let test_timeseries_boundary_lands_later () =
  let ts = Timeseries.create ~width:10.0 () in
  let s = Timeseries.series ts ~agg:Timeseries.Sum "c" in
  Timeseries.observe ts s ~now:0.0 1.0;
  (* Exactly on the boundary: half-open windows put it in window 1. *)
  Timeseries.observe ts s ~now:10.0 1.0;
  Timeseries.finish ts ~now:20.0;
  match Timeseries.windows ts with
  | [ w0; w1 ] ->
    check_bool "first window keeps only its own" true
      (Timeseries.value w0 s = Some 1.0);
    check_bool "boundary event in later window" true
      (Timeseries.value w1 s = Some 1.0)
  | ws -> Alcotest.failf "expected two windows, got %d" (List.length ws)

let test_timeseries_run_ends_mid_window () =
  let ts = Timeseries.create ~width:10.0 () in
  let s = Timeseries.series ts ~agg:Timeseries.Max "q" in
  Timeseries.observe ts s ~now:2.0 3.0;
  Timeseries.observe ts s ~now:12.0 9.0;
  Timeseries.observe ts s ~now:13.0 4.0;
  Timeseries.finish ts ~now:15.0;
  (match Timeseries.windows ts with
   | [ w0; w1 ] ->
     check_bool "w0 complete" true w0.Timeseries.w_complete;
     check_bool "w1 incomplete" false w1.Timeseries.w_complete;
     check_bool "max aggregation" true (Timeseries.value w1 s = Some 9.0)
   | ws -> Alcotest.failf "expected two windows, got %d" (List.length ws));
  (* finish is idempotent and later observations are ignored. *)
  Timeseries.finish ts ~now:99.0;
  Timeseries.observe ts s ~now:50.0 100.0;
  check_int "still two windows" 2 (List.length (Timeseries.windows ts))

let test_timeseries_empty_run () =
  let ts = Timeseries.create ~width:10.0 () in
  let _s = Timeseries.series ts "g" in
  Timeseries.finish ts ~now:0.0;
  check_int "no windows for an empty run" 0 (List.length (Timeseries.windows ts));
  check_int "nothing dropped" 0 (Timeseries.dropped ts)

let test_timeseries_ring_overflow () =
  let ts = Timeseries.create ~capacity:3 ~width:1.0 () in
  let s = Timeseries.series ts ~agg:Timeseries.Sum "c" in
  for i = 0 to 9 do
    Timeseries.observe ts s ~now:(float_of_int i) 1.0
  done;
  Timeseries.finish ts ~now:10.0;
  check_int "ring keeps capacity" 3 (List.length (Timeseries.windows ts));
  check_int "dropped counted" 7 (Timeseries.dropped ts);
  match Timeseries.windows ts with
  | w :: _ -> check_int "oldest surviving window" 7 w.Timeseries.w_index
  | [] -> Alcotest.fail "no windows"

let test_timeseries_registration_freezes () =
  let ts = Timeseries.create ~width:1.0 () in
  let s = Timeseries.series ts "a" in
  Timeseries.observe ts s ~now:0.0 1.0;
  match Timeseries.series ts "b" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "registration after first observation must raise"

(* --- the judge-only bus --- *)

(* The second input of the judge-only bus test: a seeded random emit
   stream over seven storage chunks, on a full bus and on a judge-only bus
   observing txn_commit and rpc_drop, checked against a list model of the
   bus built here by the stamping rules. Sites run over -1..2; a cause is
   a valid earlier id, negative or absent; spans nest and close in any
   order; every Rpc_send emit shares one kind value, as the network's
   interned kinds do. *)
let random_stream_matches_model () =
  let n_sites = 3 in
  let rng = Random.State.make [| 7 |] in
  let observes = [ "txn_commit"; "rpc_drop" ] in
  let full = Trace.create ~n_sites () in
  let judge = Trace.create ~observes ~n_sites () in
  let clock = ref 0.0 in
  List.iter (fun tr -> Trace.set_clock tr (fun () -> !clock)) [ full; judge ];
  (* The model: every emitted event by id, and each lane's stamp and last
     id (index site + 1). *)
  let model = Hashtbl.create 4096 in
  let counters = Array.make (n_sites + 1) 0 and last = Array.make (n_sites + 1) (-1) in
  let model_emit ~site ~cause kind =
    let id = Hashtbl.length model in
    let lane = site + 1 in
    let cause = match cause with Some c when c >= 0 -> Some c | _ -> None in
    let witnessed =
      match cause with Some c -> (Hashtbl.find model c).Trace.lamport | None -> 0
    in
    let lamport = max counters.(lane) witnessed + 1 in
    counters.(lane) <- lamport;
    let prev = if last.(lane) >= 0 then Some last.(lane) else None in
    last.(lane) <- id;
    Hashtbl.replace model id
      { Trace.id; time = !clock; site; lamport; prev; cause; kind };
    id
  in
  let same what a b =
    if a <> b then Alcotest.failf "%s: %d vs %d" what a b;
    a
  in
  let send = Trace.Rpc_send { src = 0; dst = 1 } in
  let next_span = ref 0 and open_spans = ref [] in
  let n_emits = 7 * Trace.chunk_size in
  while Hashtbl.length model < n_emits do
    clock := !clock +. Random.State.float rng 2.0;
    let site = Random.State.int rng (n_sites + 1) - 1 in
    match Random.State.int rng 12 with
    | 0 ->
      let parent =
        match !open_spans with
        | p :: _ when Random.State.bool rng -> Some p
        | _ -> None
      in
      let label = if Random.State.bool rng then "txn" else "op" in
      let span =
        same "span id on both buses"
          (Trace.span_begin full ~site ?parent label)
          (Trace.span_begin judge ~site ?parent label)
      in
      ignore (same "span ids count up" !next_span span);
      incr next_span;
      ignore (model_emit ~site ~cause:None (Trace.Span_begin { span; parent; label }));
      open_spans := span :: !open_spans
    | 1 when !open_spans <> [] ->
      let pick = Random.State.int rng (List.length !open_spans) in
      let span = List.nth !open_spans pick in
      open_spans := List.filter (fun s -> s <> span) !open_spans;
      let outcome = if Random.State.bool rng then "ok" else "abort" in
      List.iter (fun tr -> Trace.span_end tr ~site ~span ~outcome) [ full; judge ];
      ignore (model_emit ~site ~cause:None (Trace.Span_end { span; outcome }))
    | k ->
      let n = Hashtbl.length model in
      let cause =
        match Random.State.int rng 3 with
        | 0 when n > 0 -> Some (Random.State.int rng n)
        | 1 -> Some (-1 - Random.State.int rng 3)
        | _ -> None
      in
      let txn = Printf.sprintf "T%d" (Random.State.int rng 50) in
      let kind =
        match k mod 4 with
        | 0 -> send
        | 1 -> Trace.Txn_commit { txn }
        | 2 -> Trace.Rpc_drop { src = 1; dst = 2; reason = "link"; elapsed = !clock }
        | _ -> Trace.Txn_begin { txn }
      in
      let id =
        same "same id on both buses"
          (Trace.emit full ~site ?cause kind)
          (Trace.emit judge ~site ?cause kind)
      in
      ignore (same "ids are emit order" (model_emit ~site ~cause kind) id)
  done;
  let all = List.init n_emits (Hashtbl.find model) in
  let stored_mask = Trace.mask ~name:"test" ("span_begin" :: "span_end" :: observes) in
  let tagged mask (e : Trace.event) = mask.(Trace.kind_tag e.Trace.kind) in
  let stored = List.filter (tagged stored_mask) all in
  check_bool "the judge-only bus stores over three chunks" true
    (List.length stored > 3 * Trace.chunk_size);
  let event = Alcotest.testable Trace.pp_event ( = ) in
  let events = Alcotest.(list event) in
  check_int "full length" n_emits (Trace.length full);
  check_int "judge-only length counts ids" n_emits (Trace.length judge);
  Alcotest.check events "full events" all (Trace.events full);
  Alcotest.check events "judge-only events" stored (Trace.events judge);
  let get tr (e : Trace.event) = Trace.get tr e.Trace.id in
  Alcotest.check events "get" all (List.map (get full) all);
  (match Trace.get judge 0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "get on a judge-only bus must raise");
  (match Trace.get full n_emits with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "get past the last id must raise");
  let commit_mask = Trace.mask ~name:"test" [ "txn_commit" ] in
  let none_mask = Trace.mask ~name:"test" [] in
  let collect ?from_id ?kinds tr =
    let acc = ref [] in
    Trace.iter ?from_id ?kinds tr (fun e -> acc := e :: !acc);
    List.rev !acc
  in
  List.iter
    (fun from_id ->
      List.iter
        (fun (name, kinds) ->
          let want events =
            List.filter
              (fun (e : Trace.event) ->
                e.Trace.id >= Option.value from_id ~default:0
                && match kinds with Some mask -> tagged mask e | None -> true)
              events
          in
          let what bus =
            Printf.sprintf "%s iter from %s, kinds %s" bus
              (match from_id with Some i -> string_of_int i | None -> "-")
              name
          in
          Alcotest.check events (what "full") (want all) (collect ?from_id ?kinds full);
          Alcotest.check events (what "judge-only") (want stored)
            (collect ?from_id ?kinds judge))
        [ ("all", None); ("txn_commit", Some commit_mask); ("none", Some none_mask) ])
    [
      None; Some (-3); Some 0; Some 1; Some (Trace.chunk_size - 1); Some Trace.chunk_size;
      Some (2 * Trace.chunk_size + 17); Some (n_emits - 1); Some n_emits;
      Some (n_emits + 5);
    ];
  Alcotest.check events "each judge-only event equals the full bus's"
    (List.map (get full) (Trace.events judge))
    (Trace.events judge);
  (* Spans and their durations, against a list reconstruction. *)
  let model_spans =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Span_begin { span; parent; label } ->
          let ends =
            List.filter_map
              (fun (x : Trace.event) ->
                match x.Trace.kind with
                | Trace.Span_end { span = s; outcome } when s = span ->
                  Some (x.Trace.time, outcome)
                | _ -> None)
              all
          in
          Some
            {
              Trace.span_id = span;
              label;
              span_parent = parent;
              span_site = e.Trace.site;
              t_begin = e.Trace.time;
              t_end = Option.map fst (List.nth_opt ends 0);
              span_outcome = Option.map snd (List.nth_opt ends 0);
            }
        | _ -> None)
      all
  in
  check_bool "some spans closed, some open" true
    (List.exists (fun s -> s.Trace.t_end = None) model_spans
    && List.exists (fun s -> s.Trace.t_end <> None) model_spans);
  let durations spans =
    List.sort compare
      (List.filter_map
         (fun s ->
           Option.map (fun te -> (s.Trace.label, te -. s.Trace.t_begin)) s.Trace.t_end)
         spans)
  in
  let bus_durations tr =
    List.sort compare
      (List.concat_map
         (fun (label, sum) ->
           List.map (fun d -> (label, d)) (Atomrep_stats.Summary.observations sum))
         (Trace.span_durations tr))
  in
  List.iter
    (fun (bus, tr) ->
      check_bool (bus ^ " spans equal the model's") true (Trace.spans tr = model_spans);
      check_bool (bus ^ " span durations equal the model's") true
        (bus_durations tr = durations model_spans))
    [ ("full", full); ("judge-only", judge) ]

(* One emit stream on a full bus and on a judge-only bus observing only
   txn_commit. The judge-only bus stores the commits and the spans; ids
   advance on every emit; and each stored event equals the full bus's
   event with its id, including a commit whose [~cause] (a send) it did
   not store and whose program-order predecessor it did not store. *)
let test_judge_only_bus () =
  let full = Trace.create ~n_sites:2 () in
  let judge = Trace.create ~observes:[ "txn_commit" ] ~n_sites:2 () in
  let clock = ref 0.0 in
  List.iter (fun tr -> Trace.set_clock tr (fun () -> !clock)) [ full; judge ];
  let both f =
    clock := !clock +. 1.0;
    let id = f full in
    check_int "same id on both buses" id (f judge);
    id
  in
  let emit ~site ?cause kind = both (fun tr -> Trace.emit tr ~site ?cause kind) in
  let span = both (fun tr -> Trace.span_begin tr ~site:0 "txn") in
  let send = emit ~site:0 (Trace.Rpc_send { src = 0; dst = 1 }) in
  (* Site 1's first event: its Lamport stamp comes from the send's. *)
  ignore (emit ~site:1 ~cause:send (Trace.Txn_commit { txn = "T0" }));
  ignore (emit ~site:1 ~cause:send (Trace.Rpc_recv { src = 0; dst = 1 }));
  ignore (emit ~site:0 (Trace.Txn_begin { txn = "T1" }));
  ignore (emit ~site:0 (Trace.Txn_commit { txn = "T1" }));
  ignore (both (fun tr -> Trace.span_end tr ~site:0 ~span ~outcome:"ok"; 0));
  let stored = Trace.events judge in
  Alcotest.(check (list string))
    "only the masked kind and spans are stored"
    [ "span_begin"; "txn_commit"; "txn_commit"; "span_end" ]
    (List.map (fun (e : Trace.event) -> Trace.kind_label e.Trace.kind) stored);
  check_int "ids count every emit" 7 (Trace.length judge);
  check_int "length counts ids on both buses" (Trace.length full) (Trace.length judge);
  List.iter
    (fun (e : Trace.event) ->
      check_bool
        (Printf.sprintf "event #%d equals the full bus's" e.Trace.id)
        true
        (e = Trace.get full e.Trace.id))
    stored;
  check_bool "a stored commit names the unstored send as its cause" true
    (List.exists (fun (e : Trace.event) -> e.Trace.cause = Some send) stored
    && not (List.exists (fun (e : Trace.event) -> e.Trace.id = send) stored));
  random_stream_matches_model ()

(* The guard the judge-only bus rests on: a monitored run reaches the same
   verdicts on it as on a full bus at the same seed, because it stores
   every kind some selected monitor observes. *)
let monitored_verdicts trace ~seed =
  let monitors = Monitors.registry in
  let cfg =
    Campaign.configure ~trace
      {
        base = Campaign.default_base;
        scheme = Replicated.Static;
        profile =
          (match Campaign.find_profile "storm" with
           | Some p -> p
           | None -> Alcotest.fail "storm profile missing");
        seed;
        n_txns = 20;
        intensity = 1.0;
      }
  in
  let outcome = Runtime.run cfg in
  let violations = Monitors.run monitors { Monitors.cfg; outcome } trace in
  let events = Trace.events trace in
  let counts =
    List.map
      (fun label ->
        ( label,
          List.length
            (List.filter
               (fun (e : Trace.event) ->
                 String.equal (Trace.kind_label e.Trace.kind) label)
               events) ))
      (Monitors.observed_labels monitors)
  in
  (Atomrep_obs.Spec_monitor.failures violations, counts, List.length events)

let test_judge_only_bus_never_hides_monitor_events () =
  let observes = Monitors.observed_labels Monitors.registry in
  List.iter
    (fun seed ->
      let full = Trace.create ~n_sites:3 () in
      let judge = Trace.create ~observes ~n_sites:3 () in
      let full_failures, full_counts, full_stored = monitored_verdicts full ~seed in
      let judge_failures, judge_counts, judge_stored = monitored_verdicts judge ~seed in
      check_bool "verdicts identical" true (full_failures = judge_failures);
      check_bool "monitor-kind counts identical" true (full_counts = judge_counts);
      check_bool "judge-only bus stores fewer events" true (judge_stored < full_stored);
      check_bool "stored events equal the full bus's" true
        (List.for_all
           (fun (e : Trace.event) -> e = Trace.get full e.Trace.id)
           (Trace.events judge)))
    [ 0; 3; 11 ]

(* Spans are stored whatever the mask: a run on a judge-only bus that
   observes only quiesce has the full bus's span tree, so the registry's
   span.* histograms, and with them --metrics-json, are identical. *)
let test_judge_only_bus_keeps_span_metrics () =
  let cfg = { Runtime.default_config with Runtime.n_txns = 30 } in
  let run trace = (Runtime.run { cfg with Runtime.trace = Some trace }).Runtime.registry in
  let full = Trace.create ~n_sites:cfg.Runtime.n_sites () in
  let judge = Trace.create ~observes:[ "quiesce" ] ~n_sites:cfg.Runtime.n_sites () in
  let full_registry = run full and judge_registry = run judge in
  (match Trace.span_durations full with
   | [] -> Alcotest.fail "the run closed no spans"
   | (label, _) :: _ ->
     check_bool "registry has span histograms" true
       (Atomrep_stats.Summary.count
          (Atomrep_obs.Metrics.histogram_summary full_registry
             ~labels:[ ("scheme", Replicated.scheme_name cfg.Runtime.scheme) ]
             ("span." ^ label))
       > 0));
  check_string "metrics identical"
    (Json.to_string (Atomrep_obs.Metrics.to_json full_registry))
    (Json.to_string (Atomrep_obs.Metrics.to_json judge_registry));
  check_bool "span trees identical" true (Trace.spans full = Trace.spans judge);
  Alcotest.(check (list string))
    "only quiesce and spans are stored"
    [ "quiesce"; "span_begin"; "span_end" ]
    (List.sort_uniq String.compare
       (List.map (fun (e : Trace.event) -> Trace.kind_label e.Trace.kind) (Trace.events judge)))

(* The columnar bus's memory guard. After a fixed-seed 5-site gray run
   (one 8x fail-slow site from 1 s, hedging and demotion on) the full bus
   retains at most [bus_words_per_event_bound] words per stored event,
   its clock reset first so that the engine behind the clock is not
   counted. A bus of boxed event records read 16.6 here; the columns
   read 7.3. *)
let bus_words_per_event_bound = 10.0

let test_bus_memory_guard () =
  let n_sites = 5 in
  let tr = Trace.create ~n_sites () in
  let cfg =
    {
      Runtime.default_config with
      Runtime.seed = 1;
      n_sites;
      n_txns = 40;
      horizon = 20_000.0;
      objects = Runtime.queue_objects ~n_sites;
      gray = Some Runtime.default_gray;
      fail_slow = [ (2, 1000.0, Atomrep_sim.Network.Slow_constant 8.0) ];
      trace = Some tr;
    }
  in
  ignore (Runtime.run cfg);
  Trace.set_clock tr (fun () -> 0.0);
  check_bool "the run fills several chunks" true (Trace.length tr > 4 * Trace.chunk_size);
  let per_event =
    float_of_int (Obj.reachable_words (Obj.repr tr)) /. float_of_int (Trace.length tr)
  in
  check_bool
    (Printf.sprintf "%.2f retained words per event, bound %.1f" per_event
       bus_words_per_event_bound)
    true
    (per_event <= bus_words_per_event_bound);
  (* Emitting one shared kind allocates no minor words per event: ten
     chunks' worth of emits allocate only the ten chunk records (7 words
     each) and the two chunk directories as they double from 4 to 16
     slots (5 + 9 + 17 words each): 132 words. *)
  let tr = Trace.create ~n_sites:2 () in
  let kind = Trace.Rpc_send { src = 0; dst = 1 } in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 * Trace.chunk_size do
    ignore (Trace.emit tr ~site:0 kind)
  done;
  Alcotest.(check (float 0.0)) "minor words of the emits" 132.0 (Gc.minor_words () -. w0)

(* The judge attaches its own judge-only bus when the caller passes none.
   On a violating task (the weak_relation mutant's killer) it reaches the
   full bus's verdicts; and a second run on the same full bus is judged
   on its own events only, so it repeats the first run's verdicts. *)
let test_check_run_judge_only_agrees () =
  let task =
    {
      Campaign.base =
        { Campaign.default_base with Runtime.mutant = Some Replicated.Weak_relation };
      scheme = Replicated.Hybrid;
      profile = Campaign.profile "flaky";
      seed = 0;
      n_txns = 30;
      intensity = 1.0;
    }
  in
  let monitors = Monitors.registry in
  let judge_outcome, judge_failures = Campaign.run ~monitors task in
  let full =
    Trace.create ~n_sites:(Campaign.configure task).Runtime.n_sites ()
  in
  let full_outcome, full_failures = Campaign.run ~monitors ~trace:full task in
  check_bool "the task violates" true (judge_failures <> []);
  check_bool "verdicts identical" true (judge_failures = full_failures);
  check_int "committed identical" full_outcome.Runtime.metrics.Runtime.committed
    judge_outcome.Runtime.metrics.Runtime.committed;
  let first_ids = Trace.length full in
  let _, again = Campaign.run ~monitors ~trace:full task in
  check_int "the second run's ids follow the first's" (2 * first_ids) (Trace.length full);
  check_bool "a shared bus judges each run on its own events" true (again = full_failures)

(* One representative per kind constructor, in tag order. *)
let every_kind =
  [
    Trace.Rpc_send { src = 0; dst = 1 };
    Trace.Rpc_recv { src = 0; dst = 1 };
    Trace.Rpc_drop { src = 0; dst = 1; reason = "link"; elapsed = 1.0 };
    Trace.Rpc_timeout { src = 0; dst = 1; timeout = 5.0; elapsed = 5.0 };
    Trace.Quorum_read { txn = "T"; op = "Deq"; got = 1; need = 1 };
    Trace.Quorum_append { txn = "T"; op = "Enq"; got = 1; need = 1 };
    Trace.Repo_append { txn = "T"; op = "Enq"; tentative = true };
    Trace.Txn_begin { txn = "T" };
    Trace.Txn_commit { txn = "T" };
    Trace.Txn_abort { txn = "T"; reason = "r" };
    Trace.Lock_wait { txn = "T"; blocker = "U" };
    Trace.Lock_grant { txn = "T"; op = "Enq" };
    Trace.Epoch_seal { epoch = 1 };
    Trace.Epoch_transfer { epoch = 1 };
    Trace.Epoch_fence { epoch = 2; stale = 1 };
    Trace.Crash { site = 0; amnesia = false };
    Trace.Recover { site = 0; resynced = true };
    Trace.Partition { n_groups = 2 };
    Trace.Heal;
    Trace.Detector_suspect { site = 0 };
    Trace.Detector_trust { site = 0 };
    Trace.Wal_flush { site = 0; records = 3 };
    Trace.Wal_checkpoint { site = 0; kept = 2; dropped_segments = 1 };
    Trace.Wal_full { site = 0 };
    Trace.Wal_replay { site = 0; replayed = 3; truncated = 0; corrupt = false };
    Trace.Store_fault { site = 0; fault = "torn" };
    Trace.Commit_point { txn = "T" };
    Trace.Txn_redrive { txn = "T"; outcome = "commit" };
    Trace.Coop_term { txn = "T"; outcome = "coop-commit" };
    Trace.Orphan_gc { site = 0; resolved = 1 };
    Trace.Deadlock { victim = "T"; cycle = [ "T"; "U" ] };
    Trace.Txn_decide { txn = "T"; site = 0; committed = true };
    Trace.Takeover_acquire { txn = "T"; site = 0; term = 1 };
    Trace.Takeover_fence { txn = "T"; site = 0; term = 1; granted = 2 };
    Trace.Quiesce { up = 3; n_sites = 3; partitioned = false };
    Trace.Span_begin { span = 0; parent = None; label = "txn" };
    Trace.Span_end { span = 0; outcome = "ok" };
    Trace.Shed { txn = "T"; reason = "queue_full" };
    Trace.Repo_resolve { txn = "T"; committed = false };
    Trace.Session_commit { session = 0; txn = "T"; counter = 1; site = 0 };
    Trace.Breaker { site = 0; state = "open" };
    Trace.Rpc_hedge { src = 0; dst = 1; delay = 2.0 };
    Trace.Rpc_outcome { src = 0; dst = 1; ok = true; elapsed = 1.0 };
    Trace.Slow_inject { site = 0; mode = "constant" };
    Trace.Detector_slow { site = 0; slow = true; score = 3.0 };
  ]

(* The label table: tags are dense in [0, n_kind_tags) (the i-th
   constructor has tag i), labels are unique, and a label maps back to
   its tag. *)
let test_kind_tags_dense_labels_round_trip () =
  check_int "one representative per tag" Trace.n_kind_tags
    (List.length every_kind);
  List.iteri
    (fun i kind ->
      let label = Trace.kind_label kind in
      check_int (label ^ ": tag is its position") i (Trace.kind_tag kind);
      check_bool (label ^ ": label round-trips") true
        (Trace.tag_of_label label = Some i))
    every_kind;
  let labels = List.map Trace.kind_label every_kind in
  check_int "labels unique" Trace.n_kind_tags
    (List.length (List.sort_uniq String.compare labels));
  check_bool "unknown label has no tag" true (Trace.tag_of_label "no_such_kind" = None)

(* The catalogue's judge-only bus stores exactly the union of the specs'
   observed kinds, plus spans: no kind a monitor observes is dropped, and
   nothing else is kept. *)
let test_judge_only_bus_stores_observed_union () =
  let union = Monitors.observed_labels Monitors.registry in
  let tr = Trace.create ~observes:union ~n_sites:1 () in
  List.iter (fun kind -> ignore (Trace.emit tr ~site:0 kind)) every_kind;
  let stored = List.map (fun (e : Trace.event) -> Trace.kind_label e.Trace.kind) (Trace.events tr) in
  List.iter
    (fun kind ->
      let label = Trace.kind_label kind in
      check_bool ("bus stores the union at " ^ label)
        (List.mem label ("span_begin" :: "span_end" :: union))
        (List.mem label stored))
    every_kind;
  check_bool "union stores txn_decide" true (List.mem "txn_decide" stored);
  check_bool "union drops rpc_send" false (List.mem "rpc_send" stored)

(* --- kind-indexed dispatch: the table-driven conjunction against a
   reference fold --- *)

module SM = Atomrep_obs.Spec_monitor

(* A random child: a counting machine (one instance, or one per event id
   mod 3) over a random set of labels. It violates when a count reaches
   [d_trip] (so small trips violate early), a keyed instance accepts at
   [d_accept], and quiesce reports what is left. *)
type child_desc = {
  d_keyed : bool;
  d_observes : string list;
  d_trip : int;
  d_accept : int;
}

let child_spec i d =
  let name = Printf.sprintf "c%d" i in
  let step n (e : Trace.event) =
    let n = n + 1 in
    if n = d.d_trip then
      SM.Violate (n, Printf.sprintf "%s tripped at %d" (Trace.kind_label e.Trace.kind) n)
    else if d.d_keyed && n >= d.d_accept then SM.Accept
    else SM.Continue n
  in
  if d.d_keyed then
    SM.keyed ~name ~observes:d.d_observes
      ~key:(fun e -> Some (string_of_int (e.Trace.id mod 3)))
      ~init:(fun _ -> 0)
      ~step
      ~at_quiesce:(fun k n -> [ Printf.sprintf "%s open at %d" k n ])
      ()
  else
    SM.make ~name ~observes:d.d_observes
      ~init:(fun () -> 0)
      ~step
      ~at_quiesce:(fun n -> [ Printf.sprintf "saw %d" n ])
      ()

(* Violations in order, live_instances after every event, and the
   quiesce output. *)
let table_driven descs events =
  let inst = SM.instantiate (SM.all ~name:"conj" (List.mapi child_spec descs)) () in
  let lives =
    List.map
      (fun e ->
        SM.observe inst e;
        SM.live_instances inst)
      events
  in
  (SM.violations inst, lives, SM.quiesce inst)

(* The reference: every child stepped, in order, on every event its
   declared list names, until its first violation. *)
let reference descs events =
  let children =
    List.mapi (fun i d -> (d, SM.instantiate (child_spec i d) (), ref false)) descs
  in
  let seen = ref [] in
  let lives =
    List.map
      (fun (e : Trace.event) ->
        let label = Trace.kind_label e.Trace.kind in
        List.iter
          (fun (d, inst, failed) ->
            if (not !failed) && List.mem label d.d_observes then begin
              SM.observe inst e;
              match SM.violations inst with
              | [] -> ()
              | vs ->
                failed := true;
                seen := List.rev_append vs !seen
            end)
          children;
        List.fold_left
          (fun acc (_, inst, failed) ->
            if !failed then acc else acc + SM.live_instances inst)
          0 children)
      events
  in
  let at_quiesce =
    List.concat_map
      (fun (_, inst, failed) -> if !failed then [] else SM.quiesce inst)
      children
  in
  let seen = List.rev !seen in
  (seen, lives, seen @ at_quiesce)

let prop_dispatch_table_matches_reference =
  let labels = Array.of_list (List.map Trace.kind_label every_kind) in
  let kinds = Array.of_list every_kind in
  let child =
    QCheck2.Gen.(
      map
        (fun (keyed, observes, trip, accept) ->
          {
            d_keyed = keyed;
            d_observes = List.map (Array.get labels) observes;
            d_trip = trip;
            d_accept = accept;
          })
        (quad bool
           (list_size (int_bound 8) (int_bound (Trace.n_kind_tags - 1)))
           (int_range 1 6) (int_range 1 6)))
  in
  QCheck2.Test.make ~name:"dispatch table matches the reference fold" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 6) child)
        (list_size (int_bound 150) (int_bound (Trace.n_kind_tags - 1))))
    (fun (descs, stream) ->
      let tr = Trace.create ~n_sites:1 () in
      let events =
        List.map (fun k -> Trace.get tr (Trace.emit tr ~site:0 kinds.(k))) stream
      in
      table_driven descs events = reference descs events)

(* --- runtime integration: profile + timeseries on a real run --- *)

let test_run_with_profile_and_timeseries () =
  let profile = Profile.create () in
  let timeseries = Timeseries.create ~width:500.0 () in
  let cfg =
    { Runtime.default_config with Runtime.n_txns = 30; profile; timeseries }
  in
  let with_obs = Runtime.run cfg in
  let bare =
    Runtime.run { cfg with Runtime.profile = Profile.null; timeseries = Timeseries.null }
  in
  (* Observability must not perturb the simulation. *)
  check_int "committed identical" bare.Runtime.metrics.Runtime.committed
    with_obs.Runtime.metrics.Runtime.committed;
  check_int "messages identical" bare.Runtime.metrics.Runtime.msgs_sent
    with_obs.Runtime.metrics.Runtime.msgs_sent;
  let phase_names =
    List.map
      (fun p -> p.Profile.p_subsystem ^ "/" ^ p.Profile.p_phase)
      (Profile.phases profile)
  in
  check_bool "engine dispatch profiled" true
    (List.mem "engine/dispatch" phase_names);
  check_bool "network send profiled" true (List.mem "network/send" phase_names);
  check_bool "quorum gather profiled" true
    (List.mem "quorum/gather" phase_names);
  let ws = Timeseries.windows timeseries in
  check_bool "windows sampled" true (List.length ws > 0);
  let committed =
    match
      List.filter_map
        (fun name -> if name = "committed" then Some name else None)
        (Timeseries.series_names timeseries)
    with
    | [] -> false
    | _ -> true
  in
  check_bool "committed series registered" true committed;
  (* The per-window committed deltas sum to the run's committed count. *)
  let s =
    (* series handles aren't exposed post-hoc; re-derive via to_json *)
    match Timeseries.to_json timeseries with
    | Json.Obj fields -> (
      match List.assoc_opt "windows" fields with
      | Some (Json.List ws) ->
        List.fold_left
          (fun acc w ->
            match w with
            | Json.Obj wf -> (
              match List.assoc_opt "values" wf with
              | Some (Json.Obj vals) -> (
                match List.assoc_opt "committed" vals with
                | Some (Json.Num n) -> acc + int_of_float n
                | _ -> acc)
              | _ -> acc)
            | _ -> acc)
          0 ws
      | _ -> -1)
    | _ -> -1
  in
  check_int "window deltas sum to committed"
    bare.Runtime.metrics.Runtime.committed s

(* --- bench-diff --- *)

let bench_json ~kind ~per_s =
  Json.Obj
    [
      ("bench", Json.Str kind);
      ( "schemes",
        Json.Obj
          [
            ( "hybrid",
              Json.Obj
                [
                  ("committed", Json.int 100);
                  ("wall_s", Json.Num 1.0);
                  ("committed_per_s", Json.Num per_s);
                ] );
          ] );
    ]

let test_bench_diff_harvest () =
  let entry =
    Bench_diff.of_json ~file:"BENCH_9.json" (bench_json ~kind:"perf" ~per_s:500.0)
  in
  check_int "index parsed" 9 entry.Bench_diff.b_index;
  check_string "kind from bench field" "perf" entry.Bench_diff.b_kind;
  (match entry.Bench_diff.b_rows with
   | [ r ] ->
     check_string "dotted label" "schemes.hybrid" r.Bench_diff.r_label;
     check_bool "per_s preferred" true (r.Bench_diff.r_per_s = Some 500.0)
   | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
  check_bool "headline" true (Bench_diff.headline entry = Some 500.0);
  (* Kind falls back to the filename stem without a bench field. *)
  let bare =
    Bench_diff.of_json ~file:"BENCH_2.json"
      (Json.Obj [ ("x", Json.Obj [ ("committed", Json.int 5) ]) ])
  in
  check_string "stem fallback" "BENCH_2" bare.Bench_diff.b_kind

let test_bench_diff_gate_same_kind_only () =
  let entry ~file ~kind ~per_s = Bench_diff.of_json ~file (bench_json ~kind ~per_s) in
  (* A regression in "perf" is judged against the previous "perf" entry,
     skipping an interleaved entry of another kind. *)
  let entries =
    [
      entry ~file:"BENCH_3.json" ~kind:"perf" ~per_s:1000.0;
      entry ~file:"BENCH_4.json" ~kind:"other" ~per_s:9999.0;
      entry ~file:"BENCH_5.json" ~kind:"perf" ~per_s:700.0;
    ]
  in
  (match Bench_diff.gate entries ~threshold:0.2 with
   | Some v ->
     check_bool "regressed vs same-kind baseline" true v.Bench_diff.v_regressed;
     (match v.Bench_diff.v_baseline with
      | Some b -> check_string "baseline file" "BENCH_3.json" b.Bench_diff.b_file
      | None -> Alcotest.fail "expected a baseline");
     check_bool "ratio 0.7" true
       (match v.Bench_diff.v_ratio with
        | Some r -> abs_float (r -. 0.7) < 1e-9
        | None -> false)
   | None -> Alcotest.fail "expected a verdict");
  (* Within threshold: passes. *)
  let ok =
    [
      entry ~file:"BENCH_3.json" ~kind:"perf" ~per_s:1000.0;
      entry ~file:"BENCH_5.json" ~kind:"perf" ~per_s:900.0;
    ]
  in
  (match Bench_diff.gate ok ~threshold:0.2 with
   | Some v -> check_bool "10% dip passes" false v.Bench_diff.v_regressed
   | None -> Alcotest.fail "expected a verdict");
  (* First entry of a kind has no baseline and passes. *)
  let first =
    [
      entry ~file:"BENCH_3.json" ~kind:"other" ~per_s:1000.0;
      entry ~file:"BENCH_8.json" ~kind:"perf" ~per_s:1.0;
    ]
  in
  match Bench_diff.gate first ~threshold:0.2 with
  | Some v ->
    check_bool "no baseline" true (v.Bench_diff.v_baseline = None);
    check_bool "passes" false v.Bench_diff.v_regressed
  | None -> Alcotest.fail "expected a verdict"

let test_bench_diff_scan_and_injected_regression () =
  (* A scratch BENCH history on disk: scan must sort by index, skip
     unparsable files, and the gate must trip on an injected regression —
     the library half of what CI's `atomrep bench-diff` step exercises. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bench_diff_test_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name doc =
    Atomrep_obs.Export.write_file (Filename.concat dir name) (Json.to_string doc)
  in
  write "BENCH_8.json" (bench_json ~kind:"perf" ~per_s:1000.0);
  write "BENCH_3.json" (bench_json ~kind:"replicated-queue" ~per_s:500.0);
  Atomrep_obs.Export.write_file (Filename.concat dir "BENCH_junk.json") "not json";
  let entries = Bench_diff.scan ~dir in
  check_int "junk skipped, two entries" 2 (List.length entries);
  check_bool "sorted by index" true
    (List.map (fun e -> e.Bench_diff.b_index) entries = [ 3; 8 ]);
  (match Bench_diff.gate entries ~threshold:0.2 with
   | Some v ->
     check_bool "cross-kind newest passes (no baseline)" false
       v.Bench_diff.v_regressed
   | None -> Alcotest.fail "expected a verdict");
  (* Inject a regression: a newer perf entry at a fifth the throughput. *)
  write "BENCH_9.json" (bench_json ~kind:"perf" ~per_s:200.0);
  (match Bench_diff.gate (Bench_diff.scan ~dir) ~threshold:0.2 with
   | Some v ->
     check_bool "injected regression trips the gate" true
       v.Bench_diff.v_regressed
   | None -> Alcotest.fail "expected a verdict");
  List.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    [ "BENCH_3.json"; "BENCH_8.json"; "BENCH_9.json"; "BENCH_junk.json" ];
  Sys.rmdir dir

let suites =
  [
    ( "perfobs",
      [
        Alcotest.test_case "profile records phases" `Quick test_profile_records_phases;
        Alcotest.test_case "profile null is inert" `Quick test_profile_null_is_inert;
        Alcotest.test_case "profile counts on exception" `Quick
          test_profile_exception_still_counts;
        Alcotest.test_case "profile ambient install/restore" `Quick
          test_profile_ambient_install;
        Alcotest.test_case "profile json shape" `Quick test_profile_json_shape;
        Alcotest.test_case "timeseries: gap windows materialize empty" `Quick
          test_timeseries_empty_gap_windows;
        Alcotest.test_case "timeseries: single sample, partial window" `Quick
          test_timeseries_single_sample_run;
        Alcotest.test_case "timeseries: boundary event lands later" `Quick
          test_timeseries_boundary_lands_later;
        Alcotest.test_case "timeseries: run ends mid-window" `Quick
          test_timeseries_run_ends_mid_window;
        Alcotest.test_case "timeseries: empty run" `Quick test_timeseries_empty_run;
        Alcotest.test_case "timeseries: ring overflow" `Quick
          test_timeseries_ring_overflow;
        Alcotest.test_case "timeseries: registration freezes" `Quick
          test_timeseries_registration_freezes;
        Alcotest.test_case "judge-only bus: masked kinds, full-bus ids" `Quick
          test_judge_only_bus;
        Alcotest.test_case "judge-only bus: monitors never lose events" `Quick
          test_judge_only_bus_never_hides_monitor_events;
        Alcotest.test_case "judge-only bus: span metrics identical" `Quick
          test_judge_only_bus_keeps_span_metrics;
        Alcotest.test_case "trace bus: retained words and emit allocation" `Quick
          test_bus_memory_guard;
        Alcotest.test_case "judge-only bus: check_run agrees with a full bus" `Quick
          test_check_run_judge_only_agrees;
        Alcotest.test_case "judge-only bus stores the observed union" `Quick
          test_judge_only_bus_stores_observed_union;
        Alcotest.test_case "kind tags dense, labels unique and round-trip" `Quick
          test_kind_tags_dense_labels_round_trip;
        QCheck_alcotest.to_alcotest prop_dispatch_table_matches_reference;
        Alcotest.test_case "run with profile + timeseries" `Quick
          test_run_with_profile_and_timeseries;
        Alcotest.test_case "bench-diff: harvest" `Quick test_bench_diff_harvest;
        Alcotest.test_case "bench-diff: same-kind gate" `Quick
          test_bench_diff_gate_same_kind_only;
        Alcotest.test_case "bench-diff: scan + injected regression" `Quick
          test_bench_diff_scan_and_injected_regression;
      ] );
  ]
