(* perfbench: the repository benchmark (README.md documents the metrics).

   Two open-loop workloads, each run under all three atomicity schemes and
   judged by its oracles, each dominated by a different layer:

   - hot_queue: the default 3-site replicated queue, fault-free, with the
     runtime's Poisson arrivals. Every quorum gather merges one long log,
     so the replica log/view merge under quorum/gather dominates.
   - gray_open: a read-mostly open-loop plan over 8 counters on 5 sites
     with one 8x fail-slow site, gray mitigation on, every run judged by
     the full monitor catalogue over the trace bus. Gray bookkeeping, the
     trace bus and the spec monitors carry the cost.

   Usage:
     main.exe --workload W --seed N --seconds S --trace 0|1 [--size full|tiny]

   --trace 0 sets the workload up several times, then makes timed passes
   over its fixed work (at least three, more while S seconds allow), and
   prints the end-to-end metrics.
   --trace 1 runs the work once under the phase profiler and once plain,
   plus differential runs, and prints the per-layer metrics and a layer
   table whose rows sum to the traced wall. The last line of stdout is one
   JSON object; the exit code is 1 when any verdict or cross-check fails. *)

module Runtime = Atomrep_replica.Runtime
module Replicated = Atomrep_replica.Replicated
module Monitors = Atomrep_chaos.Monitors
module Openloop = Atomrep_workload.Openloop
module Trace = Atomrep_obs.Trace
module Profile = Atomrep_obs.Profile
module Spec_monitor = Atomrep_obs.Spec_monitor
module Summary = Atomrep_stats.Summary
module Network = Atomrep_sim.Network

let now = Unix.gettimeofday
let schemes = Replicated.[ Static; Hybrid; Locking ]
let scheme_name = Replicated.scheme_name

(* Benchmark-side spans: wall time accumulated per name around the calls
   the benchmark makes into the program's public functions. *)
let spans : (string, float) Hashtbl.t = Hashtbl.create 32
let span_total name = Option.value ~default:0.0 (Hashtbl.find_opt spans name)

let span name f =
  let t0 = now () in
  let v = f () in
  Hashtbl.replace spans name (span_total name +. (now () -. t0));
  v

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- workloads ---- *)

type size = Full | Tiny

(* How a run is judged — the two branches of Campaign.check_run, called
   directly so the traced run can time them: [Oracles] is the legacy
   history-oracle pair on an untraced run, [Catalogue] every
   Monitors.registry entry folded over a fresh trace bus. *)
type judge = Oracles | Catalogue

type job = { cfg : Runtime.config; judge : judge; dispatched : int }

type workload = {
  name : string;
  limit : float;  (** latency limit (sim ms) for fail_share *)
  setup : seed:int -> size -> job list;
  double : (job -> job) option;
      (** the same job at twice the history length, for words_growth_2x *)
}

(* Engine seeds of one workload's runs, derived from the workload seed. *)
let derive seed k = (seed * 1_000_003) + k

(* The default replicated queue, its relation built here so that set-up
   time covers it (the runtime's default config builds it at start-up). *)
let queue_object () =
  {
    Runtime.obj_name = "queue";
    obj_spec = Atomrep_spec.Queue_type.spec;
    obj_relation =
      span "core.relations" (fun () ->
          Atomrep_core.Static_dep.minimal Atomrep_spec.Queue_type.spec ~max_len:4);
    obj_assignment = Runtime.default_queue_assignment ~n_sites:3;
    obj_members = None;
  }

let hot_queue =
  let setup ~seed size =
    let runs, n_txns = match size with Full -> (24, 240) | Tiny -> (2, 40) in
    let queue = queue_object () in
    List.concat_map
      (fun k ->
        List.map
          (fun scheme ->
            {
              cfg =
                {
                  Runtime.default_config with
                  scheme;
                  seed = derive seed k;
                  n_txns;
                  (* Sparse enough that few transactions meet a conflict
                     backoff: at the runtime's 30 ms the latency quantiles
                     sit on the backoff ladder and jump between seeds. *)
                  arrival_mean = 200.0;
                  objects = [ queue ];
                };
              judge = Oracles;
              dispatched = n_txns;
            })
          schemes)
      (List.init runs Fun.id)
  in
  let double j =
    let n_txns = 2 * j.cfg.Runtime.n_txns in
    { j with cfg = { j.cfg with Runtime.n_txns }; dispatched = n_txns }
  in
  { name = "hot_queue"; limit = infinity; setup; double = Some double }

let gray_open =
  let setup ~seed size =
    let plans, horizon = match size with Full -> (8, 25_000.0) | Tiny -> (1, 6_000.0) in
    let n_sites = 5 in
    let base k =
      {
        Runtime.default_config with
        n_sites;
        seed = derive seed k;
        (* drain: let rounds begun near the end of the plan settle *)
        horizon = horizon +. 8_000.0;
        gray = Some Runtime.default_gray;
        fail_slow = [ (2, 1_000.0, Network.Slow_constant 8.0) ];
        timely_bound = 1_000.0;
      }
    in
    List.concat_map
      (fun k ->
        let plan =
          span "workload.plan" (fun () ->
              Openloop.plan ~profile:Openloop.Read_mostly ~n_objects:8 ~zipf_theta:0.9
                ~n_sites ~seed:(derive seed k) ~rate:0.012 ~horizon ())
        in
        (* Openloop.apply's cost is the per-object counter relations. *)
        let cfg = span "core.relations" (fun () -> Openloop.apply plan (base k)) in
        List.map
          (fun scheme ->
            { cfg = { cfg with Runtime.scheme }; judge = Catalogue; dispatched = Openloop.n_txns plan })
          schemes)
      (List.init plans Fun.id)
  in
  { name = "gray_open"; limit = 1_000.0; setup; double = None }

let workloads = [ hot_queue; gray_open ]

(* ---- running one job ---- *)

type run = {
  scheme : Replicated.scheme;
  metrics : Runtime.metrics;
  failures : (string * string) list;
  words : float;  (** minor words allocated inside Runtime.run *)
  trace_events : int;
  dispatched : int;
}

let run_job ?(profile = Profile.null) job =
  let trace =
    match job.judge with
    | Oracles -> None
    | Catalogue ->
      Some
        (span "obs.trace_create" (fun () ->
             Trace.create ~n_sites:job.cfg.Runtime.n_sites ()))
  in
  let cfg = { job.cfg with Runtime.trace; profile } in
  let w0 = Gc.minor_words () in
  let outcome = span "replica.run" (fun () -> Runtime.run cfg) in
  let words = Gc.minor_words () -. w0 in
  let failures =
    match trace with
    | None ->
      let a = span "atomicity.check" (fun () -> Runtime.check_atomicity cfg outcome) in
      a @ span "atomicity.common_order" (fun () -> Runtime.check_common_order cfg outcome)
    | Some tr ->
      Spec_monitor.failures
        (span "obs.monitors" (fun () ->
             Monitors.run Monitors.registry { Monitors.cfg; outcome } tr))
  in
  {
    scheme = cfg.Runtime.scheme;
    metrics = outcome.Runtime.metrics;
    failures;
    words;
    trace_events = (match trace with Some tr -> Trace.length tr | None -> 0);
    dispatched = job.dispatched;
  }

(* What must not change between two runs of one configuration, whatever
   is observing it. *)
let fingerprint r =
  let m = r.metrics in
  let l = m.Runtime.txn_latency in
  Printf.sprintf "%s committed=%d aborted=%d msgs=%d latency=%d/%h/%h/%h"
    (scheme_name r.scheme) m.Runtime.committed m.Runtime.aborted m.Runtime.msgs_sent
    (Summary.count l) (Summary.total l) (Summary.percentile l 0.5)
    (Summary.percentile l 0.99)

(* Failed cross-checks; any entry makes the run incorrect. *)
let problems : string list ref = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let judged = ref 0
let violated = ref 0

let tally runs =
  List.iter
    (fun r ->
      incr judged;
      if r.failures <> [] then begin
        incr violated;
        List.iter
          (fun (obj, why) -> problem "%s violation on %s: %s" (scheme_name r.scheme) obj why)
          r.failures
      end)
    runs

let same_runs what a b =
  List.iter2
    (fun x y ->
      let fx = fingerprint x and fy = fingerprint y in
      if fx <> fy then problem "%s differ: %s vs %s" what fx fy)
    a b

let sum f runs = List.fold_left (fun acc r -> acc + f r) 0 runs
let sumf f runs = List.fold_left (fun acc r -> acc +. f r) 0.0 runs

(* ---- output ---- *)

let out : (string * float * string) list ref = ref []

let metric ?(note = "") name unit value =
  Printf.printf "  %-34s %16.6f %-10s %s\n" name value unit note;
  out := (name, value, unit) :: !out

let json_line () =
  let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v in
  let metrics =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      !out
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!problems = []) !judged !violated (String.concat ", " metrics)

(* ---- end-to-end (untraced) ---- *)

(* Set-up is repeated at least [setup_min] times and until [setup_budget]
   seconds are spent; setup_s is the median. *)
let setup_min = 5
let setup_budget = 4.0

(* Timed passes over the job list: at least [min_passes], then more while
   the time allows. *)
let min_passes = 3

(* One job timed alone, from a collected heap so that no job pays for the
   garbage of the one before it. *)
let timed job =
  Gc.full_major ();
  let t0 = now () in
  let r = run_job job in
  (now () -. t0, r)

let end_to_end w ~seed ~seconds size =
  let t_start = now () in
  let rec setups acc n =
    let t0 = now () in
    let jobs = w.setup ~seed size in
    let acc = (now () -. t0) :: acc in
    if n + 1 < setup_min || now () -. t_start < setup_budget then setups acc (n + 1)
    else (acc, jobs)
  in
  let setup_times, jobs = setups [] 0 in
  (* The first pass gives the simulated-time metrics and the peak heap, so
     neither depends on how many passes the time allows. *)
  let first = List.map timed jobs in
  let gc = Gc.quick_stat () in
  let runs = List.map snd first in
  tally runs;
  (* A job's time is the fastest of its passes: load from outside the
     process lifts the passes it lands in, not the figure. *)
  let best = Array.of_list (List.map fst first) in
  let pass_walls = ref [ Array.fold_left ( +. ) 0.0 best ] in
  let rec more passes =
    let last = List.hd !pass_walls in
    if passes < min_passes || now () -. t_start +. last <= seconds then begin
      let again = List.map timed jobs in
      tally (List.map snd again);
      same_runs "repeated runs" runs (List.map snd again);
      List.iteri (fun i (t, _) -> best.(i) <- Float.min best.(i) t) again;
      pass_walls := sumf fst again :: !pass_walls;
      more (passes + 1)
    end
  in
  more 1;
  let pass_walls = List.rev !pass_walls in
  metric "setup_s" "s" (median setup_times)
    ~note:(Printf.sprintf "median of %d set-ups" (List.length setup_times));
  metric "wall_s" "s" (Array.fold_left ( +. ) 0.0 best)
    ~note:
      (Printf.sprintf "sum over %d runs of each one's fastest of %d passes (pass walls %s)"
         (List.length jobs) (List.length pass_walls)
         (String.concat " " (List.map (Printf.sprintf "%.3f") pass_walls)));
  metric "peak_heap_mb" "MB"
    (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)
    ~note:"after the first pass";
  List.iter
    (fun scheme ->
      let mine = List.filter (fun r -> r.scheme = scheme) runs in
      let lat = Summary.create () in
      List.iter
        (fun r -> List.iter (Summary.add lat) (Summary.observations r.metrics.Runtime.txn_latency))
        mine;
      let committed = sum (fun r -> r.metrics.Runtime.committed) mine in
      let dispatched = sum (fun r -> r.dispatched) mine in
      let counted = sum (fun r -> r.metrics.Runtime.timely_commits) mine in
      let within =
        List.length (List.filter (fun l -> l <= w.limit) (Summary.observations lat))
      in
      if Summary.count lat <> committed then
        problem "%s: %d latency samples for %d commits" (scheme_name scheme)
          (Summary.count lat) committed;
      if within <> counted then
        problem "%s: %d commits within %g ms, runtime counts %d" (scheme_name scheme)
          within w.limit counted;
      let p50 = Summary.percentile lat 0.5 and p95 = Summary.percentile lat 0.95 in
      let above = List.length (List.filter (fun l -> l > p95) (Summary.observations lat)) in
      let s = scheme_name scheme in
      metric (s ^ ".commit_p50_ms") "ms" p50 ~note:(Printf.sprintf "n=%d commits" committed);
      metric (s ^ ".commit_p95_ms") "ms" p95
        ~note:(Printf.sprintf "n=%d commits, %d above p95" committed above);
      (* Gated as the share that succeeded: fail_share = 1 - timely_share is
         0 for some scheme/workload pairs, and with few failures its
         relative spread between seeds exceeds any usable bound. *)
      let timely = float_of_int within /. float_of_int dispatched in
      metric (s ^ ".timely_share") "ratio" timely
        ~note:
          (Printf.sprintf "fail_share=%.6f: %d of %d dispatched failed" (1.0 -. timely)
             (dispatched - within) dispatched))
    schemes

(* ---- per-layer (traced) ---- *)

let phase ps subsystem name =
  match
    List.find_opt
      (fun p -> p.Profile.p_subsystem = subsystem && p.Profile.p_phase = name)
      ps
  with
  | Some p -> p
  | None ->
    { Profile.p_subsystem = subsystem; p_phase = name; p_count = 0; p_wall = 0.0;
      p_minor_words = 0.0 }

let per_layer w ~seed size =
  (* Set-up plus the profiled pass: one contiguous interval, the traced
     wall the layer table accounts for. *)
  Hashtbl.reset spans;
  let t0 = now () in
  let jobs = span "bench.setup" (fun () -> w.setup ~seed size) in
  let profile = Profile.create () in
  Profile.set_clock profile now;
  let traced = List.map (run_job ~profile) jobs in
  let traced_wall = now () -. t0 in
  let table = Hashtbl.copy spans in
  tally traced;
  (* The same work untraced: the baseline for the trace overhead, the
     program's own allocation, and the cross-check that the traced run
     measured the same program. *)
  Hashtbl.reset spans;
  let gc0 = Gc.quick_stat () in
  let u0 = now () in
  let plain = List.map run_job jobs in
  let plain_wall = now () -. u0 in
  let gc1 = Gc.quick_stat () in
  tally plain;
  same_runs "traced and untraced runs" traced plain;
  (* Differential runs on the trace-bus workload: the same config with the
     bus off, then on with each catalogue entry folded alone. *)
  Hashtbl.reset spans;
  let trace_s = ref 0.0 in
  List.iter2
    (fun job p ->
      if job.judge = Catalogue then begin
        let cfg = { job.cfg with Runtime.trace = None } in
        let t = now () in
        let off = Runtime.run cfg in
        let t_off = now () -. t in
        let tr = Trace.create ~n_sites:cfg.Runtime.n_sites () in
        let cfg = { cfg with Runtime.trace = Some tr } in
        let t = now () in
        let on = Runtime.run cfg in
        trace_s := !trace_s +. (now () -. t) -. t_off;
        List.iter
          (fun (o : Runtime.outcome) ->
            same_runs "runs with and without the trace bus" [ p ]
              [ { p with metrics = o.Runtime.metrics } ])
          [ off; on ];
        List.iter
          (fun (e : Monitors.entry) ->
            ignore
              (span ("obs.monitor." ^ e.Monitors.e_name) (fun () ->
                   Monitors.run [ e ] { Monitors.cfg; outcome = on } tr)))
          Monitors.registry
      end)
    jobs plain;
  let growth =
    match w.double with
    | None -> 0.0
    | Some double ->
      let first = List.filteri (fun i _ -> i < List.length schemes) jobs in
      let per_txn runs = sumf (fun r -> r.words) runs /. float_of_int (sum (fun r -> r.dispatched) runs) in
      let long = List.map (fun j -> run_job (double j)) first in
      tally long;
      per_txn long /. per_txn (List.filteri (fun i _ -> i < List.length schemes) plain)
  in
  let entry_s = Hashtbl.copy spans in
  (* Layer table over the traced wall: exclusive rows, then the inclusive
     profiler phases nested inside them. *)
  let ps = Profile.phases profile in
  let dispatch = phase ps "engine" "dispatch" and gather = phase ps "quorum" "gather" in
  let sp name = Option.value ~default:0.0 (Hashtbl.find_opt table name) in
  let plan_s = sp "workload.plan" and relations_s = sp "core.relations" in
  let run_s = sp "replica.run" in
  let rows =
    [
      ("workload.plan", plan_s);
      ("core.relations", relations_s);
      ("bench.config", sp "bench.setup" -. plan_s -. relations_s);
      ("replica.run_outside_events", run_s -. dispatch.Profile.p_wall);
      ("sim.dispatch_self", dispatch.Profile.p_wall -. gather.Profile.p_wall);
      ("quorum.gather", gather.Profile.p_wall);
      ("obs.trace_create", sp "obs.trace_create");
      ("atomicity.check", sp "atomicity.check");
      ("atomicity.common_order", sp "atomicity.common_order");
      ("obs.monitors", sp "obs.monitors");
    ]
  in
  let unaccounted = traced_wall -. List.fold_left (fun a (_, v) -> a +. v) 0.0 rows in
  let share v = if traced_wall > 0.0 then v /. traced_wall else 0.0 in
  Printf.printf "  layer table, traced wall %.4f s (rows are exclusive and sum to it)\n" traced_wall;
  List.iter
    (fun (name, v) -> Printf.printf "    %-32s %10.4f s %7.2f%%\n" name v (100.0 *. share v))
    (rows @ [ ("bench.unaccounted", unaccounted) ]);
  Printf.printf "  inclusive profiler phases (nested in the rows above, not summed)\n";
  List.iter
    (fun p ->
      Printf.printf "    %-32s %10.4f s %7.2f%%  calls=%d minor_words=%.0f\n"
        (p.Profile.p_subsystem ^ "/" ^ p.Profile.p_phase)
        p.Profile.p_wall (100.0 *. share p.Profile.p_wall) p.Profile.p_count
        p.Profile.p_minor_words)
    ps;
  let dispatched = float_of_int (sum (fun r -> r.dispatched) plain) in
  let per_txn n = float_of_int n /. dispatched in
  let msum f = sum (fun r -> f r.metrics) plain in
  let hedges = msum (fun m -> m.Runtime.hedges) in
  List.iter (fun (name, v) -> metric (name ^ "_s") "s" v) rows;
  metric "replica.run_s" "s" run_s;
  metric "replica.run_share" "ratio" (share run_s);
  metric "replica.words_per_txn" "words/txn" (sumf (fun r -> r.words) plain /. dispatched);
  metric "replica.words_growth_2x" "ratio" growth
    ~note:(if w.double = None then "not measured on this workload" else "");
  metric "quorum.gathers_per_txn" "1/txn" (per_txn gather.Profile.p_count);
  metric "quorum.gather_words_per_txn" "words/txn" (gather.Profile.p_minor_words /. dispatched);
  metric "sim.events_per_txn" "1/txn" (per_txn dispatch.Profile.p_count);
  metric "sim.send_incl_s" "s" (phase ps "network" "send").Profile.p_wall;
  metric "sim.msgs_per_txn" "1/txn" (per_txn (msum (fun m -> m.Runtime.msgs_sent)));
  metric "sim.msgs_dropped" "count" (float_of_int (msum (fun m -> m.Runtime.msgs_dropped)));
  metric "sim.rpc_timeouts_per_txn" "1/txn" (per_txn (msum (fun m -> m.Runtime.rpc_timeouts)));
  metric "sim.rpc_hedges" "count" (float_of_int hedges);
  metric "sim.rpc_hedge_win_ratio" "ratio"
    (if hedges = 0 then 0.0
     else float_of_int (msum (fun m -> m.Runtime.hedge_wins)) /. float_of_int hedges);
  metric "sim.rpc_hedge_late" "count" (float_of_int (msum (fun m -> m.Runtime.hedge_late)));
  metric "sim.slow_suspicions" "count" (float_of_int (msum (fun m -> m.Runtime.slow_suspicions)));
  metric "replica.demoted_rounds" "count" (float_of_int (msum (fun m -> m.Runtime.demoted_rounds)));
  metric "cc.blocked_waits_per_txn" "1/txn" (per_txn (msum (fun m -> m.Runtime.blocked_waits)));
  metric "cc.conflict_aborts" "count" (float_of_int (msum (fun m -> m.Runtime.conflict_aborts)));
  metric "cc.retries_spent" "count" (float_of_int (msum (fun m -> m.Runtime.retries_spent)));
  metric "cc.deadlock_aborts" "count" (float_of_int (msum (fun m -> m.Runtime.deadlock_aborts)));
  metric "store.wal_flushes" "count" (float_of_int (msum (fun m -> m.Runtime.wal_flushes)));
  metric "store.wal_flush_s" "s" (phase ps "wal" "flush").Profile.p_wall;
  metric "store.recoveries" "count" (float_of_int (msum (fun m -> m.Runtime.recoveries)));
  metric "txn.coop_commits" "count" (float_of_int (msum (fun m -> m.Runtime.coop_commits)));
  metric "txn.redrives" "count" (float_of_int (msum (fun m -> m.Runtime.redrives)));
  metric "txn.stranded_entries" "count" (float_of_int (msum (fun m -> m.Runtime.stranded_entries)));
  metric "txn.decision_flush_s" "s" (phase ps "wal" "decision_flush").Profile.p_wall;
  metric "atomicity.share" "ratio"
    (share (sp "atomicity.check" +. sp "atomicity.common_order"));
  metric "obs.trace_s" "s" !trace_s ~note:"bus on minus bus off, Runtime.run";
  metric "obs.publish_incl_s" "s" (phase ps "trace" "publish").Profile.p_wall;
  metric "obs.trace_events_per_txn" "1/txn" (per_txn (sum (fun r -> r.trace_events) plain));
  List.iter
    (fun (e : Monitors.entry) ->
      let name = "obs.monitor." ^ e.Monitors.e_name in
      metric (name ^ "_s") "s" (Option.value ~default:0.0 (Hashtbl.find_opt entry_s name)))
    Monitors.registry;
  metric "gc.minor_collections" "count"
    (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
  metric "gc.major_collections" "count"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  metric "bench.traced_wall_s" "s" traced_wall;
  metric "bench.unaccounted_s" "s" unaccounted;
  metric "bench.trace_overhead" "ratio"
    ((traced_wall -. sp "bench.setup") /. plain_wall)
    ~note:(Printf.sprintf "profiled %.4f s / plain %.4f s" (traced_wall -. sp "bench.setup") plain_wall)

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload hot_queue|chaos_sweep|gray_open --seed N --seconds S \
     --trace 0|1 [--size full|tiny]";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and size = ref Full in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match List.find_opt (fun w -> w.name = v) workloads with
       | Some w -> workload := Some w
       | None -> prerr_endline ("unknown workload " ^ v); usage ());
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := v = "1";
      parse rest
    | "--size" :: ("full" | "tiny" as v) :: rest ->
      size := if v = "tiny" then Tiny else Full;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match !workload with Some w -> w | None -> usage () in
  Printf.printf "perfbench %s seed=%d trace=%d\n%!" w.name !seed (Bool.to_int !trace);
  if !trace then per_layer w ~seed:!seed !size
  else end_to_end w ~seed:!seed ~seconds:!seconds !size;
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) (List.rev !problems);
  json_line ();
  if !problems <> [] then exit 1
