open Atomrep_replica
module Trace = Atomrep_obs.Trace
module Export = Atomrep_obs.Export
module Json = Atomrep_obs.Json
module Postmortem = Atomrep_obs.Postmortem

type profile = { profile_name : string; nemesis : Nemesis.t }

let builtin_profiles =
  [
    {
      profile_name = "crashes";
      nemesis = Nemesis.Crash_storm { mtbf = 400.0; mttr = 120.0; amnesia = false };
    };
    {
      profile_name = "amnesia";
      nemesis = Nemesis.Crash_storm { mtbf = 500.0; mttr = 120.0; amnesia = true };
    };
    {
      profile_name = "partitions";
      nemesis = Nemesis.Rolling_partition { every = 300.0; duration = 120.0 };
    };
    {
      profile_name = "flaky";
      nemesis =
        Nemesis.Flaky_links { drop = 0.05; dup = 0.10; spike = 0.05; one_way = true };
    };
    { profile_name = "skew"; nemesis = Nemesis.Skew { every = 150.0; max_skew = 5 } };
    {
      profile_name = "flapping";
      nemesis = Nemesis.Flapping { every = 250.0; down_for = 40.0 };
    };
    {
      (* Progressive permanent site loss: victims die newest-site-first so
         the monitor (site 0) survives. Unlike the cycling storms, nobody
         comes back — without reconfiguration, availability only decays. *)
      profile_name = "kills";
      nemesis =
        Nemesis.Staggered_kill { start = 600.0; gap = 1200.0; victims = [ 4; 3; 2 ] };
    };
    {
      (* Crash-with-amnesia plus the whole storage fault surface: torn
         tail writes land exactly at the crashes, bit rot corrupts durable
         records between them, flush barriers lie, disks fill. Only bites
         under a [Durable] runtime (e.g. [storage_base]); on volatile
         repositories the storage faults are no-ops and this reduces to
         the amnesia profile. *)
      profile_name = "storage_storm";
      nemesis =
        Nemesis.Compose
          [
            Nemesis.Crash_storm { mtbf = 600.0; mttr = 120.0; amnesia = true };
            Nemesis.Storage_faults
              {
                torn_every = 500.0;
                rot_every = 700.0;
                lost_every = 900.0;
                full_every = 1500.0;
                full_for = 200.0;
              };
          ];
    };
    {
      (* Ambush coordinators inside the commit window (plus a light link
         flake so commit broadcasts and vote rounds also lose messages):
         the in-doubt scenario crash-safe termination exists for. Under a
         [Disabled]-termination base this strands tentative entries; with
         termination enabled ([termination_base]) the oracles must still
         hold and the stranded-entry gauge must drain. *)
      profile_name = "coordinator_killer";
      nemesis =
        Nemesis.Compose
          [
            Nemesis.Coordinator_killer { p_kill = 0.25; delay = 4.0; mttr = 400.0 };
            Nemesis.Flaky_links { drop = 0.02; dup = 0.02; spike = 0.02; one_way = false };
          ];
    };
    {
      (* Every driver of the same transaction dies or returns at the worst
         moment: coordinators are ambushed in the commit window and healed
         back quickly (so the original returns into its fenced re-drive
         while an adoption is in flight), takers-over are ambushed at
         their lease bids (so the next contender must out-bid a corpse),
         rolling partitions split the contenders, and a light link flake
         loses grant and vote messages. Pair with {!takeover_base}: the
         takeover protocol must convert the strandings into adopted
         commits while the no-divergence monitor holds. *)
      profile_name = "takeover_storm";
      nemesis =
        Nemesis.Compose
          [
            Nemesis.Coordinator_killer { p_kill = 0.3; delay = 4.0; mttr = 250.0 };
            Nemesis.Takeover_killer { p_kill = 0.35; delay = 6.0; mttr = 300.0 };
            Nemesis.Rolling_partition { every = 700.0; duration = 90.0 };
            Nemesis.Flaky_links { drop = 0.02; dup = 0.02; spike = 0.02; one_way = false };
          ];
    };
    {
      (* Overload meets faults: meant to run over {!overload_base}, whose
         open-loop plan carries a flash crowd — the nemesis adds rolling
         partitions (so quorum RPCs time out and retries amplify exactly
         while the crowd peaks) and a light link flake. Survivable with
         admission control, shedding, and a finite retry budget; without
         them the goodput collapses while offered load keeps arriving. *)
      profile_name = "overload_storm";
      nemesis =
        Nemesis.Compose
          [
            Nemesis.Rolling_partition { every = 700.0; duration = 100.0 };
            Nemesis.Flaky_links { drop = 0.02; dup = 0.02; spike = 0.02; one_way = false };
          ];
    };
    {
      profile_name = "storm";
      nemesis =
        Nemesis.Compose
          [
            Nemesis.Crash_storm { mtbf = 800.0; mttr = 100.0; amnesia = true };
            Nemesis.Rolling_partition { every = 500.0; duration = 100.0 };
            Nemesis.Flaky_links { drop = 0.02; dup = 0.05; spike = 0.02; one_way = false };
            Nemesis.Skew { every = 300.0; max_skew = 3 };
          ];
    };
    {
      (* Gray failures: random sites repeatedly turn fail-slow — up,
         answering, just dragging every quorum round to their pace — while
         a light link flake keeps timeouts honest. Meant to be survived
         over {!gray_base}: hedged early-quorum rounds and slow-site
         demotion keep latency bounded, and the [hedge_safety] monitor
         must hold (no double-apply from duplicate hedged deliveries,
         verdicts identical hedged or not). *)
      profile_name = "gray_storm";
      nemesis =
        Nemesis.Compose
          [
            Nemesis.Fail_slow { every = 600.0; duration = 450.0; factor = 8.0 };
            Nemesis.Flaky_links
              { drop = 0.01; dup = 0.02; spike = 0.02; one_way = false };
          ];
    };
  ]

let find_profile name =
  List.find_opt (fun p -> String.equal p.profile_name name) builtin_profiles

let default_base = { Runtime.default_config with horizon = 40_000.0 }

(* Small segments and an aggressive checkpoint period so that chaos-length
   runs actually roll segments and compact; group commit so torn writes
   and lost flushes have a mixed (tentative + status) buffer to bite. *)
let storage_base =
  {
    default_base with
    Runtime.durability =
      Repository.durable ~group_commit:true ~segment_records:16
        ~checkpoint_every:48 ();
  }

(* Crash-safe termination on: the base the coordinator_killer profile is
   meant to be survived with. Cooperative termination resolves in-doubt
   transactions whose coordinator is down, the reaper sweeps orphans, and
   deadlock detection keeps the locking scheme's blocked operations from
   degenerating into retry-budget aborts under the extra contention. *)
let termination_base =
  {
    default_base with
    Runtime.termination = Atomrep_txn.Termination.Cooperative;
    deadlock = Runtime.Detect;
  }

(* Coordinator takeover on top of the termination base: the base the
   takeover_storm profile is meant to be survived with. *)
let takeover_base = { termination_base with Runtime.takeover = true }

(* Open-loop overload: a flash-crowd arrival plan (precomputed, so every
   scheme and seed replays the identical offered load) over admission
   control with shed-by-class, a sojourn deadline, a finite per-txn retry
   budget and the per-site circuit breaker — the full graceful-degradation
   surface the overload_storm profile stresses. Termination/deadlock are
   left at the caller's defaults so the CLI flags compose as usual. *)
let overload_plan =
  Atomrep_workload.Openloop.plan
    ~curve:
      (Atomrep_workload.Openloop.Flash_crowd
         { at = 3_000.0; duration = 2_000.0; mult = 10.0 })
    ~profile:Atomrep_workload.Openloop.Queue_fanout ~n_objects:3 ~n_sites:3
    ~n_sessions:6 ~seed:97 ~rate:0.004 ~horizon:12_000.0 ()

let overload_base =
  Atomrep_workload.Openloop.apply overload_plan
    {
      default_base with
      Runtime.horizon = 30_000.0;
      admission =
        Some
          {
            Runtime.max_in_flight = 6;
            queue_limit = 12;
            deadline = 2_500.0;
            adm_shed_policy = Runtime.Shed_reads_first;
            adm_breaker = true;
          };
      retry_budget = 12;
    }

(* Gray-failure mitigation on: the base the gray_storm profile is meant to
   be survived with — hedged early-quorum rounds, latency scoring, and
   slow-site demotion, over the default 3-site cluster. *)
let gray_base = { default_base with Runtime.gray = Some Runtime.default_gray }

let reconfig_base =
  let n_sites = 5 in
  {
    Runtime.default_config with
    n_sites;
    horizon = 8_000.0;
    arrival_mean = 120.0;
    objects = Runtime.queue_objects ~n_sites;
    reconfig = Some Runtime.default_reconfig;
  }

type task = {
  base : Runtime.config;
  scheme : Replicated.scheme;
  profile : profile;
  seed : int;
  n_txns : int;
  intensity : float;
}

let configure ?trace t =
  {
    t.base with
    Runtime.scheme = t.scheme;
    seed = t.seed;
    n_txns = t.n_txns;
    install_faults =
      (fun net -> Nemesis.install (Nemesis.scale t.intensity t.profile.nemesis) net);
    trace = (match trace with Some _ -> trace | None -> t.base.Runtime.trace);
  }

(* The one place a task is run and judged. Everything a run touches
   (engine, network, RNG, trace bus, metrics registry, monitor instances)
   is allocated inside the call, so runs on concurrent domains share
   nothing. *)
let run ?monitors ?trace t = Monitors.check_run ?monitors (configure ?trace t)

type violation = {
  v_task : task;
  v_failures : (string * string) list;
  v_postmortem : string option;
  v_flags : string list;
}

(* Shrink a violation into the smallest reproducer the bisection finds:
   first the transaction count (binary search down from the failing count,
   keeping the invariant that the upper bound still fails), then the fault
   intensity by repeated halving. Neither dimension is monotone, so the
   result is a local minimum — which is all a reproducer needs. *)
let shrink ?monitors v =
  let failures n_txns intensity = snd (run ?monitors { v.v_task with n_txns; intensity }) in
  let fails n_txns intensity = failures n_txns intensity <> [] in
  let rec bisect_txns lo hi =
    (* invariant: [hi] fails *)
    if hi - lo <= 1 then hi
    else begin
      let mid = (lo + hi) / 2 in
      if fails mid v.v_task.intensity then bisect_txns lo mid else bisect_txns mid hi
    end
  in
  let n_txns = bisect_txns 0 v.v_task.n_txns in
  let rec soften intensity =
    let candidate = intensity /. 2.0 in
    if candidate >= 0.05 && fails n_txns candidate then soften candidate
    else intensity
  in
  let intensity = soften v.v_task.intensity in
  {
    v with
    v_task = { v.v_task with n_txns; intensity };
    v_failures = failures n_txns intensity;
  }

let replay_flags ~(base : Runtime.config) ~monitors flags =
  let selection = Monitors.selection_name monitors in
  flags
  @ (match base.mutant with
     | Some m -> [ "--mutant"; Replicated.mutant_name m ]
     | None -> [])
  @
  if selection = Monitors.selection_name Monitors.history then []
  else [ "--monitor"; selection ]

let reproducer_line v =
  let t = v.v_task in
  String.concat " "
    (Printf.sprintf
       "atomrep chaos --repro --schemes %s --profiles %s --seed %d --txns %d \
        --intensity %g"
       (Replicated.scheme_name t.scheme)
       t.profile.profile_name t.seed t.n_txns t.intensity
    :: v.v_flags)

let failures_json failures =
  Json.List
    (List.map
       (fun (m, why) -> Json.Obj [ ("monitor", Json.Str m); ("message", Json.Str why) ])
       failures)

let violation_json v =
  let t = v.v_task in
  Json.Obj
    [
      ("scheme", Json.Str (Replicated.scheme_name t.scheme));
      ("profile", Json.Str t.profile.profile_name);
      ("seed", Json.int t.seed);
      ("txns", Json.int t.n_txns);
      ("intensity", Json.Num t.intensity);
      ("repro", Json.Str (reproducer_line v));
      ("failures", failures_json v.v_failures);
      ("postmortem", match v.v_postmortem with Some p -> Json.Str p | None -> Json.Null);
    ]

(* Replay a (shrunk) violation with tracing on and slice the trace to the
   causal cone of the violating actions. Determinism makes the traced
   replay produce the same failure the untraced run did. *)
let trace_violation ?monitors v =
  let t = v.v_task in
  let trace = Trace.create ~n_sites:t.base.Runtime.n_sites () in
  let _, failures = run ?monitors ~trace t in
  let header =
    [
      ("scheme", Replicated.scheme_name t.scheme);
      ("profile", t.profile.profile_name);
      ("seed", string_of_int t.seed);
      ("txns", string_of_int t.n_txns);
      ("intensity", Printf.sprintf "%g" t.intensity);
      ("repro", reproducer_line v);
    ]
  in
  (trace, Postmortem.build trace ~header ~failures)

let write_postmortem ?monitors ~dir v =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let trace, pm = trace_violation ?monitors v in
  let t = v.v_task in
  let slug =
    Printf.sprintf "%s-%s-seed%d" (Replicated.scheme_name t.scheme) t.profile.profile_name
      t.seed
  in
  let pm_path = Filename.concat dir ("postmortem-" ^ slug ^ ".txt") in
  Export.write_file pm_path (Postmortem.render pm);
  Export.write_file
    (Filename.concat dir ("trace-" ^ slug ^ ".jsonl"))
    (Export.jsonl trace);
  { v with v_postmortem = Some pm_path }

let grid ~base ~schemes ~profiles ~seeds ~intensities ~n_txns =
  List.concat_map
    (fun scheme ->
      List.concat_map
        (fun profile ->
          List.concat_map
            (fun intensity ->
              List.init seeds (fun seed ->
                  { base; scheme; profile; seed; n_txns; intensity }))
            intensities)
        profiles)
    schemes

type result = {
  r_task : task;
  r_metrics : Runtime.metrics;
  r_failures : (string * string) list;
  r_violation : violation option;
}

let sweep ?domains ?(monitors = Monitors.history) ?(max_shrinks = max_int)
    ?postmortem_dir ~flags tasks =
  let judge t =
    let outcome, failures = run ~monitors t in
    {
      r_task = t;
      r_metrics = outcome.Runtime.metrics;
      r_failures = failures;
      r_violation = None;
    }
  in
  let domains =
    let d = match domains with Some d -> d | None -> Domain.recommended_domain_count () in
    max 1 (min d (List.length tasks))
  in
  let results =
    if domains = 1 then List.map judge tasks
    else begin
      (* Round-robin dealing spreads every (scheme, profile, intensity)
         stratum across workers, so no domain ends up with all the
         expensive cells. Results come back tagged with the task index
         and are re-merged in task order: the results are identical for
         any domain count. *)
      let buckets = Array.make domains [] in
      List.iteri
        (fun i t -> buckets.(i mod domains) <- (i, t) :: buckets.(i mod domains))
        tasks;
      Array.map
        (fun bucket ->
          Domain.spawn (fun () -> List.map (fun (i, t) -> (i, judge t)) (List.rev bucket)))
        buckets
      |> Array.to_list |> List.concat_map Domain.join
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
    end
  in
  (* Shrinking replays many candidate runs, so it stays in the main
     domain (deterministic order) and is capped: the first [max_shrinks]
     violations get minimized reproducers and postmortems, the rest are
     reported at their original tuples. *)
  let shrunk = ref 0 in
  List.map
    (fun r ->
      if r.r_failures = [] then r
      else begin
        let v =
          {
            v_task = r.r_task;
            v_failures = r.r_failures;
            v_postmortem = None;
            v_flags = replay_flags ~base:r.r_task.base ~monitors flags;
          }
        in
        let v =
          if !shrunk >= max_shrinks then v
          else begin
            incr shrunk;
            let v = shrink ~monitors v in
            match postmortem_dir with
            | Some dir -> write_postmortem ~monitors ~dir v
            | None -> v
          end
        in
        { r with r_violation = Some v }
      end)
    results

type cell = {
  c_scheme : Replicated.scheme;
  c_profile : string;
  c_runs : int;
  c_committed : int;
  c_aborted : int;
  c_violations : int;
}

type report = {
  cells : cell list;
  violations : violation list;
  total_runs : int;
}

let report results =
  let add cells r =
    let m = r.r_metrics and bad = if r.r_failures = [] then 0 else 1 in
    match cells with
    | c :: rest
      when c.c_scheme = r.r_task.scheme
           && String.equal c.c_profile r.r_task.profile.profile_name ->
      {
        c with
        c_runs = c.c_runs + 1;
        c_committed = c.c_committed + m.Runtime.committed;
        c_aborted = c.c_aborted + m.Runtime.aborted;
        c_violations = c.c_violations + bad;
      }
      :: rest
    | _ ->
      {
        c_scheme = r.r_task.scheme;
        c_profile = r.r_task.profile.profile_name;
        c_runs = 1;
        c_committed = m.Runtime.committed;
        c_aborted = m.Runtime.aborted;
        c_violations = bad;
      }
      :: cells
  in
  {
    cells = List.rev (List.fold_left add [] results);
    violations = List.filter_map (fun r -> r.r_violation) results;
    total_runs = List.length results;
  }

let pp_violation ppf v =
  let t = v.v_task in
  Format.fprintf ppf "@[<v 2>VIOLATION %s/%s seed=%d txns=%d intensity=%g@,repro: %s"
    (Replicated.scheme_name t.scheme)
    t.profile.profile_name t.seed t.n_txns t.intensity (reproducer_line v);
  (match v.v_postmortem with
   | Some path -> Format.fprintf ppf "@,postmortem: %s" path
   | None -> ());
  List.iter (fun (obj, why) -> Format.fprintf ppf "@,%s: %s" obj why) v.v_failures;
  Format.fprintf ppf "@]"

let pp_report ppf r =
  Format.fprintf ppf "%-9s %-12s %6s %10s %8s %10s@." "scheme" "profile" "runs"
    "committed" "aborted" "violations";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-9s %-12s %6d %10d %8d %10d@."
        (Replicated.scheme_name c.c_scheme)
        c.c_profile c.c_runs c.c_committed c.c_aborted c.c_violations)
    r.cells;
  Format.fprintf ppf "%d runs, %d violation(s)@." r.total_runs
    (List.length r.violations);
  List.iter (fun v -> Format.fprintf ppf "%a@." pp_violation v) r.violations

(* --- regression fixtures --------------------------------------------- *)

type fixture = {
  f_name : string;
  f_doc : string;
  f_task : task;
  f_flags : string list;
  f_expect_violation : bool;
  f_check : Runtime.metrics -> (string * string) list;
}

let profile name =
  match find_profile name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "unknown chaos profile %s" name)

let fixtures =
  [
    {
      f_name = "ungated_rejoin";
      f_doc =
        "ungated-rejoin double-dequeue: under the ungated_rejoin mutant (no \
         resync gating, no commit piggyback), a storm run loses a tentative append to \
         crash-with-amnesia and a stale rejoined view double-serves an \
         element — the monitors must still catch it";
      f_task =
        {
          base = { default_base with Runtime.mutant = Some Replicated.Ungated_rejoin };
          scheme = Replicated.Static;
          profile = profile "storm";
          seed = 41;
          n_txns = 60;
          intensity = 2.0;
        };
      f_flags = [];
      f_expect_violation = true;
      f_check = (fun _ -> []);
    };
    {
      f_name = "takeover_adopt_fence";
      f_doc =
        "coordinator-killer tuple where a healed original coordinator \
         returns mid-takeover: adoptions and lease fences must both \
         happen, with every monitor quiet";
      f_task =
        {
          base = takeover_base;
          scheme = Replicated.Hybrid;
          profile = profile "coordinator_killer";
          seed = 3;
          n_txns = 120;
          intensity = 1.0;
        };
      f_flags = [ "--termination"; "cooperative"; "--deadlock"; "detect"; "--takeover" ];
      f_expect_violation = false;
      f_check =
        (fun m ->
          (if m.Runtime.takeover_adoptions > 0 then []
           else [ ("takeover_adoptions", "expected at least one adopted commit") ])
          @
          if m.Runtime.takeover_fenced > 0 then []
          else [ ("takeover_fenced", "expected at least one fenced stale driver") ]);
    };
  ]

let find_fixture name = List.find_opt (fun f -> String.equal f.f_name name) fixtures
let fixture_names = List.map (fun f -> f.f_name) fixtures

let replay_fixtures ?monitors fixtures =
  List.concat_map
    (fun f -> sweep ?monitors ~max_shrinks:0 ~flags:f.f_flags [ f.f_task ])
    fixtures

let fixture_holds f r =
  (r.r_failures <> []) = f.f_expect_violation && f.f_check r.r_metrics = []
