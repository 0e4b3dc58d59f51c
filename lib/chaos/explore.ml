open Atomrep_replica

type task = {
  t_scheme : Replicated.scheme;
  t_profile : Campaign.profile;
  t_seed : int;
  t_intensity : float;
}

type report = {
  x_tasks : int;
  x_committed : int;
  x_aborted : int;
  x_violations : Campaign.violation list;
  x_shrunk : int;
  x_domains : int;
  x_wall_s : float;
}

(* One sweep run: everything it touches (engine, network, RNG, trace bus,
   metrics registry, monitor instances) is allocated inside the call, so
   any number of these can run on concurrent domains without sharing. *)
let run_task ~base ~n_txns ~monitors t =
  let cfg =
    Campaign.configure ~base ~scheme:t.t_scheme ~seed:t.t_seed ~n_txns
      ~intensity:t.t_intensity t.t_profile
  in
  let outcome, failures = Monitors.check_run ~monitors cfg in
  ( outcome.Runtime.metrics.Runtime.committed,
    outcome.Runtime.metrics.Runtime.aborted,
    failures )

let sweep ?domains ?(n_txns = 30) ?(monitors = Monitors.registry)
    ?(max_shrinks = 4) ?postmortem_dir ?(flags = []) ~base ~schemes ~profiles ~seeds
    ~intensities () =
  let tasks =
    List.concat_map
      (fun t_scheme ->
        List.concat_map
          (fun t_profile ->
            List.concat_map
              (fun t_intensity ->
                List.init seeds (fun t_seed ->
                    { t_scheme; t_profile; t_seed; t_intensity }))
              intensities)
          profiles)
      schemes
  in
  let n_tasks = List.length tasks in
  let domains =
    let d =
      match domains with
      | Some d -> d
      | None -> Domain.recommended_domain_count ()
    in
    max 1 (min d (max 1 n_tasks))
  in
  let t0 = Unix.gettimeofday () in
  let indexed = List.mapi (fun i t -> (i, t)) tasks in
  let results =
    if domains = 1 then
      List.map (fun (i, t) -> (i, t, run_task ~base ~n_txns ~monitors t)) indexed
    else begin
      (* Round-robin dealing spreads every (scheme, profile, intensity)
         stratum across workers, so no domain ends up with all the
         expensive cells. Results come back tagged with the task index
         and are re-merged in task order: the report is identical for
         any domain count. *)
      let buckets = Array.make domains [] in
      List.iter
        (fun (i, t) -> buckets.(i mod domains) <- (i, t) :: buckets.(i mod domains))
        indexed;
      let workers =
        Array.map
          (fun bucket ->
            let bucket = List.rev bucket in
            Domain.spawn (fun () ->
                List.map
                  (fun (i, t) -> (i, t, run_task ~base ~n_txns ~monitors t))
                  bucket))
          buckets
      in
      Array.to_list workers |> List.concat_map Domain.join
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    end
  in
  let wall = Unix.gettimeofday () -. t0 in
  let committed = ref 0 and aborted = ref 0 in
  let v_flags = Campaign.replay_flags ~base ~monitors flags in
  let raw =
    List.filter_map
      (fun (_, t, (c, a, failures)) ->
        committed := !committed + c;
        aborted := !aborted + a;
        if failures = [] then None
        else
          Some
            {
              Campaign.v_scheme = t.t_scheme;
              v_profile = t.t_profile;
              v_seed = t.t_seed;
              v_n_txns = n_txns;
              v_intensity = t.t_intensity;
              v_failures = failures;
              v_postmortem = None;
              v_flags;
            })
      results
  in
  (* Shrinking replays many candidate runs, so it stays in the main
     domain (deterministic order) and is capped: the first [max_shrinks]
     violations get minimized reproducers and postmortems, the rest are
     reported at their original tuples. *)
  let shrunk = ref 0 in
  let violations =
    List.map
      (fun v ->
        if !shrunk >= max_shrinks then v
        else begin
          incr shrunk;
          let v = Campaign.shrink ~monitors ~base v in
          match postmortem_dir with
          | Some dir -> Campaign.write_postmortem ~monitors ~base ~dir v
          | None -> v
        end)
      raw
  in
  {
    x_tasks = n_tasks;
    x_committed = !committed;
    x_aborted = !aborted;
    x_violations = violations;
    x_shrunk = !shrunk;
    x_domains = domains;
    x_wall_s = wall;
  }

(* --- regression fixtures --------------------------------------------- *)

type fixture = {
  f_name : string;
  f_doc : string;
  f_base : Runtime.config;
  f_scheme : Replicated.scheme;
  f_profile : Campaign.profile;
  f_seed : int;
  f_n_txns : int;
  f_intensity : float;
  f_expect_violation : bool;
  f_check : Runtime.outcome -> (string * string) list;
}

let profile_exn name =
  match Campaign.find_profile name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "builtin profile %s missing" name)

let fixtures =
  [
    {
      f_name = "ungated_rejoin";
      f_doc =
        "PR 1 double-dequeue: with resync gating and commit piggyback \
         disabled, a storm run loses a tentative append to \
         crash-with-amnesia and a stale rejoined view double-serves an \
         element — the monitors must still catch it";
      f_base = { Campaign.default_base with Runtime.ungated_rejoin = true };
      f_scheme = Replicated.Static;
      f_profile = profile_exn "storm";
      f_seed = 41;
      f_n_txns = 60;
      f_intensity = 2.0;
      f_expect_violation = true;
      f_check = (fun _ -> []);
    };
    {
      f_name = "takeover_adopt_fence";
      f_doc =
        "coordinator-killer tuple where a healed original coordinator \
         returns mid-takeover: adoptions and lease fences must both \
         happen, with every monitor quiet";
      f_base = Campaign.takeover_base;
      f_scheme = Replicated.Hybrid;
      f_profile = profile_exn "coordinator_killer";
      f_seed = 3;
      f_n_txns = 120;
      f_intensity = 1.0;
      f_expect_violation = false;
      f_check =
        (fun outcome ->
          let m = outcome.Runtime.metrics in
          (if m.Runtime.takeover_adoptions > 0 then []
           else [ ("takeover_adoptions", "expected at least one adopted commit") ])
          @
          if m.Runtime.takeover_fenced > 0 then []
          else [ ("takeover_fenced", "expected at least one fenced stale driver") ]);
    };
  ]

let find_fixture name =
  List.find_opt (fun f -> String.equal f.f_name name) fixtures

let fixture_names = List.map (fun f -> f.f_name) fixtures

type replay_result = {
  rr_fixture : fixture;
  rr_failures : (string * string) list;
  rr_checks : (string * string) list;
  rr_ok : bool;
}

let replay ?(monitors = Monitors.registry) f =
  let outcome, failures =
    Campaign.reproduce ~base:f.f_base ~monitors ~scheme:f.f_scheme
      ~profile:f.f_profile ~seed:f.f_seed ~n_txns:f.f_n_txns
      ~intensity:f.f_intensity ()
  in
  let checks = f.f_check outcome in
  {
    rr_fixture = f;
    rr_failures = failures;
    rr_checks = checks;
    rr_ok = (failures <> []) = f.f_expect_violation && checks = [];
  }
