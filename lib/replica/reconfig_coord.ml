(* Reconfiguration coordinator: the failure detector feeds a periodic
   check; when a current member is suspected dead, the policy proposes a
   new (member set, assignment) over the live view and the handoff runs
   through {!Replicated.reconfigure}. *)

open Atomrep_quorum
open Atomrep_sim
open Runtime_config
open Run_state

(* Coordinator wake-up period (sim ms). *)
let check_every = 60.0

(* Minimum time between reconfiguration attempts (sim ms). *)
let cooldown = 150.0

(* Per-site up-probability the placement policy scores with; the policy
   weights the type's operations uniformly. *)
let assume_p = 0.9

(* Slow-suspicion age (sim ms) before a demoting run treats the site as
   down for planning; static atomicity still refuses the handoff
   (Theorems 10–12). *)
let demote_grace = 500.0

let install st rc det =
  let c = st.counters in
  (* The coordinator runs at the detector's monitor site. *)
  let monitor = Detector.monitor det in
  let now () = Engine.now st.engine in
  let in_flight = ref false in
  let last_done = ref (-.cooldown) in
  let consider (_, obj) =
    if
      (not !in_flight)
      && Network.site_up st.net monitor
      && now () -. !last_done >= cooldown
    then begin
      let live = Detector.live det in
      (* Demotion handoff: a site slow-suspected past the grace period is
         as good as down for planning purposes — exclude it from the live
         view so Reassign proposes quorums off it. Reconfigure itself
         still refuses the handoff under static atomicity (Theorems
         10–12), so this only ever takes effect where the scheme permits
         reassignment. *)
      let live =
        match st.cfg.gray with
        | Some gc when gc.demote ->
          List.filter
            (fun s ->
              match Detector.slow_since det s with
              | Some t0 -> now () -. t0 < demote_grace
              | None -> true)
            live
        | _ -> live
      in
      let members = Epoch.members (Replicated.current_epoch obj) in
      if List.exists (fun s -> not (List.mem s live)) members then begin
        let plan =
          match rc.plan_override with
          | Some f -> f ~live ~n_sites:st.cfg.n_sites
          | None ->
            Reassign.plan ~live ~ops:(Replicated.ops obj)
              ~constraints:(Replicated.constraints obj) ~p:assume_p ()
        in
        match plan with
        | None -> () (* no satisfying assignment: keep the old epoch *)
        | Some (members', _) when members' = members -> ()
        | Some (members', assignment') ->
          in_flight := true;
          let t0 = now () in
          Replicated.reconfigure obj ~members:members' ~assignment:assignment'
            ~from:monitor
            (fun result ->
              in_flight := false;
              last_done := now ();
              match result with
              | Replicated.Reconfigured _ ->
                Metrics.incr c.c_reconfig_done;
                Metrics.observe c.c_reconfig_latency (now () -. t0)
              | Replicated.Refused _ -> Metrics.incr c.c_reconfig_refused
              | Replicated.Failed _ -> Metrics.incr c.c_reconfig_failed)
      end
    end
  in
  let rec check () =
    Engine.schedule st.engine ~delay:check_every (fun () ->
        List.iter consider st.objects;
        check ())
  in
  check ()
