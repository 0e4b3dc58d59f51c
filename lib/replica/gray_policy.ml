(* Gray-failure mitigation (DESIGN §3j): install the routing/hedging hooks
   on every object. Routing drops slow-suspected members from a round's
   primaries (never below its quorum floor); members routed out are the
   hedge spares of last resort. *)

open Atomrep_sim
open Runtime_config
open Run_state

(* The hedge delay: this percentile of recently observed RPC latencies,
   pooled across non-slow sites, but never under the floor (sim ms). *)
let hedge_percentile = 0.95
let hedge_delay_floor = 2.0

(* Spare re-issues per quorum round. *)
let hedge_max = 2

let install st gc det =
  let c = st.counters in
  (* Per-site latency histograms mirrored into the registry — the same
     samples the detector's books score. *)
  let site_lat =
    Array.init st.cfg.n_sites (fun site ->
        Metrics.histogram st.registry
          ~labels:
            [
              ("site", string_of_int site);
              ("scheme", Replicated.scheme_name st.cfg.scheme);
            ]
          "rpc.site_latency")
  in
  Network.on_rpc_result st.net (fun ~src:_ ~dst ~ok:_ ~elapsed ->
      if dst >= 0 && dst < st.cfg.n_sites then Metrics.observe site_lat.(dst) elapsed);
  let h_delay () =
    match Detector.latency_percentile det ~q:hedge_percentile with
    | Some p -> Float.max hedge_delay_floor p
    | None ->
      (* No samples yet: a few mean network hops is the only prior. *)
      Float.max hedge_delay_floor (4.0 *. st.cfg.latency_mean)
  in
  let route ~op:_ ~floor ~members =
    let dsts =
      if not gc.demote then members
      else
        let fast = List.filter (fun s -> not (Detector.slow_suspected det s)) members in
        if List.length fast = List.length members then members
        else if List.length fast >= floor then begin
          Metrics.incr c.c_demoted;
          fast
        end
        else members (* too few fast sites: a slow quorum beats none *)
    in
    (* Routing never narrows below the full fast set — standing redundancy
       beats a reserved spare. Hedged re-issues go first to primaries still
       lacking a reply (a fresh send re-rolls the straggling link); demoted
       members are the spares of last resort, least-suspect first. *)
    let spares =
      List.filter (fun s -> not (List.mem s dsts)) members
      |> List.map (fun s -> (Detector.slow_score det s, s))
      |> List.sort compare |> List.map snd
    in
    let hedge =
      if gc.hedge then
        Some
          {
            Rpc.h_delay;
            h_spares = spares;
            h_max = hedge_max;
            h_on_hedge = (fun ~dst:_ -> Metrics.incr c.c_hedges);
            h_on_win = (fun ~dst:_ -> Metrics.incr c.c_hedge_wins);
          }
      else None
    in
    (dsts, hedge)
  in
  List.iter
    (fun (_, obj) ->
      Replicated.set_gray obj
        (Some
           {
             Replicated.g_route = route;
             g_early = gc.hedge;
             g_on_late = Some (fun ~dst:_ ~ok:_ -> Metrics.incr c.c_hedge_late);
           }))
    st.objects
