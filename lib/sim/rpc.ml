module Trace = Atomrep_obs.Trace

type hedge = {
  h_delay : unit -> float;
  h_spares : int list;
  h_max : int;
  h_on_hedge : dst:int -> unit;
  h_on_win : dst:int -> unit;
}

let call net ~src ~dst ~timeout ~handler ~reply =
  let engine = Network.engine net in
  if not (Network.router_allows net ~src ~dst) then begin
    (* Routed out (circuit breaker open): answer with the timeout verdict
       immediately — no sends, no latency draws, no timeout burn. The
       refusal is delivered asynchronously (zero-delay event) so callers
       see the same reply-after-return discipline as a real RPC, and it is
       NOT reported to the rpc-result listeners: a breaker feeding on its
       own refusals would never observe recovery. *)
    let tr = Network.trace net in
    if Trace.enabled tr then
      ignore
        (Trace.emit tr ~site:src
           (Trace.Rpc_drop { src; dst; reason = "breaker"; elapsed = 0.0 }));
    Engine.schedule engine ~delay:0.0 (fun () -> reply None)
  end
  else begin
    let start = Engine.now engine in
    (* The armed timeout while the call is open; [None] once it settled, so
       a late or duplicated reply finds nothing to settle. *)
    let armed = ref None in
    let finish ~ok result =
      Network.note_rpc_result net ~src ~dst ~ok
        ~elapsed:(Engine.now engine -. start);
      reply result
    in
    Network.send net ~src ~dst (fun () ->
        let response = handler () in
        Network.send net ~src:dst ~dst:src (fun () ->
            match !armed with
            | None -> ()
            | Some timer ->
              armed := None;
              Engine.cancel engine timer;
              finish ~ok:true (Some response)));
    (* Cancelled when the reply settles the call, so it runs only on a call
       still open at its deadline. *)
    armed :=
      Some
        (Engine.timer engine ~delay:timeout (fun () ->
             armed := None;
             Network.note_rpc_timeout net;
             let tr = Network.trace net in
             if Trace.enabled tr then
               ignore
                 (Trace.emit tr ~site:src
                    (Trace.Rpc_timeout
                       { src; dst; timeout; elapsed = Engine.now engine -. start }));
             finish ~ok:false None))
  end

let gather_key = Atomrep_obs.Profile.key ~subsystem:"quorum" "gather"

let multicast ?enough ?hedge ?on_late ?on_issue ?on_settle net ~src ~dsts
    ~timeout ~handler ~gather =
  let engine = Network.engine net in
  if dsts = [] then gather []
  else begin
    let received = ref [] in
    (* First successful reply per destination is the one that counts: a
       hedged re-issue and its slow original may both answer, and a gather
       that saw the same site twice would double-count its vote. *)
    let got = Array.make (Network.n_sites net) false in
    let pending = ref 0 in
    let finished = ref false in
    let hedge_timer = ref None in
    let tr = Network.trace net in
    let fire () =
      finished := true;
      Option.iter (Engine.cancel engine) !hedge_timer;
      (* The quorum round's synchronous half: reply gathering plus the
         caller's decision logic (vote counting, view merge, commit). *)
      Atomrep_obs.Profile.record gather_key (fun () ->
          gather (List.rev !received))
    in
    let complete () =
      if not !finished then
        if !pending = 0 then fire ()
        else
          (* Early-quorum: fire the moment a satisfying vote set has
             answered instead of awaiting every destination — a straggler
             then can't hold the round at its own pace. *)
          match enough with
          | Some satisfied when !received <> [] && satisfied (List.rev !received)
            ->
            fire ()
          | _ -> ()
    in
    let issue ~primary dst =
      let started = Engine.now engine in
      incr pending;
      (match on_issue with Some f -> f ~dst | None -> ());
      call net ~src ~dst ~timeout
        ~handler:(fun () -> handler dst)
        ~reply:(fun result ->
          decr pending;
          (* Settlement (reply or timeout) is reported before the gather
             can fire below, so a caller that defers per-site follow-up
             work to settlement sends it, on the all-or-timeout path, at
             exactly the moment it historically would. *)
          (match on_settle with Some f -> f ~dst | None -> ());
          let ok = match result with Some _ -> true | None -> false in
          if Trace.enabled tr then
            ignore
              (Trace.emit tr ~site:src
                 (Trace.Rpc_outcome
                    { src; dst; ok; elapsed = Engine.now engine -. started }));
          if !finished then begin
            (* Straggler after the gather already fired: its outcome is
               counted (event above, [on_late] below) but it must never
               re-drive [gather]. *)
            match on_late with Some f -> f ~dst ~ok | None -> ()
          end
          else begin
            (match result with
             | Some r when not got.(dst) ->
               got.(dst) <- true;
               received := (dst, r) :: !received;
               if not primary then
                 (match hedge with Some h -> h.h_on_win ~dst | None -> ())
             | _ -> ());
            complete ()
          end)
    in
    List.iter (fun dst -> issue ~primary:true dst) dsts;
    match hedge with
    | Some h when h.h_max > 0 ->
      let delay = h.h_delay () in
      (* [fire] cancels the hedge, so it runs only on a round still open. *)
      hedge_timer :=
        Some
          (Engine.timer engine ~delay (fun () ->
            (* The round is lagging its adaptive percentile: hedge it.
               Destinations still lacking a reply are re-issued to first —
               a fresh send re-rolls a straggling link's latency draw —
               then spare members outside the round are enlisted as extra
               voters. First reply per site wins; handlers must be
               idempotent, which quorum repositories are (intend re-drops,
               log appends dedup). Destinations the router refuses
               (breaker open) are skipped — a hedge to a routed-out site
               would just burn the refusal. *)
            let fired = ref 0 in
            let consider dst =
              if
                !fired < h.h_max
                && (not got.(dst))
                && Network.router_allows net ~src ~dst
              then begin
                incr fired;
                if Trace.enabled tr then
                  ignore
                    (Trace.emit tr ~site:src (Trace.Rpc_hedge { src; dst; delay }));
                h.h_on_hedge ~dst;
                issue ~primary:false dst
              end
            in
            List.iter consider dsts;
            List.iter
              (fun spare -> if not (List.mem spare dsts) then consider spare)
              h.h_spares))
    | _ -> ()
  end
